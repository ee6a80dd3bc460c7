"""Bohr inequality verification and sharpness."""

import json
import math

import numpy as np
import pytest

from bohrmap import (
    BohrProfile,
    HarmonicMap,
    MonomialDilatation,
    NamedMap,
    PowerSeries,
    RadiusProblem,
    bohr_partial_sum,
    boundary_reach,
    check_pairing,
    default_bound_inputs,
    g_from_monomial,
    make_map,
    profile_for_named_map,
    sharpness_scan,
    solve_radius,
    verify_inequality,
)

# frozen reference values; 0.3485 is a point just past the cor25 n=1 radius
F0_SUM_AT_03485 = 1.0007554472080942
L_EXCESS_EPS_001 = 0.060211952276097316
K_EXCESS_EPS_001 = 0.080558003064942138


def identity_map(order=50):
    h = PowerSeries([0.0, 1.0]).truncated(order)
    g = PowerSeries([0.0]).truncated(order)
    return HarmonicMap(h, g)


class TestPartialSum:
    def test_zero_radius(self):
        f = make_map(NamedMap("koebe_analytic", order=100))
        s, t = bohr_partial_sum(f, 0.0)
        assert s == 0.0 and t == 0.0

    def test_monotone_in_r(self):
        f = make_map(NamedMap("f0_sharp", order=300))
        rs = np.linspace(0.0, 0.3, 20)
        sums = [bohr_partial_sum(f, r)[0] for r in rs]
        assert all(a <= b for a, b in zip(sums, sums[1:]))

    def test_koebe_geometric_closed_form(self):
        # sum m r^m = r/(1-r)^2, and at r = 3 - sqrt(8) that is exactly 1/4
        f = make_map(NamedMap("koebe_analytic", order=2000))
        r = 3.0 - math.sqrt(8.0)
        s, _ = bohr_partial_sum(f, r)
        assert s == pytest.approx(0.25, rel=1e-13)

    def test_tail_halves_when_m_doubles_bracket(self):
        f = make_map(NamedMap("harmonic_koebe_K", order=400))
        s1, t1 = bohr_partial_sum(f, 0.6, M=50, tail_constant=1.0)
        s2, t2 = bohr_partial_sum(f, 0.6, M=100, tail_constant=1.0)
        assert s1 < s2 <= s1 + t1
        assert t2 < t1

    def test_m_exceeding_order_rejected(self):
        f = make_map(NamedMap("koebe_analytic", order=10))
        with pytest.raises(ValueError):
            bohr_partial_sum(f, 0.1, M=11)

    def test_exact_polynomial_has_zero_true_tail(self):
        f = identity_map(order=30)
        s, t = bohr_partial_sum(f, 0.5, tail_constant=0.0)
        assert s == pytest.approx(0.5, rel=1e-15)
        assert t == 0.0


class TestBohrProfile:
    def test_verdicts_computed_when_omitted(self):
        r = np.array([0.0, 0.1, 0.2])
        sums = np.array([0.0, 0.5, 1.2])
        tails = np.zeros(3)
        prof = BohrProfile("t", r, sums, tails, 1.0)
        assert prof.verdicts.tolist() == [True, True, False]
        assert not prof.all_pass

    def test_rejects_decreasing_grid(self):
        with pytest.raises(ValueError):
            BohrProfile(
                "t", np.array([0.2, 0.1]), np.zeros(2), np.zeros(2), 1.0
            )

    def test_rejects_decreasing_sums(self):
        with pytest.raises(ValueError):
            BohrProfile(
                "t", np.array([0.1, 0.2]), np.array([0.5, 0.4]), np.zeros(2), 1.0
            )

    @pytest.mark.parametrize(
        "r, sums, tails",
        [([0.0, math.nan], [0.0, 0.1], [0.0, 0.0]),
         ([0.0, 0.1], [0.0, math.nan], [0.0, 0.0]),
         ([0.0, 0.1], [0.0, 0.1], [0.0, math.nan])],
    )
    def test_rejects_nan(self, r, sums, tails):
        # NaN fails every comparison, so it must not read as in range
        with pytest.raises(ValueError):
            BohrProfile("t", np.array(r), np.array(sums), np.array(tails), 1.0)

    def test_rejects_infinite_bound(self):
        # with bound = inf every verdict would be a pass
        with pytest.raises(ValueError, match="bound must be positive and finite"):
            BohrProfile("t", np.array([0.0, 0.1]), np.zeros(2), np.zeros(2), math.inf)

    def test_json_round_trip(self):
        r = np.array([0.0, 0.1])
        prof = BohrProfile("t", r, np.array([0.0, 0.5]), np.zeros(2), 1.0)
        d = json.loads(json.dumps(prof.to_dict()))
        assert set(d) == {
            "map_id", "r_grid", "partial_sums", "tail_bounds", "bound", "verdicts",
        }


class TestVerifyInequality:
    def test_harmonic_koebe_below_its_radius(self):
        f = make_map(NamedMap("harmonic_koebe_K", order=2000))
        p = RadiusProblem("thm210_convex_direction_s0")
        prof = verify_inequality(f, p, map_id="K", tail_constant=1.0)
        assert prof.all_pass
        assert prof.bound == 1.0
        # top of the grid sits one margin below the computed radius
        assert prof.r_grid[-1] == pytest.approx(
            solve_radius(p).root - 1e-3, abs=1e-12
        )

    def test_fails_above_radius(self):
        f = make_map(NamedMap("half_plane_L", order=2000))
        p = RadiusProblem("thm211_convex")
        r0 = solve_radius(p).root
        prof = verify_inequality(
            f, p, map_id="L", radius=r0 + 0.05, margin=1e-9, tail_constant=1.0
        )
        assert not prof.all_pass
        assert prof.verdicts[0]  # small r still passes

    @pytest.mark.parametrize(
        "name, M, C", [("koebe_analytic", None, 2.0), ("f0_sharp", 300, 2.0),
                       ("harmonic_koebe_K", 0, 1.0)],
    )
    def test_each_point_equals_bohr_partial_sum(self, name, M, C):
        # the grid runs through the same kernel as the single-radius call
        f = make_map(NamedMap(name, order=500))
        prof = verify_inequality(
            f, RadiusProblem("thm22_bohr"), grid_size=33, M=M, tail_constant=C
        )
        for r, s, t in zip(prof.r_grid, prof.partial_sums, prof.tail_bounds):
            assert (s, t) == bohr_partial_sum(f, float(r), M=M, tail_constant=C)

    def test_identity_map_trivially_passes(self):
        f = identity_map()
        p = RadiusProblem("thm22_bohr")
        prof = verify_inequality(f, p, map_id="id", tail_constant=0.0)
        assert prof.all_pass
        assert prof.partial_sums[-1] == pytest.approx(prof.r_grid[-1], rel=1e-15)

    def test_infinite_bound_refused(self):
        # an infinite bound would make every verdict a pass
        f = identity_map()
        with pytest.raises(ValueError, match="bound must be positive and finite"):
            verify_inequality(f, RadiusProblem("thm22_bohr"), bound=math.inf)

    def test_sum_near_one_at_thm211_radius(self):
        # the half-plane witness saturates its bound at the computed radius
        f = make_map(NamedMap("half_plane_L", order=2000))
        p = RadiusProblem("thm211_convex")
        r0 = solve_radius(p).root
        s, _ = bohr_partial_sum(f, r0, tail_constant=0.0)
        assert s == pytest.approx(1.0, abs=1e-9)

    def test_f0_sum_slightly_exceeds_one_at_4dp_radius(self):
        # 0.3485 lies just past the monomial radius 0.348385... (four-decimal
        # rounding 0.3484), and the sharp map already sits above the bound
        # there by ~7.6e-4
        f = make_map(NamedMap("f0_sharp", order=2000))
        s, _ = bohr_partial_sum(f, 0.3485, tail_constant=0.0)
        assert s == pytest.approx(F0_SUM_AT_03485, rel=1e-12)
        assert s > 1.0

    def test_distance_bound_flows_through(self):
        f = make_map(NamedMap("koebe_analytic", order=2000))
        p = RadiusProblem("thm11_univalent")
        prof = verify_inequality(
            f, p, map_id="koebe", bound=0.25, tail_constant=2.0
        )
        assert prof.bound == 0.25
        assert prof.all_pass


class TestMajorantDomination:
    @pytest.mark.parametrize(
        "name,variant,kwargs",
        [
            ("f0_sharp", "cor25_monomial", {"n": 1}),
            ("harmonic_koebe_K", "thm210_convex_direction_s0", {}),
            ("half_plane_L", "thm211_convex", {}),
        ],
    )
    def test_sum_equals_majorant_plus_one(self, name, variant, kwargs):
        # each extremal map's Bohr sum is exactly the majorant shifted by
        # the bound, which is what makes the root the Bohr radius
        from bohrmap import majorant_value

        f = make_map(NamedMap(name, order=2000))
        p = RadiusProblem(variant, **kwargs)
        for r in (0.1, 0.2, 0.3):
            s, _ = bohr_partial_sum(f, r, tail_constant=0.0)
            assert s == pytest.approx(majorant_value(p, r) + 1.0, abs=1e-9)

    def test_reflected_construction_matches_catalog_sums(self):
        h = make_map(NamedMap("koebe_analytic", order=2000)).h
        built = g_from_monomial(h, MonomialDilatation(k=1.0, n=1))
        f0 = make_map(NamedMap("f0_sharp", order=2000))
        for r in (0.1, 0.3485):
            sb, _ = bohr_partial_sum(built, r, tail_constant=0.0)
            sf, _ = bohr_partial_sum(f0, r, tail_constant=0.0)
            assert sb == pytest.approx(sf, rel=1e-13)


class TestSharpness:
    def test_half_plane_witness_excess(self):
        f = make_map(NamedMap("half_plane_L", order=2000))
        p = RadiusProblem("thm211_convex")
        excess = sharpness_scan(f, p, 0.01)
        assert excess == pytest.approx(L_EXCESS_EPS_001, rel=1e-12)

    def test_harmonic_koebe_excess(self):
        f = make_map(NamedMap("harmonic_koebe_K", order=2000))
        p = RadiusProblem("thm210_convex_direction_s0")
        excess = sharpness_scan(f, p, 0.01)
        assert excess == pytest.approx(K_EXCESS_EPS_001, rel=1e-12)

    def test_non_extremal_map_has_negative_excess(self):
        f = identity_map(order=100)
        p = RadiusProblem("thm22_bohr")
        assert sharpness_scan(f, p, 0.01) < 0.0

    def test_epsilon_must_stay_inside_disk(self):
        f = make_map(NamedMap("half_plane_L", order=100))
        p = RadiusProblem("thm211_convex")
        with pytest.raises(ValueError):
            sharpness_scan(f, p, 0.7)

    @pytest.mark.parametrize("bound", [-1.0, 0.0, math.nan, math.inf])
    def test_explicit_bound_must_be_positive_and_finite(self, bound):
        f = make_map(NamedMap("half_plane_L", order=100))
        p = RadiusProblem("thm211_convex")
        with pytest.raises(ValueError, match="bound must be positive and finite"):
            sharpness_scan(f, p, 0.01, bound=bound)


class TestBoundaryReach:
    def test_koebe_max_on_positive_axis(self):
        # |koebe| peaks at z = r where it equals r/(1-r)^2
        mx, mn = boundary_reach(NamedMap("koebe_analytic"), 0.5)
        assert mx == pytest.approx(2.0, rel=1e-12)
        assert mn < 0.25

    def test_f0_reaches_unit_modulus_near_4dp_radius(self):
        # 0.3485 is just past the radius: the max modulus, attained on the
        # positive axis, equals the Bohr sum there
        mx, _ = boundary_reach(NamedMap("f0_sharp"), 0.3485)
        assert mx == pytest.approx(F0_SUM_AT_03485, rel=1e-9)
        assert abs(mx - 1.0) < 2e-3

    def test_harmonic_map_input(self):
        f = make_map(NamedMap("half_plane_L", order=400))
        mx, mn = boundary_reach(f, 0.3)
        assert 0.0 < mn <= mx

    def test_input_validation(self):
        with pytest.raises(ValueError):
            boundary_reach(NamedMap("koebe_analytic"), 1.0)
        with pytest.raises(ValueError):
            boundary_reach(NamedMap("koebe_analytic"), 0.5, samples=8)


class TestPairing:
    def test_accepts_documented_pairs(self):
        check_pairing(
            NamedMap("harmonic_koebe_K"),
            RadiusProblem("thm210_convex_direction_s0"),
        )
        check_pairing(
            NamedMap("f0_sharp"), RadiusProblem("cor25_monomial", n=1)
        )
        check_pairing(
            NamedMap("p_k", k=0.5), RadiusProblem("thm12_quasi", K=3.0)
        )

    def test_rejects_undocumented_pair(self):
        with pytest.raises(ValueError):
            check_pairing(
                NamedMap("koebe_analytic"),
                RadiusProblem("thm210_convex_direction_s0"),
            )

    def test_rejects_quasiconformal_mismatch(self):
        # k = 0.9 dilatation is not K = 3 quasiconformal (needs k <= 0.5)
        with pytest.raises(ValueError):
            check_pairing(
                NamedMap("p_k", k=0.9), RadiusProblem("thm12_quasi", K=3.0)
            )

    def test_rejects_f0_against_partial_amplitude(self):
        with pytest.raises(ValueError):
            check_pairing(
                NamedMap("f0_sharp"),
                RadiusProblem("thm24_monomial", k=0.5, n=1),
            )

    def test_default_bound_inputs(self):
        d = default_bound_inputs(
            NamedMap("koebe_analytic"), RadiusProblem("thm11_univalent")
        )
        assert d == {"bound": 0.25}
        d = default_bound_inputs(
            NamedMap("q_k", k=0.5), RadiusProblem("thm12_quasi_convex", K=3.0)
        )
        assert d == {"bound": 0.5}
        assert (
            default_bound_inputs(
                NamedMap("f0_sharp"), RadiusProblem("cor25_monomial", n=1)
            )
            == {}
        )


class TestNamedProfiles:
    def test_quasiconformal_pair_saturates_quarter_bound(self):
        spec = NamedMap("p_k", k=0.5)
        p = RadiusProblem("thm12_quasi", K=3.0)
        prof = profile_for_named_map(spec, p, bound=0.25)
        assert prof.all_pass
        # the sum at the radius itself equals the bound: (1+k) r/(1-r)^2
        r0 = solve_radius(p).root
        s, _ = bohr_partial_sum(make_map(spec), r0, tail_constant=0.0)
        assert s == pytest.approx(0.25, rel=1e-12)

    def test_distance_preset_applied(self):
        spec = NamedMap("koebe_analytic")
        p = RadiusProblem("thm11_univalent")
        prof = profile_for_named_map(spec, p)
        assert prof.bound == 0.25
        assert prof.all_pass

    def test_rejects_incompatible(self):
        with pytest.raises(ValueError):
            profile_for_named_map(
                NamedMap("koebe_analytic"), RadiusProblem("thm211_convex")
            )
