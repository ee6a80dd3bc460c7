"""Bohr inequality verification and sharpness."""

import copy
import json
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrmap import (
    MAP_TABLE,
    BohrProfile,
    HarmonicMap,
    MonomialDilatation,
    NamedMap,
    PowerSeries,
    RadiusProblem,
    bohr_partial_sum,
    boundary_reach,
    check_domination,
    check_pairing,
    default_bound_inputs,
    domination_campaign,
    evaluate_on_circle,
    extremal_pairing,
    g_from_monomial,
    majorant_value,
    make_map,
    profile_for_named_map,
    random_schwarz,
    sharpness_scan,
    solve_radius,
    verify_inequality,
)
from bohrmap.bohr import HORNER_VECTOR_RADII, _rounding_bound, _sums
from bohrmap.catalog import MAP
from bohrmap.series import _circle_spectrum
from bohrmap.radii import VARIANT

# frozen reference values; 0.3485 is a point just past the cor25 n=1 radius
F0_SUM_AT_03485 = 1.0007554472080942
L_EXCESS_EPS_001 = 0.060211952276097316
K_EXCESS_EPS_001 = 0.080558003064942138


def identity_map(order=50):
    h = PowerSeries([0.0, 1.0]).truncated(order)
    g = PowerSeries([0.0]).truncated(order)
    return HarmonicMap(h, g)


def witness_pairing(record, variant=None):
    """A catalog map and a variant it is a member of (its first by default), at K = 3."""
    return extremal_pairing(record.name, variant or record.member_of[0], K=3.0)


FRACTION_BITS = 256


def exact_sums(moduli, rs):
    """sum_m moduli[m-1] r^m for each r, as Fractions within M 2^-256 below the exact sums.

    Every float is a dyadic rational, so inputs convert exactly to binary
    fixed point with 256 fraction bits; each Horner step then truncates once.
    """

    def fixed(x):
        num, den = float(x).as_integer_ratio()
        return (num << FRACTION_BITS) // den

    radii = np.array([fixed(r) for r in rs], dtype=object)
    acc = np.zeros(len(radii), dtype=object)
    for c in moduli[::-1]:
        acc = (acc + fixed(c)) * radii >> FRACTION_BITS
    return [Fraction(int(a), 1 << FRACTION_BITS) for a in acc]


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

    @pytest.mark.parametrize("C", [0.0, -0.0])
    @pytest.mark.parametrize("M", [0, 1, 50])
    def test_zero_constant_gives_a_plus_zero_tail(self, M, C):
        # a zero constant of either sign skips the tail and gives +0.0 at
        # every radius, r = -0.0 included, as verify_inequality's grids do;
        # sharpness_scan and the demos discard this tail, and no subcommand
        # prints it
        f = make_map(NamedMap("harmonic_koebe_K", order=300))
        for r in (-0.0, 0.0, 0.3):
            assert bohr_partial_sum(f, r, M, C)[1].hex() == "0x0.0p+0"


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
         ([0.0, 0.1], [0.0, 0.1], [0.0, math.nan]),
         ([0.0, 0.1, 0.2], [0.0, 0.5, math.inf], [0.0, 0.0, 0.0]),
         ([0.0, 0.1, 0.2], [0.0, math.inf, math.inf], [0.0, 0.0, 0.0]),
         ([0.0, 0.1, 0.2], [0.0, 0.5, 0.6], [0.0, 0.0, math.inf]),
         ([0.0, 0.1, math.inf], [0.0, 0.5, 0.6], [0.0, 0.0, 0.0])],
    )
    def test_rejects_nan(self, r, sums, tails):
        # NaN fails every comparison, so it must not read as in range; an
        # infinite sum or tail is refused as such, for M = 0 as well, where
        # the rounding term would be 0 * inf, and with no numpy warning
        with pytest.raises(ValueError):
            BohrProfile("t", np.array(r), np.array(sums), np.array(tails), 1.0)

    def test_rejects_equal_radii(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            BohrProfile("t", [0.0, 0.1, 0.1], [0.0, 0.5, 0.6], [0.0, 0.0, 0.0], 1.0)

    @pytest.mark.parametrize(
        "r, sums, tails, verdicts",
        [([0.3], [0.5], [0.0], [True]),
         ([], [], [], []),
         ([-0.0, 0.1, 0.2], [0.0, 0.5, 0.5], [-0.0, -0.0, 0.6], [True, True, False]),
         ([0.0, 5e-324], [0.0, 0.0], [0.0, 1.0], [True, True])],
        ids=["one point", "empty", "signed zeros and equal sums", "subnormal step"],
    )
    def test_accepts_edge_grids(self, r, sums, tails, verdicts):
        # a one-point or empty grid, -0.0 radii and tails, equal
        # consecutive sums and the smallest step between radii all pass
        # the checks
        prof = BohrProfile("t", r, sums, tails, 1.0, M=3)
        assert prof.verdicts.tolist() == verdicts

    def test_rejects_infinite_bound(self):
        # with bound = inf every verdict would be a pass
        with pytest.raises(ValueError, match="bound must be positive and finite"):
            BohrProfile("t", np.array([0.0, 0.1]), np.zeros(2), np.zeros(2), math.inf)

    def test_rounding_term_can_fail_a_verdict(self):
        # sum + tail sits 1e-14 below the bound, closer than the rounding
        # term of a 2000-term sum (about 4e-13 here): no proof, so a fail
        r = np.array([0.0, 0.3])
        sums = np.array([0.0, 0.9])
        tails = np.array([0.0, 0.1 - 1e-14])
        assert sums[1] + tails[1] < 1.0
        assert BohrProfile("t", r, sums, tails, 1.0).verdicts.tolist() == [True, True]
        prof = BohrProfile("t", r, sums, tails, 1.0, M=2000)
        assert prof.verdicts.tolist() == [True, False]
        assert prof.to_dict()["tail_bounds"] == tails.tolist()

    def test_rejects_negative_term_count(self):
        with pytest.raises(ValueError, match="M must be >= 0"):
            BohrProfile("t", np.array([0.0, 0.1]), np.zeros(2), np.zeros(2), 1.0, M=-1)

    def test_json_round_trip(self):
        r = np.array([0.0, 0.1])
        prof = BohrProfile("t", r, np.array([0.0, 0.5]), np.zeros(2), 1.0)
        d = json.loads(json.dumps(prof.to_dict()))
        assert set(d) == {
            "map_id", "r_grid", "partial_sums", "tail_bounds", "bound", "verdicts",
        }

    def test_keeps_its_own_copy_of_the_callers_arrays(self):
        r, sums = np.array([0.0, 0.1, 0.2]), np.array([0.0, 0.5, 1.2])
        prof = BohrProfile("t", r, sums, np.zeros(3), 1.0)
        r[2], sums[2] = 0.05, 0.7
        assert prof.r_grid.tolist() == [0.0, 0.1, 0.2]
        assert prof.partial_sums.tolist() == [0.0, 0.5, 1.2]
        assert prof.verdicts.tolist() == [True, True, False]

    def test_arrays_are_read_only(self):
        prof = BohrProfile("t", np.array([0.0, 0.1]), np.zeros(2), np.zeros(2), 1.0)
        with pytest.raises(ValueError):
            prof.partial_sums[0] = 2.0
        for name in ("r_grid", "tail_bounds", "verdicts"):
            assert not getattr(prof, name).flags.writeable, name

    @pytest.mark.parametrize(
        "trip",
        [copy.copy, copy.deepcopy]
        + [lambda x, p=p: pickle.loads(pickle.dumps(x, p))
           for p in range(pickle.HIGHEST_PROTOCOL + 1)],
    )
    def test_round_trips_through_copy_and_pickle(self, trip):
        prof = BohrProfile("t", np.array([0.0, 0.3]), np.array([0.0, 0.9]),
                           np.array([0.0, 0.1 - 1e-14]), 1.0, M=2000)
        twin = trip(prof)
        assert twin.to_dict() == prof.to_dict() and twin.M == prof.M
        assert twin.verdicts.tolist() == [True, False]
        for name in ("r_grid", "partial_sums", "tail_bounds", "verdicts"):
            assert not getattr(twin, name).flags.writeable, name
        with pytest.raises(ValueError):
            twin.partial_sums[1] = 5.0

    def test_compares_by_identity_and_is_hashable(self):
        prof = BohrProfile("t", np.array([0.0, 0.1]), np.zeros(2), np.zeros(2), 1.0)
        twin = copy.deepcopy(prof)
        assert prof == prof and prof != twin
        assert len({prof, twin, prof}) == 2


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
        # the grid runs through the same kernel as the single-radius call; a
        # profile of M terms is the profile of the map truncated to M
        f = make_map(NamedMap(name, order=500))
        g = f if M is None else HarmonicMap(f.h.truncated(M), f.g.truncated(M))
        prof = verify_inequality(g, RadiusProblem("thm22_bohr"), grid_size=33, tail_constant=C)
        for r, s, t in zip(prof.r_grid, prof.partial_sums, prof.tail_bounds):
            assert (s, t) == bohr_partial_sum(f, float(r), M=M, tail_constant=C)

    @pytest.mark.parametrize(
        "name, grid_size",
        [("f0_sharp", HORNER_VECTOR_RADII // 2 - 1), ("f0_sharp", HORNER_VECTOR_RADII // 2),
         ("half_plane_analytic", HORNER_VECTOR_RADII - 1),
         ("half_plane_analytic", HORNER_VECTOR_RADII)],
    )
    def test_both_horner_forms_equal_bohr_partial_sum(self, name, grid_size):
        # f0's sums run two chains per radius, the constant moduli of the
        # half-plane map one: below the cut-over the chains run on Python
        # floats, from it on on a numpy vector; the single-radius call
        # always runs on Python floats
        f = make_map(NamedMap(name, order=500))
        prof = verify_inequality(f, RadiusProblem("thm22_bohr"), grid_size=grid_size)
        assert prof.M == 500
        for r, s, t in zip(prof.r_grid, prof.partial_sums, prof.tail_bounds):
            assert (s, t) == bohr_partial_sum(f, float(r))

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


def full_horner(moduli, rs):
    """The whole chain acc = (acc + c) * r from m = M down to 1, on Python floats."""
    coeffs = moduli[::-1].tolist()
    out = []
    for r in np.asarray(rs, dtype=np.float64).tolist():
        acc = 0.0
        for c in coeffs:
            acc = (acc + c) * r
        out.append(acc)
    return out


RADII_COUNTS = sorted({1, 2, 31, 32, 256, HORNER_VECTOR_RADII // 2 - 1, HORNER_VECTOR_RADII // 2,
                       HORNER_VECTOR_RADII - 1, HORNER_VECTOR_RADII})


@st.composite
def kernel_inputs(draw):
    """Nonnegative moduli of one of five shapes and a sorted grid of radii in [0, top]."""
    M = draw(st.one_of(st.integers(0, 2), st.integers(3, 400)))
    shape = draw(st.sampled_from(["constant", "constant tail", "power", "wide", "sparse"]))
    scale = 10.0 ** draw(st.integers(-300, 300))
    n = draw(st.sampled_from(RADII_COUNTS))
    top = draw(st.sampled_from([0.0, 1e-300, 0.05, 1.0 / 3.0, 0.38, 0.9, 1.0 - 1e-6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "constant":
        moduli = np.full(M, draw(st.sampled_from([0.0, 1.0, 1.5, scale])))
    elif shape == "constant tail":
        moduli = rng.uniform(0.0, scale, M)
        moduli[rng.integers(0, M + 1):] = draw(st.sampled_from([0.0, 1.0, scale]))
    elif shape == "power":
        # growing like m^p up to scale at m = M
        p = rng.uniform(0.0, 3.0)
        moduli = (np.arange(1.0, M + 1.0) / max(M, 1)) ** p * scale
    elif shape == "wide":
        moduli = 10.0 ** rng.uniform(-300.0, 300.0, M)
    else:
        moduli = np.where(rng.random(M) < 0.2, rng.uniform(0.0, scale, M), 0.0)
    rs = np.sort(rng.uniform(0.0, top, n))
    rs[0] = draw(st.sampled_from([0.0, rs[0]]))
    rs[-1] = top
    return moduli, rs


class TestSumKernel:
    @given(kernel_inputs())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_full_horner_chain(self, case):
        # bit for bit, signed zeros included, and with no numpy warning
        moduli, rs = case
        assert [s.hex() for s in _sums(moduli, rs)] == [s.hex() for s in full_horner(moduli, rs)]

    @pytest.mark.parametrize("record", MAP_TABLE, ids=lambda r: r.name)
    def test_catalog_moduli_equal_the_full_horner_chain(self, record):
        spec, _ = witness_pairing(record)
        moduli = make_map(spec).coefficient_moduli()[1:]
        for n in (1, 16, 256):
            rs = np.linspace(0.0, 0.38, n + 1)[1:]
            assert _sums(moduli, rs) == full_horner(moduli, rs)

    @pytest.mark.parametrize("n", [1, 256])
    def test_varying_head_before_a_constant_tail(self, n, monkeypatch):
        # constant moduli from t + 1 on, t inside the head: with M - t
        # constant terms to spare, the tail's fixed point seeds the t
        # varying ones and no radius needs the full chain; with fewer, the
        # tail's chain stops after its M - t steps
        import bohrmap.bohr

        def full_chain(moduli, rs):
            raise AssertionError("the full chain ran")

        rng = np.random.default_rng(0)
        rs = np.linspace(0.0, 0.5, n + 1)[1:]
        for M, t in ((400, 1), (400, 2), (400, 5), (400, 20), (400, 40), (80, 40)):
            moduli = np.full(M, 1.5)
            moduli[:t] = rng.uniform(0.5, 3.0, t)
            want = [s.hex() for s in full_horner(moduli, rs)]
            with monkeypatch.context() as m:
                if M == 400:
                    m.setattr(bohrmap.bohr, "_full_chain", full_chain)
                assert [s.hex() for s in _sums(moduli, rs)] == want

    @pytest.mark.parametrize("n", [1, 256])
    def test_route_at_the_head_boundary(self, n, monkeypatch):
        # the constant-tail scan runs only where the modulus at index m0
        # equals the last one: varying moduli with that one equal must still
        # take the sandwich, and a constant tail from t = m0 - 1 to m0 + 2
        # takes its own route, the fixed point up to t = m0 and the sandwich
        # after it; each closes every radius on the full chain's bits
        import bohrmap.bohr

        def full_chain(moduli, rs):
            raise AssertionError("the full chain ran")

        monkeypatch.setattr(bohrmap.bohr, "_full_chain", full_chain)

        rng = np.random.default_rng(1)
        rs = np.linspace(0.0, 0.5, n + 1)[1:]
        moduli = rng.uniform(1.0, 2.0, 400)
        # the first modulus and the largest fix m0, whatever the tail holds
        moduli[:2] = 1.0, 2.0
        m0 = bohrmap.bohr._head_length(moduli, 0.5, 2.0)
        assert 2 < m0 < 100
        cases = [moduli.copy()]
        cases[0][m0] = cases[0][-1]
        for t in (m0 - 1, m0, m0 + 1, m0 + 2):
            cases.append(moduli.copy())
            cases[-1][t:] = 1.5
        for case in cases:
            assert [s.hex() for s in _sums(case, rs)] == [s.hex() for s in full_horner(case, rs)]

    @pytest.mark.parametrize("name, k", [("f0_sharp", None), ("half_plane_analytic", None),
                                         ("q_k", 0.5)], ids=["f0_sharp", "half_plane", "q_k"])
    def test_any_head_length_gives_the_full_chain(self, monkeypatch, name, k):
        # radii the sandwich leaves open run the full chain, and a closed one
        # is right however short the head: a seed below the bound would
        # close some radius on a wrong float at some head length.  On a
        # constant tail a radius still rising at the end of a short head
        # opens, and one that closes has reached its fixed point
        import bohrmap.bohr

        full_chain, opened = bohrmap.bohr._full_chain, []

        def spy(moduli, rs):
            opened.append(len(rs))
            return full_chain(moduli, rs)

        monkeypatch.setattr(bohrmap.bohr, "_full_chain", spy)
        moduli = make_map(NamedMap(name, k=k, order=2000)).coefficient_moduli()[1:]
        rs = np.linspace(0.0, 0.34, 256)
        want = full_horner(moduli, rs)
        for bits in range(65):
            monkeypatch.setattr(bohrmap.bohr, "_HEAD_MARGIN", bits * math.log(2.0))
            assert _sums(moduli, rs) == want
            assert _sums(moduli, rs[::16]) == want[::16]
        assert 0 < min(opened) and max(opened) < 256 and len(opened) > 2

    def test_catalog_and_campaign_sums_stop_early(self, monkeypatch):
        # every documented pairing's order-2000 verify grid and sharpness
        # point, and the order-200 sums of a campaign, end on a short head
        import bohrmap.bohr

        horner, heads = bohrmap.bohr._horner, []

        def full_chain(moduli, rs):
            raise AssertionError(f"the full chain of {len(moduli)} terms ran")

        def spy(moduli, rs, seeds):
            heads.append(len(moduli))
            return horner(moduli, rs, seeds)

        monkeypatch.setattr(bohrmap.bohr, "_full_chain", full_chain)
        monkeypatch.setattr(bohrmap.bohr, "_horner", spy)
        for record in MAP_TABLE:
            for variant in record.member_of:
                spec, p = witness_pairing(record, variant)
                assert profile_for_named_map(spec, p).M == 2000
                sharpness_scan(make_map(spec), p, 0.01, **default_bound_inputs(spec, p))
        assert domination_campaign(seeds=range(16))["all_pass"]
        assert max(heads) <= 100


class TestFloatResults:
    """Sums leave the kernel as Python floats in either Horner form, never as numpy scalars."""

    @pytest.mark.parametrize("vector_from", [1, 10**9], ids=["vector", "float"])
    def test_python_floats(self, vector_from, monkeypatch):
        # the sandwich seeds its chains from one array and the constant tail
        # from zeros: both forms hand back floats, also to the callers whose
        # results are their own arithmetic on the sums
        import bohrmap.bohr

        monkeypatch.setattr(bohrmap.bohr, "HORNER_VECTOR_RADII", vector_from)
        for name, k in (("f0_sharp", None), ("half_plane_L", None), ("q_k", 0.5)):
            f = make_map(NamedMap(name, k=k, order=2000))
            moduli = f.coefficient_moduli()[1:]
            for n in (1, 7, 40, 256):
                assert {type(s) for s in _sums(moduli, np.linspace(0.0, 0.34, n))} == {float}
            assert [type(x) for x in bohr_partial_sum(f, 0.3)] == [float, float]
        spec, p = extremal_pairing("half_plane_L", "thm211_convex")
        assert type(sharpness_scan(make_map(spec), p, 0.01)) is float
        koebe = make_map(NamedMap("koebe_analytic", order=200)).h
        assert type(check_domination(koebe, random_schwarz(1, 3))) is float


class TestOverflowIsRefused:
    """A sum past the largest double is one ValueError in either Horner form, never a warning."""

    # at r = 0.3 the Horner chain passes 1.8e308 on its second step
    BIG = HarmonicMap(PowerSeries([0.0, 1e308, 1.5e308, 1e308]), PowerSeries([0.0] * 4))

    @pytest.mark.parametrize("grid_size", [8, 256])
    def test_verify_inequality(self, grid_size):
        # 8 radii run the float form, 256 the numpy vector form
        assert 8 < HORNER_VECTOR_RADII <= 256
        with pytest.raises(ValueError, match="overflows"):
            verify_inequality(self.BIG, RadiusProblem("thm11"), radius=0.4, bound=1.0,
                              tail_constant=0.0, grid_size=grid_size)

    def test_bohr_partial_sum(self):
        with pytest.raises(ValueError, match="overflows"):
            bohr_partial_sum(self.BIG, 0.3)
        assert math.isfinite(bohr_partial_sum(self.BIG, 0.2)[0])

    @pytest.mark.parametrize("n", [8, 256])
    def test_constant_tail_and_overflowing_moduli(self, n):
        # the fixed-point seed of a constant tail, and |a_m| + |b_m| = inf
        with pytest.raises(ValueError, match="overflows"):
            _sums(np.full(50, 1e308), np.linspace(0.0, 0.9, n))
        huge = PowerSeries([0.0, 1e308, 1.0])
        with pytest.raises(ValueError, match="overflows"):
            verify_inequality(HarmonicMap(huge, huge), RadiusProblem("thm11"), radius=0.4,
                              bound=1.0, tail_constant=0.0, grid_size=n)


class TestRoundingBound:
    @pytest.mark.parametrize("record", MAP_TABLE, ids=lambda r: r.name)
    def test_kernel_within_bound_of_exact_sum(self, record):
        # Higham's bound |s_hat - s| <= gamma_2M s, and the verdict's term
        # _rounding_bound(s_hat, M) covering it, on a witness's order-2000 grid
        spec, p = witness_pairing(record)
        prof = profile_for_named_map(spec, p)
        M = prof.M
        assert M == 2000
        moduli = make_map(spec).coefficient_moduli()[1 : M + 1]
        gamma = Fraction(2 * M, 2**53 - 2 * M)
        oracle = Fraction(M, 2**FRACTION_BITS)
        for s_hat, exact in zip(prof.partial_sums, exact_sums(moduli, prof.r_grid)):
            err = abs(Fraction(float(s_hat)) - exact)
            assert err <= gamma * exact + oracle + Fraction(M, 2**1074)
            assert err <= Fraction(float(_rounding_bound(s_hat, M))) + oracle

    def test_fixed_point_oracle_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        spec, p = witness_pairing(MAP["harmonic_koebe_K"])
        prof = profile_for_named_map(spec, p)
        moduli = make_map(spec).coefficient_moduli()[1:]
        rs = prof.r_grid[[1, 128, 255]]
        with mpmath.workdps(40):
            for r, exact in zip(rs, exact_sums(moduli, rs)):
                acc = mpmath.mpf(0)
                for c in moduli[::-1]:
                    acc = (acc + c) * mpmath.mpf(float(r))
                assert abs(acc - mpmath.mpf(exact.numerator) / exact.denominator) <= 1e-35 * acc


class TestMajorantDomination:
    @pytest.mark.parametrize(
        "name,variant",
        [(r.name, v) for r in MAP_TABLE for v in r.extremal_for if VARIANT[v].majorant],
    )
    def test_sum_equals_majorant_plus_one(self, name, variant):
        # each extremal map's Bohr sum is exactly the majorant shifted by
        # the bound, which is what makes the root the Bohr radius
        spec, p = extremal_pairing(name, variant, order=2000)
        f = make_map(spec)
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

    @pytest.mark.parametrize("epsilon", [1e-300, 1e-17])
    def test_epsilon_lost_in_rounding_is_refused(self, epsilon):
        # radius + epsilon == radius would report an excess of 0 at the radius
        # itself; a closed-form radius is its own bracket, so the bracket rule
        # refuses it
        f = make_map(NamedMap("koebe_analytic", order=100))
        p = RadiusProblem("thm11_univalent")
        with pytest.raises(ValueError, match="inside the certified bracket"):
            sharpness_scan(f, p, epsilon, bound=0.25)
        assert sharpness_scan(f, p, 1e-12, bound=0.25) > 0.0

    @pytest.mark.parametrize("epsilon", [1e-16, 1e-14])
    def test_epsilon_inside_the_bisection_bracket_is_refused(self, epsilon):
        # thm211's radius is bisected: radius + epsilon must pass the
        # bracket's hi before the sum there says anything about the root
        f = make_map(NamedMap("half_plane_L"))
        p = RadiusProblem("thm211_convex")
        assert solve_radius(p).root + epsilon <= solve_radius(p).hi
        with pytest.raises(ValueError, match="inside the certified bracket"):
            sharpness_scan(f, p, epsilon)

    def test_excess_within_rounding_is_refused(self):
        # past the bracket, but the order-2000 sum's rounding term (4.4e-13)
        # is larger than its excess
        f = make_map(NamedMap("half_plane_L"))
        p = RadiusProblem("thm211_convex")
        assert solve_radius(p).root + 6e-14 > solve_radius(p).hi
        with pytest.raises(ValueError, match="within the sum's rounding error"):
            sharpness_scan(f, p, 6e-14)
        assert sharpness_scan(f, p, 1e-13) > _rounding_bound(1.0, f.order)

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

    @pytest.mark.parametrize("record", MAP_TABLE, ids=lambda r: r.name)
    def test_series_agrees_with_closed_form(self, record):
        # the series branch runs one inverse FFT for h + conj(g) on the circle
        spec, p = witness_pairing(record)
        root = solve_radius(p).root
        series = boundary_reach(make_map(spec), root)
        closed = boundary_reach(spec, root)
        assert series == pytest.approx(closed, abs=1e-9, rel=0)

    @pytest.mark.parametrize("order", [60, 2000])
    @pytest.mark.parametrize("record", MAP_TABLE, ids=lambda r: r.name)
    def test_real_spectrum_matches_the_inverse_fft(self, record, order):
        # every catalog map has a real circle spectrum, so its moduli come
        # from one rfft, which may differ from |evaluate_on_circle| only in
        # rounding; at order 2000, 64, 100 and 257 samples fold the spectrum
        # and 4096 holds it unfolded, and at order 60 only 64 and 100 fold.
        # An FFT's rounding is normwise, so both are measured against the
        # largest modulus: K's minimum on 100 samples at thm210's radius is
        # 0.1428571428571428 by rfft and 0.14285714285714302 by ifft, 1.6e-15
        # of itself apart and 2.2e-16 of the maximum, 1.0
        spec, p = extremal_pairing(record.name, record.member_of[0], K=3.0, order=order)
        f, root = make_map(spec), solve_radius(p).root
        for samples in (64, 100, 257, 4096):
            assert not _circle_spectrum(f, root, samples).imag.any()
            moduli = np.abs(evaluate_on_circle(f, root, samples))
            mx, mn = boundary_reach(f, root, samples)
            assert abs(mx - moduli.max()) <= 1e-15 * moduli.max()
            assert abs(mn - moduli.min()) <= 1e-15 * moduli.max()

    @pytest.mark.parametrize("samples", [64, 257, 4096])
    def test_complex_spectrum_keeps_the_inverse_fft(self, samples):
        # a rotated dilatation gives g complex coefficients: the moduli are
        # those of evaluate_on_circle, bit for bit
        h = make_map(NamedMap("koebe_analytic")).h
        f = g_from_monomial(h, MonomialDilatation(0.5, 0.7, 1))
        assert _circle_spectrum(f, 0.3, samples).imag.any()
        moduli = np.abs(evaluate_on_circle(f, 0.3, samples))
        mx, mn = boundary_reach(f, 0.3, samples)
        assert (mx.hex(), mn.hex()) == (float(moduli.max()).hex(), float(moduli.min()).hex())

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

    def test_refusal_names_membership(self):
        # koebe is a member of thm22_bohr's class without attaining its radius
        with pytest.raises(ValueError) as exc:
            check_pairing(NamedMap("koebe"), RadiusProblem("thm210_convex_direction_s0"))
        assert str(exc.value) == (
            "koebe_analytic is not a member of the class of thm210_convex_direction_s0; "
            "it is a member of: thm11_univalent, thm22_bohr"
        )

    @pytest.mark.parametrize(
        "record, variant",
        [(record, variant) for record in MAP_TABLE for variant in record.member_of],
        ids=lambda x: getattr(x, "name", x),
    )
    def test_returns_the_bound_keywords(self, record, variant):
        # a given bound wins; else a distance-scaled variant takes the map's d
        spec, p = witness_pairing(record, variant)
        assert check_pairing(spec, p, 0.3) == {"bound": 0.3}
        preset = {"bound": record.distance} if p.record.bound == "d" else {}
        assert check_pairing(spec, p) == preset

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
