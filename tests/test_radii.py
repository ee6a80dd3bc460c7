"""Radius problems: closed forms, majorants, summation identities."""

import math

import numpy as np
import pytest

from bohrmap import (
    IDENTITIES,
    IDENTITY_NAMES,
    VARIANT_TABLE,
    RadiusProblem,
    closed_form_radius,
    identity_tail_bound,
    m2_tail,
    majorant_identity_check,
    majorant_value,
    resolve_variant,
)
from test_solver import THM27_ROOT

# frozen independent evaluations of the root equations
COR25_ROOTS = {
    1: 0.34838507953206128,
    2: 0.31196449982758651,
    3: 0.17930779190555451,
    4: 0.095981503730573139,
}


class TestResolution:
    def test_aliases(self):
        assert resolve_variant("thm11") == "thm11_univalent"
        assert resolve_variant("thm12") == "thm12_quasi"
        assert resolve_variant("cor25") == "cor25_monomial"
        assert resolve_variant("thm24_monomial") == "thm24_monomial"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            resolve_variant("thm99")

    def test_variant_partition(self):
        for v in VARIANT_TABLE:
            # every variant either solves a root equation or has algebra
            if v.majorant is None:
                assert v.name not in ("thm24_monomial", "cor25_monomial")


class TestProblemValidation:
    def test_k_range(self):
        with pytest.raises(ValueError):
            RadiusProblem("thm24_monomial", k=0.0, n=1)
        with pytest.raises(ValueError):
            RadiusProblem("thm24_monomial", k=1.2, n=1)
        RadiusProblem("thm24_monomial", k=1.0, n=1)

    def test_K_range(self):
        for bad in (0.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                RadiusProblem("thm12_quasi", K=bad)
        RadiusProblem("thm12_quasi", K=1.0)

    def test_extraneous_params_rejected(self):
        with pytest.raises(ValueError):
            RadiusProblem("thm211_convex", K=2.0)
        with pytest.raises(ValueError):
            RadiusProblem("cor25_monomial", n=1, k=0.5)

    def test_missing_params_rejected(self):
        with pytest.raises(ValueError):
            RadiusProblem("thm24_monomial", n=1)
        with pytest.raises(ValueError):
            RadiusProblem("thm12_quasi")
        with pytest.raises(ValueError):
            RadiusProblem("cor25_monomial")

    def test_n_must_be_positive_int(self):
        with pytest.raises(ValueError):
            RadiusProblem("cor25_monomial", n=0)
        with pytest.raises(ValueError):
            RadiusProblem("cor25_monomial", n=1.5)


class TestClosedFormRadii:
    def test_univalent_family(self):
        p = RadiusProblem("thm11_univalent")
        assert closed_form_radius(p) == pytest.approx(3.0 - math.sqrt(8.0), rel=1e-15)
        assert closed_form_radius(RadiusProblem("thm11_convex")) == pytest.approx(
            1.0 / 3.0
        )
        assert closed_form_radius(RadiusProblem("thm22_bohr")) == pytest.approx(
            1.0 / 3.0
        )

    def test_quasiconformal_K3(self):
        K = 3.0
        expected = (5 * K + 1 - math.sqrt(8 * K * (3 * K + 1))) / (K + 1)
        got = closed_form_radius(RadiusProblem("thm12_quasi", K=K))
        assert got == pytest.approx(0.12701665379258311, rel=1e-15)
        assert got == pytest.approx(expected, rel=1e-15)
        assert closed_form_radius(
            RadiusProblem("thm12_quasi_convex", K=K)
        ) == pytest.approx(0.25)

    def test_quasiconformal_K1_reduces_to_univalent(self):
        assert closed_form_radius(RadiusProblem("thm12_quasi", K=1.0)) == pytest.approx(
            3.0 - math.sqrt(8.0), rel=1e-15
        )
        assert closed_form_radius(
            RadiusProblem("thm12_quasi_convex", K=1.0)
        ) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_section_two_quasiconformal(self):
        K = 3.0
        expected = (2 * K + 1 - math.sqrt(K * (3 * K + 2))) / (K + 1)
        got = closed_form_radius(RadiusProblem("thm23_quasi", K=K))
        assert got == pytest.approx(0.31385933836549284, rel=1e-15)
        assert got == pytest.approx(expected, rel=1e-15)
        assert closed_form_radius(
            RadiusProblem("thm23_quasi_convex", K=K)
        ) == pytest.approx(0.4, rel=1e-15)

    def test_min_rule_variants_take_min_with_one_third(self):
        # below the crossover the base radius wins, above it 1/3 wins
        for K in (1.0, 1.5, 2.0, 3.0, 10.0):
            base = closed_form_radius(RadiusProblem("thm23_quasi", K=K))
            sub = closed_form_radius(RadiusProblem("thm23_sub", K=K))
            assert sub == min(1.0 / 3.0, base)

    def test_crossover_constant_is_two(self):
        # (2K+1-sqrt(K(3K+2)))/(K+1) = 1/3 exactly at K = 2
        base = closed_form_radius(RadiusProblem("thm23_quasi", K=2.0))
        assert abs(base - 1.0 / 3.0) < 1e-15

    def test_direction_family(self):
        assert closed_form_radius(
            RadiusProblem("thm29_convex_direction")
        ) == pytest.approx((5 - math.sqrt(17)) / 4, rel=1e-15)
        assert closed_form_radius(RadiusProblem("thm211_convex")) == pytest.approx(
            (3 - math.sqrt(5)) / 2, rel=1e-15
        )

    def test_root_only_variants_return_none(self):
        assert closed_form_radius(RadiusProblem("thm24_monomial", k=0.5, n=1)) is None
        assert closed_form_radius(RadiusProblem("cor25_monomial", n=2)) is None
        assert closed_form_radius(RadiusProblem("thm27_mobius")) is None
        assert (
            closed_form_radius(RadiusProblem("thm210_convex_direction_s0")) is None
        )


class TestBounds:
    def test_distance_variants_require_distance(self):
        # only the caller knows d, and passes it as the bound itself
        p = RadiusProblem("thm11_univalent")
        with pytest.raises(ValueError, match="needs the boundary distance d"):
            p.bound()

    def test_distance_rejected_elsewhere(self):
        p = RadiusProblem("thm22_bohr")
        with pytest.raises(ValueError, match="fixed bound 1"):
            p.bound(mobius_a=0.5)
        assert p.bound() == 1.0

    def test_mobius_bound_is_one_plus_a(self):
        p = RadiusProblem("thm27_mobius")
        assert p.bound(mobius_a=-0.5) == pytest.approx(1.5)
        assert p.bound(mobius_a=0.0) == 1.0
        with pytest.raises(ValueError):
            p.bound(mobius_a=1.0)
        with pytest.raises(ValueError):
            p.bound()

    def test_unit_bound_for_the_rest(self):
        assert RadiusProblem("thm24_monomial", k=1.0, n=1).bound() == 1.0
        assert RadiusProblem("thm211_convex").bound() == 1.0

    def test_needs_distance_set(self):
        assert RadiusProblem("thm11_univalent").record.bound == "d"
        assert RadiusProblem("thm12_quasi_convex", K=2.0).record.bound == "d"
        assert RadiusProblem("thm22_bohr").record.bound == "1"


class TestMajorants:
    def test_thm24_at_zero_is_minus_one(self):
        p = RadiusProblem("thm24_monomial", k=0.5, n=1)
        assert majorant_value(p, 0.0) == -1.0

    def test_thm211_vanishes_at_algebraic_root(self):
        p = RadiusProblem("thm211_convex")
        r = (3 - math.sqrt(5)) / 2
        assert abs(majorant_value(p, r)) < 1e-12

    def test_thm29_vanishes_at_algebraic_root(self):
        p = RadiusProblem("thm29_convex_direction")
        r = (5 - math.sqrt(17)) / 4
        assert abs(majorant_value(p, r)) < 1e-12

    def test_thm27_near_its_root(self):
        p = RadiusProblem("thm27_mobius")
        assert abs(majorant_value(p, THM27_ROOT)) < 1e-12
        assert majorant_value(p, 0.2) < 0.0 < majorant_value(p, 0.25)

    def test_cor25_is_thm24_at_k_one(self):
        r = np.linspace(0.01, 0.6, 13)
        for n in (1, 2, 3):
            a = majorant_value(RadiusProblem("thm24_monomial", k=1.0, n=n), r)
            b = majorant_value(RadiusProblem("cor25_monomial", n=n), r)
            assert np.allclose(a, b, rtol=1e-14)

    def test_sign_change_brackets_frozen_roots(self):
        for n, root in COR25_ROOTS.items():
            p = RadiusProblem("cor25_monomial", n=n)
            assert majorant_value(p, root - 1e-6) < 0.0
            assert majorant_value(p, root + 1e-6) > 0.0

    def test_rejects_r_out_of_range(self):
        p = RadiusProblem("thm211_convex")
        with pytest.raises(ValueError):
            majorant_value(p, 1.0)
        with pytest.raises(ValueError):
            majorant_value(p, -0.1)
        # NaN fails every comparison, so it must not read as in range
        with pytest.raises(ValueError):
            majorant_value(p, math.nan)
        with pytest.raises(ValueError):
            majorant_value(p, np.array([0.1, math.nan]))

    def test_closed_form_variants_have_no_majorant(self):
        with pytest.raises(ValueError):
            majorant_value(RadiusProblem("thm11_univalent"), 0.1)

    def test_vectorized(self):
        p = RadiusProblem("thm210_convex_direction_s0")
        out = majorant_value(p, np.array([0.1, 0.2, 0.3]))
        assert out.shape == (3,)
        assert np.all(np.diff(out) > 0.0)


class TestIdentities:
    @pytest.mark.parametrize("name", sorted(IDENTITY_NAMES))
    @pytest.mark.parametrize("r", [0.0, 0.3, 0.5, 0.9])
    def test_truncation_within_tail_bound(self, name, r):
        err = majorant_identity_check(IDENTITIES[name], r, 200)
        assert err <= identity_tail_bound(r, 200) + 1e-12

    @pytest.mark.parametrize("name", sorted(IDENTITY_NAMES))
    def test_high_order_truncation_is_roundoff(self, name):
        # at r = 1/2, M = 2000 the true tail is ~1e-600
        err = majorant_identity_check(IDENTITIES[name], 0.5, 2000)
        assert err < 1e-12

    def test_quadratic_identity_at_mobius_root(self):
        err = majorant_identity_check(
            IDENTITIES["sum_m_mplus1_rm"], THM27_ROOT, 200
        )
        assert err < 1e-13

    def test_m2_tail_matches_brute_force(self):
        r, M = 0.6, 10
        m = np.arange(M + 1, 3000)
        brute = float(np.sum(m * m * np.power(r, m)))
        assert m2_tail(r, M) == pytest.approx(brute, rel=1e-13)

    def test_m2_tail_from_zero_is_full_sum(self):
        r = 0.4
        assert m2_tail(r, 0) == pytest.approx(
            r * (1 + r) / (1 - r) ** 3, rel=1e-14
        )

    def test_m2_tail_edge_cases(self):
        assert m2_tail(0.0, 5) == 0.0
        with pytest.raises(ValueError):
            m2_tail(1.0, 5)
        with pytest.raises(ValueError):
            m2_tail(0.5, -1)

    def test_identity_check_input_validation(self):
        ident = IDENTITIES["sum_rm"]
        with pytest.raises(ValueError):
            majorant_identity_check(ident, 0.96, 10)
        with pytest.raises(ValueError):
            majorant_identity_check(ident, 0.5, 0)


class TestDescriptions:
    def test_describe_mentions_parameters(self):
        p = RadiusProblem("thm12_quasi", K=3.0)
        text = p.describe()
        assert "K" in text
        p2 = RadiusProblem("cor25_monomial", n=4)
        assert "4" in p2.describe()
