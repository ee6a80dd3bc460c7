"""Radius problems: closed forms, majorants, summation identities."""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrmap import (
    VARIANT_TABLE,
    RadiusProblem,
    closed_form_radius,
    m2_tail,
    majorant_value,
    resolve_variant,
)
from bohrmap.radii import _m2_tails
from test_solver import THM27_ROOT

# frozen independent evaluations of the root equations
COR25_ROOTS = {
    1: 0.34838507953206128,
    2: 0.31196449982758651,
    3: 0.17930779190555451,
    4: 0.095981503730573139,
}


def m2_tails_by_pow(rs, M):
    # the closed form with pow at every radius, its numerator
    # N^2 (1-r)^2 + 2N r (1-r) + r (1+r) written as a square plus r
    N = M + 1
    return [float(r**N * ((N * (1.0 - r) + r) ** 2 + r) / (1.0 - r) ** 3) for r in rs]


def m2_tail_mpmath(r, M):
    # sum_{m > M} m^2 r^m at 50 digits, r taken as its exact binary value
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        N, x = M + 1, mpmath.mpf(r)
        return x**N * (N**2 - (2 * N**2 - 2 * N - 1) * x + (N - 1) ** 2 * x**2) / (1 - x) ** 3


@st.composite
def tail_inputs(draw):
    """A whole unsorted grid of radii in [0, 1), with the cuts among them, and M >= 0.

    The grid holds zeros of both signs, subnormals, the smallest normal, the
    underflow cut B = 2^(-1100/N) (1 - 2^-40) and 2^(-1100/N) with their
    neighbours, radii within 1e-12 of B and radii drawn from all of [0, 1).
    """
    # M up to 2^50, where the underflow cut is within 2e-12 of 1
    M = draw(st.sampled_from([0, 1, 5, 60, 200, 2000, 10000, 2**32 - 1, 2**32, 10**14, 2**50])
             | st.integers(0, 2**50))
    B = 2.0 ** (-1100.0 / (M + 1)) * (1.0 - 2.0**-40)
    edges = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308]
    for cut in (2.0 ** (-1100.0 / (M + 1)), B):
        edges += [cut, math.nextafter(cut, 0.0), math.nextafter(cut, 1.0)]
    radius = (st.sampled_from([r for r in edges if r < 1.0])
              | st.floats(B * (1.0 - 1e-12), min(B * (1.0 + 1e-12), math.nextafter(1.0, 0.0)))
              | st.floats(0.0, 1.0, exclude_max=True))
    return draw(st.lists(radius, min_size=1, max_size=300)), M


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
        # True would pass 0 < k <= 1
        for bad in (0.0, 1.2, True, np.True_):
            with pytest.raises(ValueError, match=r"k must lie in \(0, 1\]"):
                RadiusProblem("thm24_monomial", k=bad, n=1)
        RadiusProblem("thm24_monomial", k=1.0, n=1)

    def test_K_range(self):
        # True would pass K >= 1, and certify K = true
        for bad in (0.5, math.nan, math.inf, True, np.True_):
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


class TestBounds:
    def test_distance_variants_require_distance(self):
        # only the caller knows d, and passes it as the bound itself
        p = RadiusProblem("thm11_univalent")
        with pytest.raises(ValueError, match="needs the boundary distance d"):
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

    @pytest.mark.parametrize(
        "r", [False, True, np.False_, np.True_, np.array([False, True]), np.zeros(3, dtype=bool)]
    )
    def test_rejects_bool_r(self, r):
        # cast to float, False would read as r = 0 and give -1.0
        p = RadiusProblem("cor25_monomial", n=1)
        with pytest.raises(ValueError, match=r"r must lie in \[0, 1\)"):
            majorant_value(p, r)

    def test_closed_form_variants_have_no_majorant(self):
        with pytest.raises(ValueError):
            majorant_value(RadiusProblem("thm11_univalent"), 0.1)

    def test_vectorized(self):
        p = RadiusProblem("thm210_convex_direction_s0")
        out = majorant_value(p, np.array([0.1, 0.2, 0.3]))
        assert out.shape == (3,)
        assert np.all(np.diff(out) > 0.0)


@dataclass(frozen=True)
class MajorantIdentity:
    """A summable term family t(m) r^m with its closed form in r.

    Every majorant is a combination of these five sums; checking each
    truncation against its closed form pins the algebra the majorants rely
    on.
    """

    name: str
    term: Callable[[np.ndarray, float], np.ndarray]
    closed_form: Callable[[float], float]


IDENTITIES = {
    "sum_m_rm": MajorantIdentity(
        "sum_m_rm",
        lambda m, r: m * r**m,
        lambda r: r / (1.0 - r) ** 2,
    ),
    "sum_rm": MajorantIdentity(
        "sum_rm",
        lambda m, r: r**m,
        lambda r: r / (1.0 - r),
    ),
    "sum_rm_over_m": MajorantIdentity(
        "sum_rm_over_m",
        lambda m, r: r**m / m,
        lambda r: -math.log1p(-r),
    ),
    "sum_m_mplus1_rm": MajorantIdentity(
        "sum_m_mplus1_rm",
        lambda m, r: m * (m + 1.0) * r**m,
        lambda r: r * (1.0 + r) / (1.0 - r) ** 3 + r / (1.0 - r) ** 2,
    ),
    "sum_2m2plus1_over3_rm": MajorantIdentity(
        "sum_2m2plus1_over3_rm",
        lambda m, r: (2.0 * m**2 + 1.0) / 3.0 * r**m,
        lambda r: 2.0 * r * (1.0 + r) / (3.0 * (1.0 - r) ** 3)
        + r / (3.0 * (1.0 - r)),
    ),
}
IDENTITY_NAMES = tuple(IDENTITIES)


def identity_tail_bound(r: float, M: int) -> float:
    """Tail bound valid for every identity above: terms are <= 2 m^2 r^m."""
    return 2.0 * m2_tail(r, M)


def majorant_identity_check(identity: MajorantIdentity, r: float, M: int) -> float:
    """|truncated sum - closed form|; must sit within identity_tail_bound."""
    if not 0.0 <= r <= 0.95:
        raise ValueError("r must lie in [0, 0.95] for the stated tail bound")
    if M < 1:
        raise ValueError("M must be >= 1")
    m = np.arange(1, M + 1, dtype=np.float64)
    partial = float(np.sum(identity.term(m, r)))
    return abs(partial - identity.closed_form(r))


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

    @pytest.mark.parametrize("r, M", [(0.9999999962416259, 10**8), (1.0 - 1e-6, 10**6)])
    def test_m2_tail_near_one_matches_mpmath(self, r, M):
        # where 1 - r is near 1/M: the numerator N^2 - (2N^2 - 2N - 1) r +
        # (N - 1)^2 r^2 cancelled here, to -2.59e25 at the first point and a
        # relative error of 2.4e-5 at the second
        want = m2_tail_mpmath(r, M)
        got = m2_tail(r, M)
        assert got > 0.0
        assert abs(got - want) <= 1e-15 * want

    @pytest.mark.parametrize("M", [10**160, 10**300], ids=["1e160", "1e300"])
    @pytest.mark.parametrize("r", [0.0, -0.0, 0.5, 1.0 - 2.0**-53])
    def test_order_past_the_largest_square_gives_a_zero(self, r, M):
        # N^2 overflows a double here while r^N underflows to a zero, which
        # is the tail; the numerator used to raise a bare OverflowError
        got = m2_tail(r, M)
        assert type(got) is float and got == 0.0
        assert [t.hex() for t in _m2_tails(np.array([r]), M).tolist()] == [got.hex()]

    @given(tail_inputs())
    @settings(max_examples=300, deadline=None)
    def test_m2_tails_equal_the_pow_route(self, case):
        # bit for bit, signed zeros included, underflow cut or not: the whole
        # grid at once, and each radius alone through m2_tail's scalar cut
        rs, M = case
        want = [t.hex() for t in m2_tails_by_pow(rs, M)]
        assert [t.hex() for t in _m2_tails(np.array(rs), M).tolist()] == want
        assert [m2_tail(r, M).hex() for r in rs] == want

    def test_m2_tail_is_a_python_float(self):
        # inside the underflow cut (0.3 at order 2000), past it (0.9), at
        # +0.0 and from a numpy radius; bohr_partial_sum's tail, this times
        # its constant, is pinned in test_bohr.py's TestFloatResults
        for r in (0.3, 0.9, 0.0, np.float64(0.3)):
            assert type(m2_tail(r, 2000)) is float

    def test_identity_check_input_validation(self):
        ident = IDENTITIES["sum_rm"]
        with pytest.raises(ValueError):
            majorant_identity_check(ident, 0.96, 10)
        with pytest.raises(ValueError):
            majorant_identity_check(ident, 0.5, 0)
