"""Truncated power series arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrmap import (
    PowerSeries,
    cauchy_product,
    circle_grid,
    compose,
    eval_harmonic,
    evaluate,
    HarmonicMap,
    random_schwarz,
    term_differentiate,
    term_integrate,
)

coeff_lists = st.lists(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    min_size=1,
    max_size=40,
)


class TestPowerSeries:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PowerSeries([])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PowerSeries([1.0, np.nan])
        with pytest.raises(ValueError):
            PowerSeries([np.inf])

    def test_immutable(self):
        f = PowerSeries([1.0, 2.0])
        with pytest.raises((AttributeError, ValueError)):
            f.coeffs = np.array([0.0])
        with pytest.raises(ValueError):
            f.coeffs[0] = 5.0

    def test_order_and_len(self):
        f = PowerSeries([1.0, 2.0, 3.0])
        assert f.order == 2
        assert len(f) == 3

    def test_truncated_trims_and_pads(self):
        f = PowerSeries([1.0, 2.0, 3.0])
        assert np.array_equal(f.truncated(1).coeffs, [1.0, 2.0])
        padded = f.truncated(4)
        assert padded.order == 4
        assert np.array_equal(padded.coeffs, [1.0, 2.0, 3.0, 0.0, 0.0])

    def test_equality_and_hash(self):
        a = PowerSeries([1.0, 2.0])
        b = PowerSeries([1.0, 2.0])
        assert a == b
        assert hash(a) == hash(b)
        assert a != PowerSeries([1.0, 2.0, 0.0])


class TestEvaluate:
    def test_geometric_series_partial(self):
        f = PowerSeries(np.ones(11))
        # (1 - z^{11}) / (1 - z) at z = 1/2
        expected = (1.0 - 0.5**11) / 0.5
        assert evaluate(f, 0.5) == pytest.approx(expected, rel=1e-15)

    def test_scalar_returns_complex(self):
        f = PowerSeries([0.0, 1.0])
        v = evaluate(f, 0.25)
        assert isinstance(v, complex)
        assert v == 0.25

    def test_vectorized(self):
        f = PowerSeries([1.0, 1.0, 1.0])
        z = np.array([0.0, 0.5j])
        out = evaluate(f, z)
        assert out.shape == (2,)
        assert out[0] == 1.0
        assert out[1] == pytest.approx(1.0 + 0.5j - 0.25)

    def test_rejects_non_finite_point(self):
        f = PowerSeries([1.0])
        with pytest.raises(ValueError):
            evaluate(f, np.nan)


class TestCalculus:
    @given(coeff_lists)
    @settings(max_examples=100, deadline=None)
    def test_round_trip_within_two_ulp(self, coeffs):
        # (c/n)*n is not exact in doubles, e.g. c = 1, n = 49
        f = PowerSeries(coeffs)
        back = term_differentiate(term_integrate(f)).coeffs[: len(coeffs)]
        orig = f.coeffs
        tol = 2.0 * np.spacing(np.abs(orig) + 1e-300)
        assert np.all(np.abs(back - orig) <= np.maximum(tol, 2e-308))

    def test_round_trip_not_exact_sometimes(self):
        f = PowerSeries(np.ones(60))
        back = term_differentiate(term_integrate(f)).coeffs[:60]
        assert not np.array_equal(back, f.coeffs)  # hits c/49*49 != 1

    def test_integrate_shifts(self):
        f = PowerSeries([2.0, 4.0])
        F = term_integrate(f)
        assert np.array_equal(F.coeffs, [0.0, 2.0, 2.0])

    def test_differentiate_drops(self):
        f = PowerSeries([7.0, 2.0, 3.0])
        assert np.array_equal(term_differentiate(f).coeffs, [2.0, 6.0])

    def test_differentiate_constant(self):
        assert np.array_equal(term_differentiate(PowerSeries([5.0])).coeffs, [0.0])


class TestCauchyProduct:
    def test_known_square(self):
        # (1 + z)^2 = 1 + 2z + z^2, padded so the square fits
        f = PowerSeries([1.0, 1.0]).truncated(2)
        assert np.array_equal(cauchy_product(f, f).coeffs, [1.0, 2.0, 1.0])

    def test_truncates_to_common_order(self):
        f = PowerSeries([1.0, 1.0, 1.0])
        g = PowerSeries([1.0, 1.0])
        assert cauchy_product(f, g).order == 1
        assert cauchy_product(f, g.truncated(2)).order == 2

    @given(
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=8),
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_product_evaluates_consistently(self, ca, cb):
        # pad both to the sum of degrees so nothing is truncated away
        n = len(ca) + len(cb)
        f, g = PowerSeries(ca).truncated(n), PowerSeries(cb).truncated(n)
        prod = cauchy_product(f, g)
        z = 0.5
        direct = evaluate(f, z) * evaluate(g, z)
        scale = max(1.0, abs(direct))
        assert abs(evaluate(prod, z) - direct) <= 1e-10 * scale


class TestCompose:
    def test_requires_zero_constant_term(self):
        f = PowerSeries([0.0, 1.0])
        with pytest.raises(ValueError):
            compose(f, PowerSeries([0.5, 1.0]))

    def test_koebe_of_z_squared_doubles_indices(self):
        m = np.arange(0.0, 41.0)
        koebe = PowerSeries(m)  # z/(1-z)^2 truncated
        psi = PowerSeries([0.0, 0.0, 1.0]).truncated(40)
        comp = compose(koebe, psi, order=40)
        # sum m z^m -> sum m z^{2m}: slot 2m holds m, odd slots vanish
        assert np.allclose(comp.coeffs[::2], np.arange(0.0, 21.0))
        assert np.allclose(comp.coeffs[1::2], 0.0)

    def test_compose_matches_pointwise(self):
        m = np.arange(0.0, 121.0)
        f = PowerSeries(m)
        psi = PowerSeries([0.0, 0.3, 0.1])
        comp = compose(f, psi, order=120)
        z = 0.3
        inner = evaluate(psi, z)
        # |inner| < 0.12 so the order-120 truncation error is ~1e-100
        assert evaluate(comp, z) == pytest.approx(evaluate(f, inner), abs=1e-12)

    def test_default_order_is_min(self):
        f = PowerSeries(np.ones(10))
        psi = PowerSeries([0.0, 1.0]).truncated(5)
        assert compose(f, psi).order == 5


def horner_compose(f, psi, order):
    """The O(n^3) Horner composition compose() replaced, kept as an oracle."""
    n = order + 1
    fc, pc = f.coeffs[:n], psi.coeffs[:n]
    acc = np.zeros(n, dtype=np.complex128)
    acc[0] = fc[-1]
    for m in range(len(fc) - 2, -1, -1):
        acc = np.convolve(acc, pc)[:n]
        acc[0] += fc[m]
    return acc


def assert_matches_horner(f, psi, order):
    got = compose(f, psi, order).coeffs
    want = horner_compose(f, psi, order)
    assert got.shape == want.shape == (order + 1,)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def random_pair(rng, f_len, psi_len):
    """Random complex f and a Schwarz-like psi (psi(0) = 0, sum |psi_m| = 1)."""
    f = rng.normal(size=f_len) + 1j * rng.normal(size=f_len)
    psi = rng.normal(size=psi_len) + 1j * rng.normal(size=psi_len)
    psi[0] = 0.0
    if psi_len > 1:
        psi /= np.sum(np.abs(psi))
    return PowerSeries(f), PowerSeries(psi)


class TestComposeAgainstHorner:
    """Baby-step/giant-step compose agrees with Horner to 1e-13 (max-norm relative)."""

    @pytest.mark.parametrize("order", range(61))
    def test_random_inputs_at_every_order(self, order):
        # covers square (0, 3, 8, ..., 48) and non-square order + 1
        rng = np.random.default_rng(order)
        assert_matches_horner(*random_pair(rng, order + 1, order + 1), order)

    @pytest.mark.parametrize(
        "f_len, psi_len, order", [(7, 40, 39), (40, 4, 39), (7, 4, 30), (1, 5, 9), (17, 2, 50)]
    )
    def test_short_inputs_and_order_above_both(self, f_len, psi_len, order):
        rng = np.random.default_rng([f_len, psi_len, order])
        assert_matches_horner(*random_pair(rng, f_len, psi_len), order)

    @pytest.mark.parametrize("j", [1, 2, 3, 7])
    def test_monomial_inner(self, j):
        c = 0.6 * np.exp(0.7j)
        f = PowerSeries(np.arange(1.0, 52.0))
        psi = PowerSeries(np.r_[np.zeros(j), c]).truncated(50)
        assert_matches_horner(f, psi, 50)
        # f(c z^j) puts f_k c^k at slot k j and nothing elsewhere
        want = np.zeros(51, dtype=np.complex128)
        k = np.arange(0, 50 // j + 1)
        want[k * j] = f.coeffs[k] * c**k
        assert np.allclose(compose(f, psi, 50).coeffs, want, rtol=1e-13, atol=0.0)

    def test_campaign_maps_over_200_seeds(self):
        m = np.arange(0.0, 201.0)
        maps = (PowerSeries(m), PowerSeries(np.minimum(m, 1.0)))  # Koebe, half-plane
        for seed in range(200):
            psi = random_schwarz(seed, 1 + seed % 8).series
            for f in maps:
                assert_matches_horner(f, psi, 200)

    @pytest.mark.parametrize("order", [0, 1, 5, 24, 25, 37])
    def test_truncation_exact(self, order):
        rng = np.random.default_rng([order, 1])
        f, psi = random_pair(rng, 60, 45)
        cut = compose(f.truncated(order), psi.truncated(order), order)
        assert compose(f, psi, order) == cut
        assert compose(f, psi) == compose(f.truncated(psi.order), psi)


class TestHarmonicMap:
    def test_requires_matching_orders(self):
        with pytest.raises(ValueError):
            HarmonicMap(PowerSeries([0.0, 1.0]), PowerSeries([0.0]))

    def test_requires_g0_zero(self):
        with pytest.raises(ValueError):
            HarmonicMap(PowerSeries([0.0, 1.0]), PowerSeries([0.5, 0.0]))

    def test_normalization_flag(self):
        f = HarmonicMap(PowerSeries([0.0, 1.0]), PowerSeries([0.0, 0.5]))
        assert f.h.coeffs[0] == 0.0 and f.h.coeffs[1] == 1.0
        g = HarmonicMap(PowerSeries([0.0, 2.0]), PowerSeries([0.0, 0.5]))
        assert g.h.coeffs[1] != 1.0

    def test_coefficient_moduli(self):
        f = HarmonicMap(PowerSeries([0.0, 1.0, -2.0]), PowerSeries([0.0, 3.0j, 0.0]))
        assert np.array_equal(f.coefficient_moduli(), [0.0, 4.0, 2.0])

    def test_eval_is_h_plus_conj_g(self):
        f = HarmonicMap(PowerSeries([0.0, 1.0]), PowerSeries([0.0, 0.5]))
        z = 0.2 + 0.1j
        assert eval_harmonic(f, z) == pytest.approx(z + np.conj(0.5 * z))


class TestCircleGrid:
    def test_shape_and_radius(self):
        pts = circle_grid(0.5, 32)
        assert pts.shape == (32,)
        assert np.allclose(np.abs(pts), 0.5)

    def test_first_point_real(self):
        assert circle_grid(0.25, 8)[0] == 0.25

    def test_rejects_radius_one(self):
        with pytest.raises(ValueError):
            circle_grid(1.0, 8)
