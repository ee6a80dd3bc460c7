"""Dilatation-coupled coefficient construction."""

import numpy as np
import pytest

from bohrmap import (
    HarmonicMap,
    MobiusDilatation,
    MonomialDilatation,
    PowerSeries,
    RadiusProblem,
    circle_grid,
    dilatation_residual,
    evaluate,
    g_from_mobius,
    g_from_monomial,
    make_map,
    NamedMap,
    term_differentiate,
)


def divide_series(numer, denom, order):
    # back-substitution oracle for q = numer/denom, independent of the
    # recurrence under test
    nc = np.asarray(numer, dtype=np.complex128)
    dc = np.asarray(denom, dtype=np.complex128)
    assert dc[0] != 0
    q = np.zeros(order + 1, dtype=np.complex128)
    for m in range(order + 1):
        acc = nc[m] if m < len(nc) else 0.0
        for j in range(1, m + 1):
            if j < len(dc):
                acc -= dc[j] * q[m - j]
        q[m] = acc / dc[0]
    return q


def g_by_integration(h, w, order):
    # g = integral of w(z) h'(z), computed termwise; independent oracle
    hp = term_differentiate(h).truncated(order)
    a = w.a
    if w.variant == "plus":
        numer_w = [a, 1.0]
        denom_w = [1.0, a]
    else:
        numer_w = [a, -1.0]
        denom_w = [1.0, -a]
    wq = divide_series(numer_w, denom_w, order)
    gp = np.convolve(wq, hp.coeffs)[: order + 1]
    out = np.zeros(order + 1, dtype=np.complex128)
    out[1:] = gp[:-1] / np.arange(1.0, order + 1.0)
    return out


# (parameter, bad value, message); each class that takes the parameter
# must refuse the value with the same words
BAD_PARAMS = [
    ("k", 0.0, "k must lie in (0, 1]"),
    ("k", 1.5, "k must lie in (0, 1]"),
    ("k", np.nan, "k must lie in (0, 1]"),
    ("n", 0, "n must be an integer >= 1"),
    ("n", 1.5, "n must be an integer >= 1"),
    ("a", 1.0, "a must lie in (-1, 1)"),
    ("a", -1.0, "a must lie in (-1, 1)"),
    ("a", np.nan, "a must lie in (-1, 1)"),
]

BUILDERS = {
    "k": [
        lambda v: RadiusProblem("thm24_monomial", k=v, n=1),
        lambda v: MonomialDilatation(k=v),
    ],
    "n": [
        lambda v: RadiusProblem("thm24_monomial", k=0.5, n=v),
        lambda v: RadiusProblem("cor25_monomial", n=v),
        lambda v: MonomialDilatation(k=0.5, n=v),
    ],
    "a": [
        lambda v: RadiusProblem("thm27_mobius").bound(mobius_a=v),
        lambda v: MobiusDilatation(a=v),
    ],
}


@pytest.mark.parametrize("name, value, message", BAD_PARAMS)
def test_parameter_domains_agree(name, value, message):
    for build in BUILDERS[name]:
        with pytest.raises(ValueError) as info:
            build(value)
        assert str(info.value) == message


class TestMonomialDilatation:
    def test_validation(self):
        with pytest.raises(ValueError):
            MonomialDilatation(k=0.0)
        with pytest.raises(ValueError):
            MonomialDilatation(k=1.5)
        with pytest.raises(ValueError):
            MonomialDilatation(k=0.5, n=0)

    def test_callable(self):
        w = MonomialDilatation(k=0.5, theta=np.pi / 2, n=2)
        assert w(0.3) == pytest.approx(0.5j * 0.09)

    def test_theta_stored_mod_2pi(self):
        w = MonomialDilatation(k=0.5, theta=2 * np.pi + 0.25)
        assert w.theta == pytest.approx(0.25)


class TestMobiusDilatation:
    def test_validation(self):
        with pytest.raises(ValueError):
            MobiusDilatation(a=1.0)
        with pytest.raises(ValueError):
            MobiusDilatation(a=0.5, variant="times")

    def test_plus_and_minus_values(self):
        a = 0.3
        z = 0.2
        assert MobiusDilatation(a, "plus")(z) == pytest.approx((a + z) / (1 + a * z))
        assert MobiusDilatation(a, "minus")(z) == pytest.approx((a - z) / (1 - a * z))

    def test_unimodular_on_circle(self):
        w = MobiusDilatation(0.7, "plus")
        z = np.exp(0.4j)
        assert abs(w(z)) == pytest.approx(1.0)


class TestMonomialConstruction:
    def test_koebe_k1_n1_matches_known_coefficients(self):
        h = make_map(NamedMap("koebe_analytic", order=50)).h
        f = g_from_monomial(h, MonomialDilatation(k=1.0, n=1))
        # b_{m+1} = m/(m+1) * a_m with a_m = m gives b_2 = 1/2, b_3 = 4/3
        assert f.g.coeffs[1] == 0.0
        assert f.g.coeffs[2] == pytest.approx(0.5)
        assert f.g.coeffs[3] == pytest.approx(4.0 / 3.0)

    def test_matches_catalog_f0(self):
        h = make_map(NamedMap("koebe_analytic", order=200)).h
        built = g_from_monomial(h, MonomialDilatation(k=1.0, n=1))
        f0 = make_map(NamedMap("f0_sharp", order=200))
        assert np.allclose(built.g.coeffs, f0.g.coeffs, atol=1e-12)
        # b_m = (m-1)^2/m exactly
        m = np.arange(2.0, 201.0)
        assert np.allclose(built.g.coeffs[2:], (m - 1) ** 2 / m, rtol=1e-15)

    def test_rotated_monomial(self):
        h = make_map(NamedMap("koebe_analytic", order=20)).h
        w = MonomialDilatation(k=1.0 / 3.0, theta=np.pi / 2, n=2)
        f = g_from_monomial(h, w)
        # b_{m+2} = k e^{i theta} m/(m+2) a_m: b_4 = (i/3)(2/4)(2) = i/3
        assert f.g.coeffs[3] == pytest.approx(1j / 3.0 * (1.0 / 3.0) * 1.0)
        assert f.g.coeffs[4] == pytest.approx(1j / 3.0)

    def test_residual_small(self):
        h = make_map(NamedMap("koebe_analytic", order=500)).h
        w = MonomialDilatation(k=0.5, theta=0.7, n=3)
        f = g_from_monomial(h, w)
        pts = circle_grid(0.5, 64)
        assert dilatation_residual(f, w, pts) < 1e-10

    def test_requires_normalized_h(self):
        h = PowerSeries([0.0, 2.0, 0.0])
        with pytest.raises(ValueError):
            g_from_monomial(h, MonomialDilatation(k=1.0))

    def test_requires_enough_order(self):
        h = PowerSeries([0.0, 1.0])
        with pytest.raises(ValueError):
            g_from_monomial(h, MonomialDilatation(k=1.0, n=2))


class TestMobiusConstruction:
    @pytest.mark.parametrize("a", [-0.9, -0.5, 0.0, 0.3, 0.7])
    @pytest.mark.parametrize("variant", ["plus", "minus"])
    def test_matches_division_oracle(self, a, variant):
        h = make_map(NamedMap("koebe_analytic", order=60)).h
        w = MobiusDilatation(a, variant)
        f = g_from_mobius(h, w)
        oracle = g_by_integration(h, w, 50)
        for m in range(51):
            scale = max(1.0, abs(oracle[m]))
            assert abs(f.g.coeffs[m] - oracle[m]) <= 1e-12 * scale

    def test_identity_h_closed_forms(self):
        # h = z: g' = w(z), so b_m are the Taylor coefficients of w,
        # integrated: plus gives b_1 = a, b_2 = (1-a^2)/2, b_3 = -a(1-a^2)/3
        a = 0.4
        h = PowerSeries([0.0, 1.0]).truncated(6)
        plus = g_from_mobius(h, MobiusDilatation(a, "plus")).g.coeffs
        minus = g_from_mobius(h, MobiusDilatation(a, "minus")).g.coeffs
        assert plus[1] == pytest.approx(a)
        assert plus[2] == pytest.approx((1 - a * a) / 2)
        assert plus[3] == pytest.approx(-a * (1 - a * a) / 3)
        assert minus[1] == pytest.approx(a)
        assert minus[2] == pytest.approx(-(1 - a * a) / 2)
        assert minus[3] == pytest.approx(-a * (1 - a * a) / 3)

    def test_identity_h_moduli_agree_across_variants(self):
        # for h = z the two sign variants have equal |b_m| for every m
        a = 0.6
        h = PowerSeries([0.0, 1.0]).truncated(40)
        plus = g_from_mobius(h, MobiusDilatation(a, "plus")).g.coeffs
        minus = g_from_mobius(h, MobiusDilatation(a, "minus")).g.coeffs
        assert np.allclose(np.abs(plus), np.abs(minus), atol=1e-15)

    def test_moduli_differ_for_koebe(self):
        # the variant symmetry does not survive general h
        h = make_map(NamedMap("koebe_analytic", order=10)).h
        a = 0.4
        plus = g_from_mobius(h, MobiusDilatation(a, "plus")).g.coeffs
        minus = g_from_mobius(h, MobiusDilatation(a, "minus")).g.coeffs
        assert abs(plus[2]) > abs(minus[2]) + 0.5

    @pytest.mark.parametrize("variant", ["plus", "minus"])
    def test_residual_small(self, variant):
        h = make_map(NamedMap("half_plane_analytic", order=400)).h
        w = MobiusDilatation(0.3, variant)
        f = g_from_mobius(h, w)
        pts = circle_grid(0.5, 64)
        assert dilatation_residual(f, w, pts) < 1e-10

    def test_b1_is_a_times_a1(self):
        h = make_map(NamedMap("koebe_analytic", order=8)).h
        for variant in ("plus", "minus"):
            f = g_from_mobius(h, MobiusDilatation(0.25, variant))
            assert f.g.coeffs[1] == pytest.approx(0.25)


class TestDilatationResidual:
    def test_zero_for_exact_pair(self):
        h = PowerSeries([0.0, 1.0, 0.0, 0.0])
        g = PowerSeries([0.0, 0.0, 0.25, 0.0])  # g' = z/2 = w(z) h'(z)
        f = HarmonicMap(h, g)
        w = MonomialDilatation(k=0.5, n=1)
        pts = circle_grid(0.3, 16)
        assert dilatation_residual(f, w, pts) < 1e-15

    def test_detects_mismatch(self):
        h = PowerSeries([0.0, 1.0, 0.0])
        g = PowerSeries([0.0, 0.5, 0.0])  # g' = 1/2, not 0.5 z
        f = HarmonicMap(h, g)
        w = MonomialDilatation(k=0.5, n=1)
        assert dilatation_residual(f, w, circle_grid(0.3, 16)) > 0.3


class TestQuasiconformality:
    def test_dilatation_modulus_bounded_by_k(self):
        k = 0.5
        pts = circle_grid(0.9, 128)
        h = make_map(NamedMap("koebe_analytic", order=2000)).h
        f = g_from_monomial(h, MonomialDilatation(k=k, n=1))
        hp = evaluate(term_differentiate(f.h), pts)
        gp = evaluate(term_differentiate(f.g), pts)
        assert np.max(np.abs(gp / hp)) <= k + 1e-9
