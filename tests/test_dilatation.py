"""Dilatation-coupled coefficient construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bohrmap import (
    HarmonicMap,
    MobiusDilatation,
    MonomialDilatation,
    PowerSeries,
    circle_grid,
    dilatation_residual,
    evaluate,
    g_from_mobius,
    g_from_monomial,
    make_map,
    NamedMap,
    term_differentiate,
)
from bohrmap.catalog import MAP_TABLE
from test_series import assert_same_bits, horner_one_row


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


def with_real(h, m, real):
    c = np.array(h.coeffs)
    c.real[m] = real
    return PowerSeries(c)


KOEBE_40 = make_map(NamedMap("koebe_analytic", order=40)).h


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

    @pytest.mark.parametrize("variant", ["plus", "minus"])
    def test_overflow_is_refused(self, variant):
        # a_12 = 1e308 makes t a_12 and so b_12 infinite, and the series
        # built from that b is refused
        h = with_real(KOEBE_40, 12, 1e308)
        with pytest.raises(ValueError, match="series coefficients must be finite"):
            g_from_mobius(h, MobiusDilatation(0.9, variant))


def mobius_numpy_scalar_loop(h, a, variant):
    # reference recurrence on numpy complex scalars, one coefficient at a time
    ac = h.coeffs
    b = np.zeros(len(ac), dtype=np.complex128)
    b[1] = a * ac[1]
    sign = 1.0 if variant == "plus" else -1.0
    with np.errstate(all="ignore"):
        for m in range(2, len(ac)):
            b[m] = (a * m * ac[m] + sign * (m - 1) * (ac[m - 1] - a * b[m - 1])) / m
    return b


def assert_same_nonzero_bits(got, want):
    # equal values, and the same bits in every part that is not a zero; the
    # sign of a zero part is not promised
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    for part in ("real", "imag"):
        g, w = getattr(got, part), getattr(want, part)
        assert g[w != 0].tobytes() == w[w != 0].tobytes()


def residual_two_calls(f, w, points):
    # reference residual: one Horner loop for h' and one for g'
    pts = np.atleast_1d(np.asarray(points, dtype=np.complex128))
    hp = horner_one_row(term_differentiate(f.h).coeffs, pts)
    gp = horner_one_row(term_differentiate(f.g).coeffs, pts)
    return float(np.max(np.abs(gp - np.asarray(w(pts), dtype=np.complex128) * hp)))


def normalized_random_h(rng, order):
    c = rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)
    c[0], c[1] = 0.0, 1.0
    return PowerSeries(c)


MOBIUS_A = [0.0, -0.0, 0.3, -0.7, 0.95, -0.999, 1e-300]

# signed zeros and small integers, so that products and sums come out zero
# in every combination of signs, the extremes of the property's magnitudes,
# and the largest double, whose products overflow
SPARSE_PARTS = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, 1e-300, -1e300, np.finfo(float).max]
parts = st.one_of(
    st.sampled_from(SPARSE_PARTS),
    st.floats(1e-300, 1e300),
    st.floats(-1e300, -1e-300),
)
signed_zeros = st.sampled_from([0.0, -0.0])


@st.composite
def mobius_cases(draw):
    # a normalized h, real (every imaginary part a zero of either sign) or
    # complex, and a from the signed zeros, +-1e-300 or anywhere in (-1, 1)
    n = draw(st.integers(1, 30))
    c = np.empty(n + 1, dtype=np.complex128)
    c.real = draw(st.lists(parts, min_size=n + 1, max_size=n + 1))
    c.imag = draw(st.lists(draw(st.sampled_from([parts, signed_zeros])), min_size=n + 1, max_size=n + 1))
    c[0], c[1] = 0.0, complex(1.0, draw(signed_zeros))
    a = draw(st.one_of(st.sampled_from([0.0, -0.0, 1e-300, -1e-300]),
                       st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)))
    return PowerSeries(c), a, draw(st.sampled_from(["plus", "minus"]))


class TestBitsAgainstFrozenLoops:
    """The Mobius recurrence keeps every nonzero bit of the numpy-scalar one,
    and every byte for a catalog h; the shared Horner chain keeps every bit."""

    @pytest.mark.parametrize("order", [2, 60, 500, 2000])
    @pytest.mark.parametrize("record", MAP_TABLE, ids=lambda r: r.name)
    def test_mobius_catalog_h_keeps_every_byte(self, record, order):
        # signed zeros included, so no demo, selfcheck or CLI figure can move
        k = 0.5 if record.parametric else None
        h = make_map(NamedMap(record.name, k=k, order=order)).h
        for a in MOBIUS_A + [0.9, -0.9]:
            for variant in ("plus", "minus"):
                got = g_from_mobius(h, MobiusDilatation(a, variant)).g.coeffs
                assert_same_bits(got, mobius_numpy_scalar_loop(h, a, variant))

    @given(mobius_cases())
    @settings(max_examples=300, deadline=None)
    def test_mobius_matches_the_reference_or_both_refuse(self, case):
        h, a, variant = case
        want = mobius_numpy_scalar_loop(h, a, variant)
        if np.isfinite(want).all():
            got = g_from_mobius(h, MobiusDilatation(a, variant)).g.coeffs
            assert_same_nonzero_bits(got, want)
        else:
            with pytest.raises(ValueError, match="series coefficients must be finite"):
                g_from_mobius(h, MobiusDilatation(a, variant))

    @pytest.mark.parametrize("variant", ["plus", "minus"])
    def test_mobius_complex_random_h_at_order_2000(self, variant):
        rng = np.random.default_rng(2000)
        h = normalized_random_h(rng, 2000)
        for a in MOBIUS_A + list(rng.uniform(-1.0, 1.0, 4)):
            got = g_from_mobius(h, MobiusDilatation(a, variant)).g.coeffs
            assert_same_nonzero_bits(got, mobius_numpy_scalar_loop(h, a, variant))

    @pytest.mark.parametrize("variant", ["plus", "minus"])
    @pytest.mark.parametrize("imag", [0.0, -0.0])
    def test_mobius_real_random_h(self, variant, imag):
        # real parts of either sign against imaginary zeros of one sign
        rng = np.random.default_rng(7)
        c = rng.standard_normal(400).astype(np.complex128)
        c.imag = imag
        c[0], c[1] = 0.0, complex(1.0, imag)
        h = PowerSeries(c)
        for a in MOBIUS_A + list(rng.uniform(-1.0, 1.0, 4)):
            got = g_from_mobius(h, MobiusDilatation(a, variant)).g.coeffs
            assert_same_nonzero_bits(got, mobius_numpy_scalar_loop(h, a, variant))

    @pytest.mark.parametrize("variant", ["plus", "minus"])
    def test_mobius_zero_coefficients(self, variant):
        c = np.zeros(40, dtype=np.complex128)
        c[1], c[3], c[4], c[7] = 1.0, complex(-0.0, -2.0), complex(-3.0, -0.0), -0.0
        h = PowerSeries(c)
        for a in MOBIUS_A + [0]:
            got = g_from_mobius(h, MobiusDilatation(a, variant)).g.coeffs
            assert_same_nonzero_bits(got, mobius_numpy_scalar_loop(h, a, variant))

    def test_mobius_sparse_signed_parts(self):
        # parts drawn from signed zeros and small integers, so that products
        # and sums come out zero in every combination of signs
        rng = np.random.default_rng(11)
        parts = np.array([0.0, -0.0, 1.0, -1.0, 2.0])
        for _ in range(400):
            c = rng.choice(parts, 30) + 1j * rng.choice(parts, 30)
            c[0], c[1] = 0.0, 1.0
            h = PowerSeries(c)
            for a in (0.0, -0.0, 0.5, -0.5):
                for variant in ("plus", "minus"):
                    got = g_from_mobius(h, MobiusDilatation(a, variant)).g.coeffs
                    assert_same_nonzero_bits(got, mobius_numpy_scalar_loop(h, a, variant))

    def test_mobius_sparse_real_parts(self):
        # +0.0 imaginary parts send h to the float loop, whose zero parts and
        # a = +-0 or +-1e-300 give zeros of either sign
        rng = np.random.default_rng(12)
        parts = np.array([0.0, -0.0, 1.0, -1.0, 2.0, 0.5])
        for _ in range(400):
            c = rng.choice(parts, 12).astype(np.complex128)
            c[0], c[1] = 0.0, 1.0
            h = PowerSeries(c)
            for a in (0.0, -0.0, 1e-300, -1e-300, 0.5, -0.5):
                for variant in ("plus", "minus"):
                    got = g_from_mobius(h, MobiusDilatation(a, variant)).g.coeffs
                    assert_same_nonzero_bits(got, mobius_numpy_scalar_loop(h, a, variant))

    def test_mobius_order_one(self):
        h = PowerSeries([0.0, 1.0])
        got = g_from_mobius(h, MobiusDilatation(-0.5)).g.coeffs
        assert_same_nonzero_bits(got, mobius_numpy_scalar_loop(h, -0.5, "plus"))

    @pytest.mark.parametrize("points", [1, 2, 3, 64, 130])
    def test_residual_matches_two_calls(self, points):
        rng = np.random.default_rng(points)
        pts = circle_grid(0.5, points)
        for variant in ("plus", "minus"):
            w = MobiusDilatation(float(rng.uniform(-0.9, 0.9)), variant)
            f = g_from_mobius(normalized_random_h(rng, 2000), w)
            assert dilatation_residual(f, w, pts) == residual_two_calls(f, w, pts)
        f = g_from_monomial(make_map(NamedMap("koebe_analytic", order=500)).h,
                            MonomialDilatation(0.5, 1.0, 2))
        w = MonomialDilatation(0.5, 1.0, 2)
        assert dilatation_residual(f, w, pts) == residual_two_calls(f, w, pts)

    def test_residual_at_a_scalar_point(self):
        f = g_from_mobius(make_map(NamedMap("koebe_analytic", order=200)).h,
                          MobiusDilatation(0.4))
        w = MobiusDilatation(0.4)
        for z in (0.3, 0.1 + 0.45j):
            assert dilatation_residual(f, w, z) == residual_two_calls(f, w, z)


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

    @pytest.mark.parametrize("points", [[], np.zeros(0), np.zeros((0, 3))])
    def test_refuses_an_empty_point_set(self, points):
        # a max over no points has no value; numpy's own error named no argument
        w = MobiusDilatation(0.3)
        f = g_from_mobius(KOEBE_40, w)
        with pytest.raises(ValueError, match="points is empty"):
            dilatation_residual(f, w, points)


class TestQuasiconformality:
    def test_dilatation_modulus_bounded_by_k(self):
        k = 0.5
        pts = circle_grid(0.9, 128)
        h = make_map(NamedMap("koebe_analytic", order=2000)).h
        f = g_from_monomial(h, MonomialDilatation(k=k, n=1))
        hp = evaluate(term_differentiate(f.h), pts)
        gp = evaluate(term_differentiate(f.g), pts)
        assert np.max(np.abs(gp / hp)) <= k + 1e-9
