"""Truncated power series arithmetic."""

import copy
import dataclasses
import gc
import importlib
import math
import os
import pickle
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bohrmap
from bohrmap import series, subordination
from bohrmap import (
    PowerSeries,
    cauchy_product,
    circle_grid,
    compose,
    eval_harmonic,
    evaluate,
    evaluate_on_circle,
    HarmonicMap,
    NamedMap,
    make_map,
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


def horner_one_row(coeffs, z):
    # reference Horner loop: one series at a time, two numpy calls a term
    zs = np.asarray(z, dtype=np.complex128)
    acc = np.full(zs.shape, coeffs[-1], dtype=np.complex128)
    for m in range(len(coeffs) - 2, -1, -1):
        acc = acc * zs + coeffs[m]
    return acc[()]


def assert_same_bits(got, want):
    # array_equal, and also the raw bytes, so that signed zeros count
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def random_coeffs(rng, length):
    return rng.standard_normal(length) + 1j * rng.standard_normal(length)


def random_points(rng, shape):
    return 0.95 * (rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)) / np.sqrt(2)


POINT_SHAPES = [(), (1,), (3, 5)] + [(n,) for n in range(2, 131)]
# the one-row loop takes a few ms a shape at order 2000
LONG_POINT_SHAPES = [(), (1,), (2,), (3,), (64,), (130,), (3, 5)]


def point_shapes(length):
    return POINT_SHAPES if length <= 64 else LONG_POINT_SHAPES


class TestRowsKernelBits:
    """Several rows in one chain give each row's one-at-a-time bits."""

    @pytest.mark.parametrize("length", [1, 2, 3, 64, 2001])
    def test_evaluate_matches_the_one_row_loop(self, length):
        rng = np.random.default_rng(length)
        f = PowerSeries(random_coeffs(rng, length))
        for shape in point_shapes(length):
            z = random_points(rng, shape)
            assert_same_bits(evaluate(f, z), horner_one_row(f.coeffs, z))

    def test_python_scalar_points(self):
        f = PowerSeries(random_coeffs(np.random.default_rng(1), 300))
        for z in (0.3, 0.2 - 0.7j, -0.5j, 0):
            assert_same_bits(evaluate(f, z), horner_one_row(f.coeffs, z))

    @pytest.mark.parametrize("length", [1, 2, 64, 2001])
    def test_eval_harmonic_matches_two_calls(self, length):
        rng = np.random.default_rng(10 + length)
        g = random_coeffs(rng, length)
        g[0] = 0.0
        f = HarmonicMap(PowerSeries(random_coeffs(rng, length)), PowerSeries(g))
        for shape in point_shapes(length):
            z = random_points(rng, shape)
            want = horner_one_row(f.h.coeffs, z) + np.conj(horner_one_row(f.g.coeffs, z))
            assert_same_bits(eval_harmonic(f, z), want)

    @pytest.mark.parametrize("table_values", [1, 2, 7, 39, 195, 4096])
    def test_any_block_size_gives_the_same_bits(self, monkeypatch, table_values):
        # blocks of one term, of a few, of all 130 steps, and at one point
        # (3 values) blocks of 13 and 65 steps that split the 130 evenly
        monkeypatch.setattr(series, "_ROWS_TABLE_VALUES", table_values)
        rng = np.random.default_rng(table_values)
        rows = [random_coeffs(rng, 131) for _ in range(3)]
        for shape in [(), (1,), (2,), (65,), (3, 5)]:
            z = random_points(rng, shape)
            got = series._evaluate_rows(rows, z)
            assert got.shape == (3,) + shape
            for row, values in zip(rows, got):
                assert_same_bits(values[()], horner_one_row(row, z))

    def test_signed_zero_coefficients(self):
        c = np.array([-0.0, complex(0.0, -0.0), complex(-0.0, -0.0), 0.0], dtype=np.complex128)
        f = PowerSeries(c)
        for z in (0.0, -0.0, complex(-0.0, 0.5), np.array([0.0, -0.0, 0.5, -0.5j])):
            assert_same_bits(evaluate(f, z), horner_one_row(f.coeffs, z))

    def test_no_points(self):
        f = PowerSeries([1.0, 2.0, 3.0])
        assert evaluate(f, np.zeros(0)).shape == (0,)
        assert series._evaluate_rows([f.coeffs] * 2, np.zeros((0, 3))).shape == (2, 0, 3)


def complex_from_parts(re, im):
    # x + 1j * y would turn a -0.0 imaginary part into +0.0; this keeps it
    out = np.empty(np.broadcast(re, im).shape, dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def coefficient_row(kind, rng, length):
    m = np.arange(length, dtype=np.float64)
    if kind == "complex":
        row = random_coeffs(rng, length)
    elif kind == "real, +0.0 imaginary parts":
        row = complex_from_parts(rng.standard_normal(length), 0.0)
    elif kind == "real, signed-zero imaginary parts":
        row = complex_from_parts(rng.standard_normal(length), np.where(rng.random(length) < 0.5, 0.0, -0.0))
    elif kind == "growing like m^2":
        row = complex_from_parts((m + 1.0) ** 2 * rng.choice([-1.0, 1.0]), 0.0)
    elif kind == "constant":
        row = np.full(length, random_coeffs(rng, 1)[0])
    else:  # sparse
        row = np.zeros(length, dtype=np.complex128)
        at = rng.integers(0, length, max(1, length // 50))
        row[at] = random_coeffs(rng, len(at))
        row[0] = random_coeffs(rng, 1)[0]
    return row


COEFFICIENT_KINDS = [
    "complex", "real, +0.0 imaginary parts", "real, signed-zero imaginary parts",
    "growing like m^2", "constant", "sparse",
]


def chain_points(kind, rng, shape, radius):
    n = int(np.prod(shape, dtype=int))
    if kind == "real axis":
        z = complex_from_parts(radius * rng.uniform(-1.0, 1.0, n), 0.0)
    elif kind == "imaginary axis":
        z = complex_from_parts(0.0, radius * rng.uniform(-1.0, 1.0, n))
    elif kind == "zeros":
        z = complex_from_parts(rng.choice([0.0, -0.0], n), rng.choice([0.0, -0.0], n))
    elif kind == "kappa >= 1":
        # inside the unit disk, but |Re z| + |Im z| >= 1
        angle = rng.uniform(0.3, 1.27, n) + np.pi / 2 * rng.integers(0, 4, n)
        z = rng.uniform(0.75, 0.99, n) * np.exp(1j * angle)
    else:  # disk
        z = radius * np.sqrt(rng.uniform(0.0, 1.0, n)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
    # a circle_grid-like real first point and the rest drawn
    if kind == "disk" and n > 1:
        z[0] = radius
    return z.reshape(shape)


POINT_KINDS = ["disk", "real axis", "imaginary axis", "zeros", "kappa >= 1"]


@st.composite
def chain_inputs(draw):
    """Rows of one length and points, over coefficient kinds, scales and point kinds."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    length = draw(st.sampled_from([1, 2, 5, 300, 800, 2001, 2501]) | st.integers(1, 2501))
    kind = draw(st.sampled_from(COEFFICIENT_KINDS))
    scale = 10.0 ** draw(st.sampled_from([-300, 0, 300]) | st.integers(-300, 300))
    rows = [coefficient_row(kind, rng, length) for _ in range(draw(st.integers(1, 3)))]
    # each row scaled to its largest modulus, so that no chain overflows at |z| <= 0.99
    rows = [row * (scale / max(np.abs(row).max(), 1e-300)) for row in rows]
    shape = draw(st.sampled_from([(), (1,), (2,), (7,), (3, 4)]))
    radius = draw(st.sampled_from([0.05, 0.3, 0.5, 0.9, 0.99]) | st.floats(0.0, 0.99))
    z = chain_points(draw(st.sampled_from(POINT_KINDS)), rng, shape, radius)
    return rows, z


class TestChainBits:
    """The chain's bits over signed zeros, extreme scales, axes and lone points."""

    def test_each_element_has_the_same_bits_at_every_length_and_offset(self):
        # the chain multiplies its accumulator in place, whatever the number
        # of values it holds; a lone element multiplied in place takes
        # another loop, which is why a lone value runs as two copies of itself
        rng = np.random.default_rng(21)
        x, z = random_coeffs(rng, 64), random_coeffs(rng, 64)
        want = (x * z).tobytes()
        for n in range(2, 65):
            for offset in range(8):
                xs, zs, out = (np.empty(n + offset, dtype=np.complex128)[offset:] for _ in range(3))
                xs[:], zs[:] = x[:n], z[:n]
                np.multiply(xs, zs, out)
                xs *= zs
                for got in (xs, out):
                    assert got.tobytes() == want[: 16 * n], (n, offset)

    @given(chain_inputs())
    @settings(max_examples=150, deadline=None)
    def test_rows_kernel_matches_the_one_row_loop(self, case):
        rows, z = case
        got = series._evaluate_rows(rows, z)
        for row, values in zip(rows, got):
            assert_same_bits(values[()], horner_one_row(row, z))

    @pytest.mark.parametrize("kind", COEFFICIENT_KINDS)
    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
    def test_each_coefficient_kind_keeps_its_bits(self, kind, scale):
        rng = np.random.default_rng(len(kind))
        rows = [coefficient_row(kind, rng, 2001) for _ in range(2)]
        rows = [row * (scale / np.abs(row).max()) for row in rows]
        z = np.concatenate([chain_points(k, rng, (6,), 0.5) for k in POINT_KINDS])
        for row, values in zip(rows, series._evaluate_rows(rows, z)):
            assert_same_bits(values, horner_one_row(row, z))

    @pytest.mark.parametrize("z", [0.3, 0.3 - 0.2j, -0.25j, -0.0])
    def test_a_lone_point_keeps_its_bits(self, z):
        f = PowerSeries(random_coeffs(np.random.default_rng(23), 2001))
        assert_same_bits(evaluate(f, z), horner_one_row(f.coeffs, z))

    @pytest.mark.parametrize("samples", [32, 64])
    @pytest.mark.parametrize("radius", [0.3, 0.5])
    def test_circle_points_near_the_real_axis_keep_their_bits(self, radius, samples):
        # circle_grid's point at angle pi has Im z about 1e-17 r, and a real
        # row's value there an imaginary part about as small
        row = (np.arange(2001.0) + 1.0) ** 2 + 0j
        z = circle_grid(radius, samples)
        assert abs(z[samples // 2].imag) < 1e-16
        assert_same_bits(evaluate(PowerSeries(row), z), horner_one_row(row, z))

    @pytest.mark.parametrize("at", ["top", "bottom"])
    def test_real_point_with_one_complex_coefficient(self, at):
        # one nonzero imaginary part in a real row makes Im f(z) nonzero at
        # a real z, wherever in the chain it is added
        rng = np.random.default_rng(25)
        row = complex_from_parts(rng.uniform(-1.0, 1.0, 1201), 0.0)
        row[1200 if at == "top" else 1] += 0.5j
        z = np.array([0.6, -0.6, 0.7, 0.3 + 0.35j, -0.1j])
        got = evaluate(PowerSeries(row), z)
        assert_same_bits(got, horner_one_row(row, z))
        assert np.all(got[:3].imag != 0.0)

    def test_a_zero_part_keeps_its_sign(self):
        # at z = 0 the value is c_0 after the chain's products with zero;
        # where c_0's part is -0.0 the value's sign is the chain's own.  Here
        # Im acc stays -0.0 all down the chain (negative real parts times
        # +0.0, plus -0.0)
        row = complex_from_parts(-1.0 - np.arange(41.0), -0.0)
        row[0] = complex(1.0, -0.0)
        z = np.array([0j])
        assert_same_bits(series._evaluate_rows([row], z)[0], horner_one_row(row, z))
        assert math.copysign(1.0, horner_one_row(row, z)[0].imag) == -1.0
        rng = np.random.default_rng(26)
        z = np.array([0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0)])
        for _ in range(40):
            rows = complex_from_parts(rng.integers(-2, 3, (3, 41)).astype(float),
                                      rng.choice([0.0, -0.0], (3, 41)))
            rows[:, 0] = complex_from_parts(rng.choice([-1.0, 1.0, 2.0], 3), -0.0)
            for row, values in zip(rows, series._evaluate_rows(rows, z)):
                assert_same_bits(values, horner_one_row(row, z))


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
            compose(f, PowerSeries([0.5, 1.0]), 1)

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
        top = min(f.order, psi.order)  # f's coefficients past psi's order do not matter
        assert compose(f, psi, top) == compose(f.truncated(psi.order), psi, top)



def _baby_and_giant(f, psi, order):
    """B_0(psi)..B_last(psi) as compose() builds them from the baby steps
    psi^0..psi^(s-1), with s and the giant step psi^s truncated to n."""
    n = order + 1
    fc, pc = f.coeffs[:n], psi.coeffs[:n]
    s = math.isqrt(len(fc))
    baby = np.zeros((s, n), dtype=np.complex128)
    baby[0, 0] = 1.0
    for i in range(1, s):
        baby[i] = np.convolve(baby[i - 1], pc)[:n]
    giant = np.convolve(baby[-1], pc)[:n]
    blocks = np.zeros(-(-len(fc) // s) * s, dtype=np.complex128)
    blocks[: len(fc)] = fc
    return blocks.reshape(-1, s) @ baby, s, giant


def uncached_compose(f, psi, order):
    """compose() without reuse: every call builds psi^0..psi^(s-1) and the
    (n - s) x (n - s) Toeplitz matrix of psi^s / z^s itself, and step j of
    Horner over psi^s keeps the n - js coefficients that reach the result.
    Reuse must reproduce it bit for bit."""
    n = order + 1
    inner, s, giant = _baby_and_giant(f, psi, order)
    padded = np.r_[np.zeros(n - s, dtype=np.complex128), giant[s:]]
    matrix = np.lib.stride_tricks.sliding_window_view(padded, n - s)[:0:-1].copy()
    acc = inner[-1][: n - (len(inner) - 1) * s]
    for j in range(len(inner) - 2, -1, -1):
        m = len(acc)
        acc = np.r_[inner[j][:s], inner[j][s : s + m] + acc @ matrix[:m, :m]]
    return acc


def convolve_step_compose(f, psi, order):
    """compose() as it was before its Horner step over psi^s became a
    matrix-vector product: each step is a full convolution, cut to n."""
    n = order + 1
    inner, _, giant = _baby_and_giant(f, psi, order)
    acc = inner[-1]
    for j in range(len(inner) - 2, -1, -1):
        acc = np.convolve(acc, giant)[:n] + inner[j]
    return acc


def assert_same_as_uncached(f, psi, order):
    got = compose(f, psi, order).coeffs
    want = uncached_compose(f, psi, order)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestComposeAgainstConvolveStep:
    """The matrix-vector Horner step agrees with the convolution step it
    replaced to 1e-14 (max-norm relative), on the campaign's series."""

    @staticmethod
    def worst_over(seeds, order):
        m = np.arange(0.0, order + 1.0)
        outer = [PowerSeries(m), PowerSeries(np.minimum(m, 1.0))]  # Koebe, half-plane
        outer += [make_map(NamedMap(name, k=0.6, order=order)).g for name in ("p_k", "q_k")]
        worst = 0.0
        for seed in seeds:
            psi = random_schwarz(seed, 1 + seed % 8, order=order).series
            for f in outer:
                got = compose(f, psi, order).coeffs
                want = convolve_step_compose(f, psi, order)
                worst = max(worst, np.max(np.abs(got - want)) / np.max(np.abs(want)))
        return worst

    def test_campaign_series_over_200_seeds(self):
        assert self.worst_over(range(200), 200) <= 1e-14

    def test_campaign_series_at_order_1000(self):
        # 32 Horner steps over psi^31, shrinking from 970 coefficients to 9
        assert self.worst_over((1, 4, 7), 1000) <= 1e-14


@pytest.fixture
def builds(monkeypatch):
    """(n, s) of every power table compose builds, with a weak reference to
    its giant-step matrix, in build order."""
    built, real = [], series._powers

    def counted(psi, n, s):
        baby, giant = real(psi, n, s)
        built.append(((n, s), weakref.ref(giant)))
        return baby, giant

    monkeypatch.setattr(series, "_powers", counted)
    return built


class TestPowerTableReuse:
    """A reused power table gives every composite bit for bit."""

    def test_interleaved_fs_orders_and_lengths(self, builds):
        rng = np.random.default_rng(7)
        f_long, psi = random_pair(rng, 61, 61)
        f_short, _ = random_pair(rng, 30, 1)
        first = {}
        # (order, len f) = (60, 61), (60, 30), (40, 61), (40, 30): s = 7, 5, 6, 5
        for _ in range(2):
            for order in (60, 40):
                for f in (f_long, f_short):
                    assert_same_as_uncached(f, psi, order)
                    assert_matches_horner(f, psi, order)
                    comp = first.setdefault((id(f), order), compose(f, psi, order))
                    assert compose(f, psi, order) is comp
        # each table is built by the first composite that needs it; every
        # later call finds the composite itself
        assert [key for key, _ in builds] == [(61, 7), (61, 5), (41, 6), (41, 5)]
        assert len(psi._memo) == 4 + 4

    def test_equal_valued_copy_of_inner_series(self, builds):
        rng = np.random.default_rng(8)
        f, psi = random_pair(rng, 50, 50)
        twin = PowerSeries(np.array(psi.coeffs))
        assert twin is not psi and twin == psi and hash(twin) == hash(psi)
        assert_same_as_uncached(f, psi, 49)
        assert_same_as_uncached(f, twin, 49)
        # the memo follows the object: the copy builds its own table
        assert [key for key, _ in builds] == [(50, 7), (50, 7)]
        assert compose(f, twin, 49) is not compose(f, psi, 49)
        assert twin._memo.keys() == psi._memo.keys()

    def test_campaign_bases_and_subordinates_over_200_seeds(self):
        m = np.arange(0.0, 201.0)
        outer = [PowerSeries(m), PowerSeries(np.minimum(m, 1.0))]  # Koebe, half-plane
        for name in ("p_k", "q_k"):
            f = make_map(NamedMap(name, k=0.6, order=200))
            outer += [f.h, f.g]
        for seed in range(200):
            psi = random_schwarz(seed, 1 + seed % 8).series
            for f in outer:
                assert_same_as_uncached(f, psi, 200)

    def test_signed_zeros_hash_alike_and_share_one_composite(self):
        neg, pos = PowerSeries([0.0, -0.0, 1.0]), PowerSeries([0.0, 0.0, 1.0])
        assert neg == pos and hash(neg) == hash(pos)
        assert PowerSeries([complex(-0.0, -0.0)]) == PowerSeries([0.0])
        assert hash(PowerSeries([complex(-0.0, -0.0)])) == hash(PowerSeries([0.0]))
        # f is keyed by value, so outer series that differ only in the sign
        # of a zero share one composite
        psi = PowerSeries([0.0, 0.5, 0.25])
        assert compose(neg, psi, 2) is compose(pos, psi, 2)
        assert len(psi._memo) == 1 + 1

    def test_tables_are_read_only(self):
        psi = random_schwarz(3, 4).series
        baby, giant = series._powers(psi, 201, 14)
        assert baby.shape == (14, 201) and giant.shape == (187, 187)
        assert not baby.flags.writeable and not giant.flags.writeable
        with pytest.raises(ValueError):
            baby[1, 1] = 0.0
        with pytest.raises(ValueError):
            giant[0, 0] = 1.0
        # G[u, t] = (psi^s)_(s+t-u) on and above the diagonal, zero below it
        power = np.convolve(baby[-1], psi.coeffs)[:201]
        u, t = np.indices(giant.shape)
        assert giant[u <= t].tobytes() == power[(14 + t - u)[u <= t]].tobytes()
        assert not np.any(giant[u > t])

    def test_alternating_inner_series_build_one_table_each(self, builds):
        koebe = PowerSeries(np.arange(0.0, 201.0))
        psis = [random_schwarz(seed, 4).series for seed in (1, 2)]
        for _ in range(3):
            for psi in psis:
                want = uncached_compose(koebe, psi, 200)
                assert compose(koebe, psi, 200).coeffs.tobytes() == want.tobytes()
        assert [key for key, _ in builds] == [(201, 14)] * 2

    def test_memo_does_not_change_equality_hash_or_immutability(self):
        psi = random_schwarz(4, 3).series
        before = hash(psi)
        compose(PowerSeries(np.arange(0.0, 201.0)), psi, 200)
        assert psi._memo and hash(psi) == before
        assert psi == PowerSeries(psi.coeffs)
        with pytest.raises(AttributeError):
            psi._memo = {}

    def test_table_is_freed_with_its_inner_series(self, builds):
        psi = random_schwarz(6, 5)
        compose(PowerSeries(np.arange(0.0, 201.0)), psi.series, 200)
        (_, giant), = builds
        assert giant() is not None
        del psi
        gc.collect()
        assert giant() is None

    def test_campaign_never_holds_two_tables(self, monkeypatch, builds):
        counted = series._powers

        def one_at_a_time(psi, n, s):
            assert all(giant() is None for _, giant in builds)
            return counted(psi, n, s)

        monkeypatch.setattr(series, "_powers", one_at_a_time)
        bohrmap.domination_campaign(seeds=range(4))
        assert [key for key, _ in builds] == [(201, 14)] * 4


def composite_pool():
    """12 (f, psi, order) triples over two inner series."""
    rng = np.random.default_rng(11)
    fs = [random_pair(rng, 41, 1)[0] for _ in range(3)]
    psis = [random_pair(rng, 1, 41)[1] for _ in range(2)]
    return [(f, psi, order) for f in fs for psi in psis for order in (40, 25)]


POOL = composite_pool()


class TestCompositeReuse:
    """A composite found in the memo is the composite computed afresh."""

    def test_interleaved_sequence_builds_each_composite_once(self, builds):
        pool = composite_pool()  # fresh inner series, with empty memos
        picks = np.random.default_rng(12).integers(0, len(pool), 5 * len(pool))
        first = {}
        for i in picks:
            assert_same_as_uncached(*pool[i])
            comp = first.setdefault(i, compose(*pool[i]))
            assert compose(*pool[i]) is comp
        # one table per (psi, n, s) that a pick needed: s = 6 at order 40
        # and 5 at order 25
        tables = {(id(pool[i][1]), pool[i][2]) for i in picks}
        assert len(builds) == len(tables)
        # each memo holds its tables and one composite per (f, order) picked
        memos = sum(len(pool[i][1]._memo) for i in (0, 2))  # psi0, psi1
        assert memos == len(tables) + len(set(picks.tolist()))

    @given(st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_any_sequence(self, picks):
        for i in picks:
            assert_same_as_uncached(*POOL[i])

    def test_campaign_item_builds_one_table_and_reuses_one_composite(
        self, monkeypatch, builds
    ):
        calls = []
        real = subordination.compose

        def counted(f, psi, order):
            calls.append(order)
            return real(f, psi, order)

        monkeypatch.setattr(subordination, "compose", counted)
        psi = random_schwarz(5, 6)
        koebe = make_map(NamedMap("koebe_analytic", order=200)).h
        half = make_map(NamedMap("half_plane_analytic", order=200)).h
        pk = make_map(NamedMap("p_k", k=0.4, order=200))
        assert pk.h == koebe
        bohrmap.check_domination(koebe, psi)
        bohrmap.check_domination(half, psi)
        sub = bohrmap.subordinate(pk, psi)
        # four compositions: one table, and koebe o psi built once for two
        assert calls == [200] * 4
        assert [key for key, _ in builds] == [(201, 14)]
        memo = psi.series._memo
        assert memo.keys() == {(201, 14), (koebe, 200), (half, 200), (pk.g, 200)}
        assert sub.h is memo[koebe, 200]
        assert sub.h.coeffs.tobytes() == uncached_compose(koebe, psi.series, 200).tobytes()
        assert sub.g.coeffs.tobytes() == uncached_compose(pk.g, psi.series, 200).tobytes()



def chained_blaschke(zeros, rotation, order):
    """_blaschke_product as it was: each partial product a PowerSeries,
    multiplied by the next factor through cauchy_product."""
    prefactor = np.zeros(order + 1, dtype=np.complex128)
    prefactor[1] = np.exp(1j * float(rotation))
    product = PowerSeries(prefactor)
    m = np.arange(1, order + 1)
    for w in zeros:
        factor = np.empty(order + 1, dtype=np.complex128)
        factor[0] = -w
        factor[1:] = np.conj(w) ** (m - 1) * (1.0 - abs(w) ** 2)
        product = cauchy_product(product, PowerSeries(factor))
    return product


def test_blaschke_product_on_arrays_keeps_the_chained_bits():
    # random_schwarz's draws at degrees 0-8, 44 or 45 seeds each
    for seed in range(400):
        rng = np.random.default_rng(seed)
        degree = seed % 9
        rotation = rng.uniform(0.0, 2.0 * np.pi)
        moduli = rng.uniform(0.0, subordination.MAX_BLASCHKE_MODULUS, degree)
        zeros = [complex(w) for w in moduli * np.exp(2j * np.pi * rng.uniform(size=degree))]
        got = subordination._blaschke_product(zeros, rotation, 200).coeffs
        assert got.tobytes() == chained_blaschke(zeros, rotation, 200).coeffs.tobytes()


# Each entry point that takes a count (an order, term count, sample count,
# exponent or degree): the call with that count, a valid count, and the
# count's name and minimum as its error message states them.
KOEBE_60 = NamedMap("koebe", order=60)
COUNT_ENTRY_POINTS = {
    "compose": (
        lambda n: compose(PowerSeries([0.0, 1.0, 2.0]), PowerSeries([0.0, 0.5]), n),
        50, "order", 0,
    ),
    "check_domination": (
        lambda n: bohrmap.check_domination(
            make_map(KOEBE_60).h, bohrmap.monomial_schwarz(0.5, 1), M=n
        ),
        50, "M", 0,
    ),
    "truncated": (lambda n: PowerSeries([1.0, 2.0]).truncated(n), 50, "order", 0),
    "make_map": (lambda n: make_map(NamedMap("koebe", order=n)), 50, "order", 2),
    "bohr_partial_sum": (
        lambda n: bohrmap.bohr_partial_sum(make_map(KOEBE_60), 0.3, M=n), 50, "M", 0
    ),
    "BohrProfile": (
        lambda n: bohrmap.BohrProfile("p", [0.1], [0.1], [0.0], 1.0, M=n), 50, "M", 0
    ),
    "m2_tail": (lambda n: bohrmap.m2_tail(0.5, n), 50, "M", 0),
    # degree 0 is the pure rotation, exact at order 2
    "random_schwarz.order": (lambda n: random_schwarz(3, 0, order=n), 50, "order", 2),
    "random_schwarz.degree": (lambda n: random_schwarz(3, n, order=60), 2, "degree", 0),
    "random_schwarz.seed": (lambda n: random_schwarz(n, 2, order=60), 3, "seed", 0),
    # the product random_schwarz draws: two zeros at the origin give z^3,
    # exact from order 3 on
    "blaschke_schwarz": (
        lambda n: subordination._blaschke_product([0.0, 0.0], 0.0, n), 50, "order", 3
    ),
    "monomial_schwarz": (lambda n: bohrmap.monomial_schwarz(0.5, n), 5, "j", 1),
    "circle_grid": (lambda n: circle_grid(0.5, n), 50, "samples", 1),
    "evaluate_on_circle": (
        lambda n: evaluate_on_circle(PowerSeries([1.0, 2.0]), 0.5, n), 50, "samples", 1
    ),
    "verify_inequality": (
        lambda n: bohrmap.verify_inequality(
            make_map(KOEBE_60), bohrmap.RadiusProblem("thm22_bohr"), grid_size=n
        ),
        50, "grid_size", 2,
    ),
    "boundary_reach": (lambda n: bohrmap.boundary_reach(KOEBE_60, 0.3, n), 100, "samples", 64),
}


@pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
def test_non_integer_count_is_refused(entry):
    # the int call first fills any value-keyed cache that an equal float
    # would otherwise hit
    call, valid, _, _ = COUNT_ENTRY_POINTS[entry]
    call(valid)
    for bad in (float(valid), True):
        with pytest.raises(ValueError, match="must be an integer"):
            call(bad)


@pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
def test_count_minimum_is_accepted_and_one_below_refused(entry):
    call, _, name, minimum = COUNT_ENTRY_POINTS[entry]
    call(minimum)
    with pytest.raises(ValueError, match=f"^{name} must be >= {minimum}$"):
        call(minimum - 1)


# Every radius in [0, 1) goes through rules._check_param; each entry point
# keeps its own name for the radius in the message.
RADIUS_ENTRY_POINTS = {
    "circle_grid": (lambda r: circle_grid(r, 4), "radius"),
    "bohr_partial_sum": (lambda r: bohrmap.bohr_partial_sum(make_map(KOEBE_60), r), "r"),
    "m2_tail": (lambda r: bohrmap.m2_tail(r, 5), "r"),
}


@pytest.mark.parametrize("entry", sorted(RADIUS_ENTRY_POINTS))
@pytest.mark.parametrize("bad", [False, np.False_, True, np.True_, float("nan"), -0.1, 1.0])
def test_radius_outside_unit_interval_is_refused(entry, bad):
    # False compares equal to 0.0, which is a valid radius
    call, name = RADIUS_ENTRY_POINTS[entry]
    call(0.0)
    with pytest.raises(ValueError, match=rf"^{name} must lie in \[0, 1\)$"):
        call(bad)


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


# copy.copy, copy.deepcopy and a pickle round trip at every protocol
ROUND_TRIPS = {"copy": copy.copy, "deepcopy": copy.deepcopy} | {
    f"pickle{p}": lambda x, p=p: pickle.loads(pickle.dumps(x, p))
    for p in range(pickle.HIGHEST_PROTOCOL + 1)
}


class TestRecords:
    """Series and maps are frozen dataclasses, which copy and pickle."""

    @pytest.mark.parametrize("trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS.keys())
    def test_series_with_a_filled_memo_round_trips(self, trip):
        koebe = PowerSeries(np.arange(0.0, 201.0))
        psi = random_schwarz(4, 3).series
        want = compose(koebe, psi, 200).coeffs
        assert psi._memo
        twin = trip(psi)
        assert twin is not psi and twin == psi and hash(twin) == hash(psi)
        assert not twin.coeffs.flags.writeable
        assert twin._memo == {}
        assert compose(koebe, twin, 200).coeffs.tobytes() == want.tobytes()

    @pytest.mark.parametrize("trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS.keys())
    def test_harmonic_map_round_trips(self, trip):
        f = make_map(NamedMap("p_k", k=0.5))
        twin = trip(f)
        assert isinstance(twin, HarmonicMap) and twin is not f
        assert twin.h == f.h and twin.g == f.g
        assert not (twin.h.coeffs.flags.writeable or twin.g.coeffs.flags.writeable)
        z = [0.3, 0.2 + 0.4j]
        assert eval_harmonic(twin, z).tobytes() == eval_harmonic(f, z).tobytes()

    @pytest.mark.parametrize("trip", ROUND_TRIPS.values(), ids=ROUND_TRIPS.keys())
    def test_schwarz_function_round_trips(self, trip):
        psi = random_schwarz(4, 3)
        twin = trip(psi)
        assert twin == psi and hash(twin) == hash(psi)
        assert not twin.series.coeffs.flags.writeable

    def test_harmonic_map_is_frozen_and_compares_by_identity(self):
        f = make_map(NamedMap("p_k", k=0.5))
        for name in ("h", "g"):
            with pytest.raises(AttributeError):
                setattr(f, name, f.h)
        same = HarmonicMap(f.h, f.g)
        assert f == f and f != same
        assert len({f, same, f}) == 2

    def test_series_fields_name_only_the_coefficients(self):
        psi = random_schwarz(4, 3).series
        compose(PowerSeries(np.arange(0.0, 201.0)), psi, 200)
        assert [field.name for field in dataclasses.fields(PowerSeries)] == ["coeffs"]
        assert dataclasses.asdict(psi).keys() == {"coeffs"}
        other = dataclasses.replace(psi, coeffs=[0.0, 0.5])
        assert other == PowerSeries([0.0, 0.5]) and other._memo == {}

    def test_every_record_is_a_frozen_dataclass(self):
        modules = [
            importlib.import_module(f"bohrmap.{name}")
            for name in ("bohr", "catalog", "cli", "dilatation", "radii",
                         "selfcheck", "series", "solver", "subordination")
        ]
        records = [
            cls
            for module in modules
            for cls in vars(module).values()
            if isinstance(cls, type) and cls.__module__ == module.__name__
        ]
        assert len(records) == 12
        for cls in records:
            assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen, cls


def _frozen_circle_grid(radius, samples):
    # circle_grid before its unit roots were cached
    angles = 2.0 * np.pi * np.arange(samples) / samples
    return radius * np.exp(1j * angles)


class TestCircleGrid:
    @pytest.mark.parametrize("samples", [1, 7, 64, 256, 4096])
    @pytest.mark.parametrize("radius", [0.0, 0.25, 0.3, 0.5, 0.999, np.float64(0.3485)])
    def test_bits_match_the_uncached_formula(self, radius, samples):
        got = circle_grid(radius, samples)
        assert got.tobytes() == _frozen_circle_grid(radius, samples).tobytes()

    def test_writing_a_grid_leaves_the_next_one_alone(self):
        pts = circle_grid(0.5, 16)
        pts[:] = 7.0
        assert circle_grid(0.5, 16).tobytes() == _frozen_circle_grid(0.5, 16).tobytes()
        roots = series._unit_roots(16)
        assert not roots.flags.writeable
        with pytest.raises(ValueError):
            roots[0] = 0.0

    def test_shape_and_radius(self):
        pts = circle_grid(0.5, 32)
        assert pts.shape == (32,)
        assert np.allclose(np.abs(pts), 0.5)

    def test_first_point_real(self):
        assert circle_grid(0.25, 8)[0] == 0.25

    def test_rejects_radius_one(self):
        with pytest.raises(ValueError):
            circle_grid(1.0, 8)


def _decaying_series(order, seed=0):
    # |c_m| ~ 1/(m+1)^2: circle_grid's points carry a rounding error that
    # z^m multiplies m-fold, and this decay keeps Horner's reference at
    # those points accurate to a few ulps of the max norm
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)
    return PowerSeries(c / (np.arange(order + 1) + 1.0) ** 2)


def _frozen_evaluate_on_circle(f, radius, samples):
    # evaluate_on_circle's series path before harmonic maps shared it;
    # subordination.schwarz_sup reads these bits
    c = f.coeffs
    folded = np.zeros(-(-len(c) // samples) * samples, dtype=np.complex128)
    folded[: len(c)] = c * radius ** np.arange(len(c), dtype=np.float64)
    return samples * np.fft.ifft(folded.reshape(-1, samples).sum(axis=0))


def _decaying_map(order):
    b = _decaying_series(order, seed=2).coeffs.copy()
    b[0] = 0.0
    return HarmonicMap(_decaying_series(order, seed=1), PowerSeries(b))


class TestEvaluateOnCircle:
    @pytest.mark.parametrize("r", [0.0, 0.3, 0.999])
    @pytest.mark.parametrize(
        "order, samples",
        [(0, 64), (1, 64), (63, 64), (64, 64), (197, 64),
         (2000, 64), (2000, 4096), (4095, 4096), (4096, 4096), (12293, 4096)],
    )
    def test_matches_horner_on_circle_grid(self, order, samples, r):
        # orders N - 1, N and 3N + 5 fold coefficients onto every residue
        f = _decaying_series(order)
        got = evaluate_on_circle(f, r, samples)
        want = evaluate(f, circle_grid(r, samples))
        assert got.shape == (samples,)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("r", [0.0, 0.3, 0.999])
    @pytest.mark.parametrize(
        "order, samples",
        [(m, n) for n in (64, 4096) for m in (0, 1, n // 2 - 1, n // 2, n - 1, n, 3 * n + 5)],
    )
    def test_harmonic_map_matches_horner_on_circle_grid(self, order, samples, r):
        # from order N/2 on, conj(b_m) at frequency -m folds onto residues
        # that h's coefficients also fill
        f = _decaying_map(order)
        got = evaluate_on_circle(f, r, samples)
        want = eval_harmonic(f, circle_grid(r, samples))
        assert got.shape == (samples,)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    # past m log2(1/r) = 1100 the kernel writes r^m = +0.0 itself: at
    # order 2000 from m = 12 at r = 1e-30, 255 at r = 0.05, 634 at r = 0.3
    @pytest.mark.parametrize("r", [0.0, 1e-300, 1e-30, 0.05, 0.3, 0.999])
    @pytest.mark.parametrize(
        "order, samples", [(0, 64), (63, 64), (64, 64), (2000, 256), (12293, 4096)]
    )
    def test_series_bits_match_the_series_only_kernel(self, order, samples, r):
        f = _decaying_series(order)
        got = evaluate_on_circle(f, r, samples)
        assert got.tobytes() == _frozen_evaluate_on_circle(f, r, samples).tobytes()

    @pytest.mark.parametrize("r", [1e-30, 0.05, 0.3, 0.7])
    def test_series_bits_where_powers_underflow(self, r):
        # c z^m with c near the largest double lifts r^m into view, whether
        # it is normal, subnormal or zero; m sweeps r^m from 2^-1000 to 2^-1200
        scale = -math.log2(r)
        for m in range(math.floor(1000 / scale), math.ceil(1200 / scale) + 1):
            c = np.zeros(m + 1)
            c[m] = 1e308
            f = PowerSeries(c)
            got = evaluate_on_circle(f, r, 64)
            assert got.tobytes() == _frozen_evaluate_on_circle(f, r, 64).tobytes()

    @pytest.mark.parametrize(
        "f",
        [PowerSeries([1.0, -0.0, -2.0, complex(0.5, -0.0)]),
         HarmonicMap(PowerSeries([0.0, 1.0, 0.5]), PowerSeries([0.0, -0.5, -0.0])),
         make_map(NamedMap("half_plane_L"))],
        ids=["signed zeros", "conj(b)", "half_plane_L"],
    )
    def test_one_row_spectrum_is_the_rows_sum(self, f):
        # a spectrum that fits on one row of the folding is that row plus
        # the +0.0 numpy's sum starts from: its -0.0 parts read +0.0
        samples = 4096
        h, b = (f.h.coeffs, f.g.coeffs[1:]) if isinstance(f, HarmonicMap) else (f.coeffs, [])
        powers = 0.3 ** np.arange(len(h), dtype=np.float64)
        powers[powers < 2.0**-1100] = 0.0
        row = np.zeros(samples, dtype=np.complex128)
        row[: len(h)] = h * powers
        row[samples - len(b) :] = (np.conj(b) * powers[1 : len(b) + 1])[::-1]
        assert np.signbit(np.concatenate([row.real, row.imag])).any()
        want = row.reshape(-1, samples).sum(axis=0)
        assert series._circle_spectrum(f, 0.3, samples).tobytes() == want.tobytes()

    def test_schwarz_sup_bits(self):
        psi = random_schwarz(5, 3).series
        radius, samples = subordination.SCHWARZ_RADIUS, subordination.SCHWARZ_GRID
        got = evaluate_on_circle(psi, radius, samples)
        assert got.tobytes() == _frozen_evaluate_on_circle(psi, radius, samples).tobytes()

    def test_rejects_other_types(self):
        with pytest.raises(TypeError, match="f must be a PowerSeries or HarmonicMap"):
            evaluate_on_circle([1.0, 2.0], 0.5, 8)

    def test_exact_at_the_exact_points(self):
        # unit-size coefficients at r = 0.999: Horner at circle_grid's
        # rounded points is off by ~1e-13 here, the FFT by ~1e-16
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(1)
        c = rng.standard_normal(2001) + 1j * rng.standard_normal(2001)
        got = evaluate_on_circle(PowerSeries(c), 0.999, 64)
        scale = np.max(np.abs(got))
        with mpmath.workdps(30):
            coeffs = [mpmath.mpc(x.real, x.imag) for x in c[::-1]]
            for j in (0, 1, 17, 40):
                z = mpmath.mpf(0.999) * mpmath.expjpi(mpmath.mpf(2 * j) / 64)
                assert abs(got[j] - complex(mpmath.polyval(coeffs, z))) <= 1e-15 * scale

    @pytest.mark.parametrize("r", [-0.1, 1.0, float("nan")])
    def test_rejects_radius_like_circle_grid(self, r):
        with pytest.raises(ValueError, match=r"radius must lie in \[0, 1\)"):
            evaluate_on_circle(PowerSeries([0.0, 1.0]), r, 8)

    def test_rejects_samples_like_circle_grid(self):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            evaluate_on_circle(PowerSeries([0.0, 1.0]), 0.5, 0)

    def test_import_leaves_numpy_fft_unloaded(self):
        # the CLI is import-bound: numpy.fft costs ~2 ms and loads on first use
        code = "import sys, bohrmap; print('numpy.fft' in sys.modules)"
        src = str(Path(bohrmap.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.stdout.strip() == "False"
