"""Truncated complex power series and planar harmonic maps.

Everything downstream (coefficient models, Bohr partial sums, dilatation
checks, subordination) runs on the two containers defined here: a
``PowerSeries`` holding coefficients c_0..c_M, and a ``HarmonicMap`` pairing
an analytic part h with a co-analytic part g so that f = h + conj(g).

All arithmetic is truncation-exact: a product or composition of series known
to order M is returned with every coefficient up to the result order equal to
the coefficient of the exact (infinite) operation.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_ORDER = 2000
DEFAULT_COMPOSE_ORDER = 200


class PowerSeries:
    """Coefficients c_0..c_M of sum c_m z^m, stored as complex128.

    The coefficient array is copied on construction and frozen; series are
    value objects and every operation returns a new one.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.array(coeffs, dtype=np.complex128, copy=True).reshape(-1)
        if arr.size == 0:
            raise ValueError("a series needs at least the constant coefficient")
        if not np.all(np.isfinite(arr)):
            raise ValueError("series coefficients must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("PowerSeries is immutable")

    @property
    def order(self) -> int:
        """Largest retained power M."""
        return len(self.coeffs) - 1

    def truncated(self, order: int) -> "PowerSeries":
        """Copy with coefficients kept through ``order`` (zero-padded if higher)."""
        if order < 0:
            raise ValueError("order must be >= 0")
        n = order + 1
        if n <= len(self.coeffs):
            return PowerSeries(self.coeffs[:n])
        out = np.zeros(n, dtype=np.complex128)
        out[: len(self.coeffs)] = self.coeffs
        return PowerSeries(out)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __repr__(self) -> str:
        return f"PowerSeries(order={self.order})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.coeffs.shape == other.coeffs.shape and bool(
            np.all(self.coeffs == other.coeffs)
        )

    def __hash__(self):
        return hash((len(self.coeffs), self.coeffs.tobytes()))


def evaluate(series: PowerSeries, z):
    """Evaluate the truncated series at z by Horner's scheme.

    z may be a scalar or an array; the return type matches.  Non-finite
    evaluation points are rejected rather than propagated, so a NaN result
    always means an overflow in the accumulation itself.
    """
    zs = np.asarray(z, dtype=np.complex128)
    if not np.all(np.isfinite(zs)):
        raise ValueError("evaluation points must be finite")
    c = series.coeffs
    acc = np.full(zs.shape, c[-1], dtype=np.complex128)
    for m in range(len(c) - 2, -1, -1):
        acc = acc * zs + c[m]
    if zs.ndim == 0:
        return complex(acc)
    return acc


def cauchy_product(f: PowerSeries, g: PowerSeries) -> PowerSeries:
    """Product series, truncated to min(f.order, g.order).

    Up to that common order every coefficient of the exact product is a
    finite sum of known terms, so the truncation introduces no error.
    """
    n = min(f.order, g.order) + 1
    return PowerSeries(np.convolve(f.coeffs, g.coeffs)[:n])


def term_integrate(f: PowerSeries) -> PowerSeries:
    """Termwise antiderivative with zero constant term; order grows by one."""
    out = np.zeros(len(f.coeffs) + 1, dtype=np.complex128)
    out[1:] = f.coeffs / np.arange(1, len(f.coeffs) + 1)
    return PowerSeries(out)


def term_differentiate(f: PowerSeries) -> PowerSeries:
    """Termwise derivative; order shrinks by one (constants map to 0)."""
    if f.order == 0:
        return PowerSeries([0.0])
    c = f.coeffs
    return PowerSeries(c[1:] * np.arange(1, len(c)))


def compose(f: PowerSeries, psi: PowerSeries, order: int | None = None) -> PowerSeries:
    """Coefficients of f(psi(z)) through ``order``.

    Requires psi(0) == 0 exactly.  Then psi^m has a zero of order m, so the
    composite's coefficient at any power p depends only on coefficients of f
    and psi up to p; with the default order min(f.order, psi.order) the
    result is truncation-exact.

    Baby-step/giant-step evaluation (Paterson and Stockmeyer 1973; Brent and
    Kung 1978 for power series).  With n = order + 1, L <= n terms of f kept
    and s = isqrt(L), f(w) = sum_j B_j(w) w^(js) where B_j(w) = sum_{i<s}
    f_{js+i} w^i.  The baby steps psi^0..psi^(s-1) and the giant step psi^s
    take s truncated convolutions; every B_j(psi) comes out of one
    (ceil(L/s) x s) @ (s x n) matrix product; Horner over psi^s takes
    ceil(L/s) - 1 more convolutions.  That is about 2 sqrt(n) convolutions
    of length n, O(n^2.5) in all, where Horner over psi itself needs n of
    them, O(n^3).  Every product is truncated to ``order``.
    """
    if psi.coeffs[0] != 0:
        raise ValueError("inner series must satisfy psi(0) == 0")
    if order is None:
        order = min(f.order, psi.order)
    if order < 0:
        raise ValueError("order must be >= 0")
    n = order + 1
    fc = f.coeffs[:n]
    pc = psi.coeffs[:n]
    s = math.isqrt(len(fc))
    baby = np.zeros((s, n), dtype=np.complex128)
    baby[0, 0] = 1.0
    for i in range(1, s):
        baby[i] = np.convolve(baby[i - 1], pc)[:n]
    giant = np.convolve(baby[-1], pc)[:n]
    blocks = np.zeros(-(-len(fc) // s) * s, dtype=np.complex128)
    blocks[: len(fc)] = fc
    inner = blocks.reshape(-1, s) @ baby
    acc = inner[-1]
    for j in range(len(inner) - 2, -1, -1):
        acc = np.convolve(acc, giant)[:n] + inner[j]
    return PowerSeries(acc)


class HarmonicMap:
    """Planar harmonic map f = h + conj(g) on the unit disk.

    h and g are power series of the same order and g(0) == 0, so the
    coefficient list is a_0..a_M alongside b_1..b_M (b_0 slot held at zero).
    """

    __slots__ = ("h", "g")

    def __init__(self, h: PowerSeries, g: PowerSeries):
        if h.order != g.order:
            raise ValueError("analytic and co-analytic parts need equal order")
        if g.coeffs[0] != 0:
            raise ValueError("co-analytic part must vanish at the origin")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "g", g)

    def __setattr__(self, name, value):
        raise AttributeError("HarmonicMap is immutable")

    @property
    def order(self) -> int:
        return self.h.order

    def coefficient_moduli(self) -> np.ndarray:
        """Array with entry m equal to |a_m| + |b_m|."""
        return np.abs(self.h.coeffs) + np.abs(self.g.coeffs)

    def __repr__(self) -> str:
        return f"HarmonicMap(order={self.order})"


def eval_harmonic(f: HarmonicMap, z):
    """f(z) = h(z) + conj(g(z)), scalar or vectorized like ``evaluate``."""
    return evaluate(f.h, z) + np.conj(evaluate(f.g, z))


def circle_grid(radius: float, samples: int) -> np.ndarray:
    """Equispaced points radius * exp(2 pi i j / samples), j = 0..samples-1."""
    if not 0.0 <= radius < 1.0:
        raise ValueError("radius must lie in [0, 1)")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    angles = 2.0 * np.pi * np.arange(samples) / samples
    return radius * np.exp(1j * angles)
