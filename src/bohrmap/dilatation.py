"""Dilatations and co-analytic parts built from them.

A harmonic map f = h + conj(g) is locally one-to-one and sense-preserving
exactly when its dilatation w = g'/h' satisfies |w| < 1.  The two families
used here are w(z) = k e^{i theta} z^n and the disk automorphism factors
w(z) = (a + z)/(1 + a z) (or the sign-flipped variant).  Given h, each family
determines g coefficient-by-coefficient from g' = w h'.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .radii import _check_param
from .series import HarmonicMap, PowerSeries, evaluate, term_differentiate

MOBIUS_VARIANTS = ("plus", "minus")


@dataclass(frozen=True)
class MonomialDilatation:
    """w(z) = k * exp(i*theta) * z^n with 0 < k <= 1 and integer n >= 1."""

    k: float
    theta: float = 0.0
    n: int = 1

    def __post_init__(self):
        _check_param("k", self.k)
        _check_param("n", self.n)
        object.__setattr__(self, "theta", float(self.theta) % (2.0 * np.pi))

    def __call__(self, z):
        return self.k * np.exp(1j * self.theta) * np.asarray(z, dtype=np.complex128) ** self.n


@dataclass(frozen=True)
class MobiusDilatation:
    """w(z) = (a + z)/(1 + a z), or (a - z)/(1 - a z) for variant "minus".

    a is real with |a| < 1, so |w| < 1 on the disk for either sign choice.
    """

    a: float
    variant: str = "plus"

    def __post_init__(self):
        _check_param("a", self.a)
        if self.variant not in MOBIUS_VARIANTS:
            raise ValueError(f"variant must be one of {MOBIUS_VARIANTS}")

    def __call__(self, z):
        zs = np.asarray(z, dtype=np.complex128)
        if self.variant == "plus":
            return (self.a + zs) / (1.0 + self.a * zs)
        return (self.a - zs) / (1.0 - self.a * zs)


def g_from_monomial(h: PowerSeries, w: MonomialDilatation) -> HarmonicMap:
    """Harmonic map with analytic part h and dilatation k e^{i theta} z^n.

    Matching coefficients in g' = w h' gives b_{m+n} = k e^{i theta}
    * m/(m+n) * a_m and b_j = 0 for j <= n, which fixes g uniquely under
    g(0) = 0.
    """
    _require_normalized(h)
    order = h.order
    if order < w.n + 1:
        raise ValueError("truncation order too small to carry any co-analytic term")
    phase = w.k * np.exp(1j * w.theta)
    b = np.zeros(order + 1, dtype=np.complex128)
    m = np.arange(1, order + 1 - w.n)
    b[w.n + 1 :] = phase * (m / (m + w.n)) * h.coeffs[1 : order + 1 - w.n]
    return HarmonicMap(h, PowerSeries(b))


def g_from_mobius(h: PowerSeries, w: MobiusDilatation) -> HarmonicMap:
    """Harmonic map with analytic part h and automorphism-factor dilatation.

    Clearing the denominator in g' = w h' couples consecutive coefficients:

        m b_m + a (m-1) b_{m-1} = a m a_m + (m-1) a_{m-1}      ("plus")
        m b_m - a (m-1) b_{m-1} = a m a_m - (m-1) a_{m-1}      ("minus")

    with b_1 = a a_1 either way.  The recurrence is solved forward.  No
    univalence claim is made for the result; this builds the candidate map
    that solves the coefficient system.
    """
    _require_normalized(h)
    a = w.a
    ac = h.coeffs
    order = h.order
    b = np.zeros(order + 1, dtype=np.complex128)
    if order >= 1:
        b[1] = a * ac[1]
    sign = 1.0 if w.variant == "plus" else -1.0
    for m in range(2, order + 1):
        b[m] = (a * m * ac[m] + sign * (m - 1) * (ac[m - 1] - a * b[m - 1])) / m
    return HarmonicMap(h, PowerSeries(b))


def dilatation_residual(f: HarmonicMap, w, points) -> float:
    """max |g'(z) - w(z) h'(z)| over the given points.

    w is any callable accepting complex arrays.  For a co-analytic part
    produced by the constructors above the residual is limited only by the
    truncation tail at |z| < 1 and by rounding.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=np.complex128))
    hp = term_differentiate(f.h)
    gp = term_differentiate(f.g)
    res = evaluate(gp, pts) - np.asarray(w(pts), dtype=np.complex128) * evaluate(hp, pts)
    return float(np.max(np.abs(res)))


def _require_normalized(h: PowerSeries) -> None:
    if h.order < 1 or h.coeffs[0] != 0 or h.coeffs[1] != 1:
        raise ValueError("analytic part must be normalized: h(0) = 0, h'(0) = 1")
