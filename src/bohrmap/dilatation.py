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

from .series import HarmonicMap, PowerSeries, _check_param, _evaluate_rows, term_differentiate

MOBIUS_VARIANTS = ("plus", "minus")


@dataclass(frozen=True)
class MonomialDilatation:
    """w(z) = k * exp(i*theta) * z^n with 0 < k <= 1, finite theta and integer n >= 1."""

    k: float
    theta: float = 0.0
    n: int = 1

    def __post_init__(self):
        _check_param("k", self.k)
        _check_param("n", self.n)
        _check_param("theta", self.theta)
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

    Each b_m equals the same recurrence run on numpy complex scalars, with
    the same bits in every nonzero part; only the sign of a zero part may
    differ, which |b_m|, ``PowerSeries.__hash__`` and the residual ignore.
    numpy takes t a_m (t = a m), s = +-(m-1) and 1/m for every m at once,
    and one loop runs

        b_m = (t a_m + s (a_{m-1} - a b_{m-1})) * (1/m)

    on Python floats when no imaginary part of h is nonzero, as for every
    catalog h, and on Python complex values otherwise.  An overflowing h
    gives a non-finite b, which ``PowerSeries`` refuses.
    """
    _require_normalized(h)
    a = float(w.a)
    ac = h.coeffs if h.coeffs.imag.any() else h.coeffs.real
    m = np.arange(1.0, len(ac))
    with np.errstate(all="ignore"):
        ta = ((a * m) * ac[1:]).tolist()
    s = ((1.0 if w.variant == "plus" else -1.0) * (m - 1.0)).tolist()
    inv = (1.0 / m).tolist()
    bm = ta[0]
    b = [0.0, bm]
    for ta_m, s_m, inv_m, x in zip(ta[1:], s[1:], inv[1:], ac[1:-1].tolist()):
        bm = (ta_m + s_m * (x - a * bm)) * inv_m
        b.append(bm)
    return HarmonicMap(h, PowerSeries(np.array(b)))


def dilatation_residual(f: HarmonicMap, w, points) -> float:
    """max |g'(z) - w(z) h'(z)| over the given points.

    w is any callable accepting complex arrays.  For a co-analytic part
    produced by the constructors above the residual is limited only by the
    truncation tail at |z| < 1 and by rounding.  g' and h' run as the two
    rows of one Horner chain.
    """
    pts = np.atleast_1d(np.asarray(points, dtype=np.complex128))
    if pts.size == 0:
        raise ValueError("points is empty: the residual is a max over at least one point")
    gp, hp = _evaluate_rows(
        (term_differentiate(f.g).coeffs, term_differentiate(f.h).coeffs), pts
    )
    res = gp - np.asarray(w(pts), dtype=np.complex128) * hp
    return float(np.max(np.abs(res)))


def _require_normalized(h: PowerSeries) -> None:
    if h.order < 1 or h.coeffs[0] != 0 or h.coeffs[1] != 1:
        raise ValueError("analytic part must be normalized: h(0) = 0, h'(0) = 1")
