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

    Every b_m has the bits of the same recurrence on numpy complex scalars,
    signed zeros included (see ``_mobius_coupled``).  An h whose imaginary
    parts are all +0.0, as every catalog h's are, first tries
    ``_mobius_real``, which runs the real parts alone and proves them equal
    to the coupled loop's; any other h, or a real chain the proof does not
    cover, runs the coupled loop.
    """
    _require_normalized(h)
    a = float(w.a)
    ac = h.coeffs
    sign = 1.0 if w.variant == "plus" else -1.0
    b1 = a * ac[1]
    b = _mobius_real(ac, a, sign, b1)
    if b is None:
        b = _mobius_coupled(ac, a, sign, b1)
    return HarmonicMap(h, PowerSeries(b))


def _mobius_real(ac: np.ndarray, a: float, sign: float, b1: complex) -> np.ndarray | None:
    """The coupled loop's b for an h whose imaginary parts are all +0.0, else None.

    With xi = im[m] = +0.0 at every m the coupled loop's di is
    +0 - (a bi + 0 br), and +0 minus any zero is +0, so di = +0 whatever bi
    is, as long as br is finite.  Then x - 0 xi and x - 0 di are x for
    every x, bi is a zero, and the real parts obey the real recurrence

        b_m = (t a_m + s (a_{m-1} - a b_{m-1})) / m,   t = a m,  s = +-(m-1),

    with the division a product by 1/m, as in the loop: the loop only adds
    signed zeros to a b_{m-1}, t a_m, s d_m and n_m (d_m and n_m the
    bracket and the numerator), and a zero added to a finite nonzero x
    leaves x.  So a chain in which those four values are finite and nonzero
    at every m is the loop's, bit for bit; by induction on m, since each
    step's br is then finite and its bi a zero.  One Python-float loop runs
    the real chain, with t a_m, s and 1/m taken from numpy by the same IEEE
    operations; numpy then recomputes the four values from the stored b
    and checks them, and rebuilds each bi = (ni - 0 n_m)/m from the loop's
    own expressions for ni and bi.  Where any check fails, the result is
    None and the caller runs the coupled loop: a = +-0 (t = 0), a zero
    a_m, a chain that underflows to zero (a = 1e-300) or overflows, and
    any imaginary part other than +0.0, -0.0 included.
    """
    # +0.0 is the one float whose bits are all zero
    if ac.imag.view(np.uint64).any():
        return None
    re = ac.real
    m = np.arange(2.0, len(re))
    with np.errstate(all="ignore"):
        t = a * m
        ta = t * re[2:]
        s = sign * (m - 1.0)
        inv = 1.0 / m
        br = float(b1.real)
        b_re = [0.0, br]
        for ta_m, s_m, inv_m, x in zip(ta.tolist(), s.tolist(), inv.tolist(), re[1:-1].tolist()):
            br = (ta_m + s_m * (x - a * br)) * inv_m
            b_re.append(br)
        b = np.empty(len(re), dtype=np.complex128)
        b.real = b_re
        ab = a * b.real[1:-1]
        d = re[1:-1] - ab
        sd = s * d
        n = ta + sd
        if not all(np.isfinite(v).all() and v.all() for v in (ab, ta, sd, n)):
            return None
    # the loop's ni = (t xi + 0 xr) + (s di + 0 dr) and bi = (ni - 0 nr) inv,
    # with xi = di = +0
    ni = (t * 0.0 + 0.0 * re[2:]) + (s * 0.0 + 0.0 * d)
    b.imag[0], b.imag[1] = 0.0, b1.imag
    b.imag[2:] = (ni - n * 0.0) * inv
    return b


def _mobius_coupled(ac: np.ndarray, a: float, sign: float, b1: complex) -> np.ndarray:
    """The Mobius recurrence on Python floats, real and imaginary parts apart.

    It gives the bits of the same recurrence on numpy complex scalars,
    signed zeros included.  For numpy a float x times a complex y is the
    complex product of x + 0j and y, so each real product also adds a
    0 * (the other part), which can only change the sign of a zero; and a
    division by m is complex division by m + 0j, which multiplies by 1.0/m
    (Smith's algorithm with a zero ratio).  The loop spells out both.
    """
    re, im = ac.real.tolist(), ac.imag.tolist()
    br, bi = float(b1.real), float(b1.imag)
    b_re, b_im = [0.0, br], [0.0, bi]
    for m in range(2, len(ac)):
        t, s, inv = a * m, sign * (m - 1), 1.0 / m
        xr, xi = re[m], im[m]
        # d = a_{m-1} - a b_{m-1}
        dr = re[m - 1] - (a * br - 0.0 * bi)
        di = im[m - 1] - (a * bi + 0.0 * br)
        # n = t a_m + s d
        nr = (t * xr - 0.0 * xi) + (s * dr - 0.0 * di)
        ni = (t * xi + 0.0 * xr) + (s * di + 0.0 * dr)
        br = (nr + ni * 0.0) * inv
        bi = (ni - nr * 0.0) * inv
        b_re.append(br)
        b_im.append(bi)
    b = np.empty(len(ac), dtype=np.complex128)
    b.real = b_re
    b.imag = b_im
    return b


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
