"""Truncated complex power series and planar harmonic maps.

Everything downstream (coefficient models, Bohr partial sums, dilatation
checks, subordination) runs on the two containers defined here: a
``PowerSeries`` holding coefficients c_0..c_M, and a ``HarmonicMap`` pairing
an analytic part h with a co-analytic part g so that f = h + conj(g).

All arithmetic is truncation-exact: a product or composition of series f and
psi has every coefficient through min(f.order, psi.order) equal to that of
the exact (infinite) operation, whatever order the result is asked for.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_ORDER = 2000
DEFAULT_COMPOSE_ORDER = 200


def _is_bool(value) -> bool:
    """A Python or numpy bool: it passes numeric range tests, but is no count or parameter."""
    return isinstance(value, (bool, np.bool_))


def _is_integer(value) -> bool:
    """A Python or numpy integer; bool is an int subclass but counts nothing."""
    return isinstance(value, (int, np.integer)) and not _is_bool(value)


def _check_count(name: str, value, minimum: int) -> None:
    """Refuse a count that is not an integer, such as 2.0 or True, or is below ``minimum``."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


# (argument, test, message): the domain of every real-valued argument of the
# package, checked in this order.  Each test is written so that NaN, which
# fails every comparison, fails it.  A bool would pass most of them, so it
# breaks an argument's first row, as counts refuse it.  "map k" is a catalog
# map's k, where k = 0 is the analytic map; "reach r" is boundary_reach's r and
# image-curve's --r.
_PARAM_RULES = (
    ("K", lambda K: K >= 1.0, "K must be >= 1"),
    ("K", math.isfinite, "K must be finite"),
    ("k", lambda k: 0.0 < k <= 1.0, "k must lie in (0, 1]"),
    ("map k", lambda k: 0.0 <= k <= 1.0, "k must lie in [0, 1]"),
    ("n", lambda n: _is_integer(n) and n >= 1, "n must be an integer >= 1"),
    ("a", lambda a: -1.0 < a < 1.0, "a must lie in (-1, 1)"),
    ("theta", math.isfinite, "theta must be finite"),
    ("c", lambda c: abs(complex(c)) <= 1.0, "|c| must be <= 1"),
    ("r", lambda r: 0.0 <= r < 1.0, "r must lie in [0, 1)"),
    ("radius", lambda r: 0.0 <= r < 1.0, "radius must lie in [0, 1)"),
    ("reach r", lambda r: 0.0 < r < 1.0, "r must lie in (0, 1)"),
    ("tol", lambda tol: tol > 0.0, "tol must be positive"),
    ("tol", math.isfinite, "tol must be finite"),
    ("bound", lambda b: 0.0 < b < math.inf, "bound must be positive and finite"),
    ("margin", lambda m: m > 0.0, "margin must be positive"),
    ("epsilon", lambda e: e > 0.0, "epsilon must be positive"),
    ("tail_constant", lambda C: C >= 0.0, "tail_constant must be >= 0"),
    ("tail_constant", math.isfinite, "tail_constant must be finite"),
    ("perturb", math.isfinite, "perturb must be finite"),
)


# Each argument's (test, message) rows in table order, so that a check reads
# only its own rows; an argument the table does not name is a KeyError.
_PARAM_INDEX = {
    name: tuple((test, message) for param, test, message in _PARAM_RULES if param == name)
    for name, _, _ in _PARAM_RULES
}


def _check_param(name: str, value) -> None:
    """Raise the message of the first rule on ``name`` that value breaks; a bool breaks all."""
    rows = _PARAM_INDEX[name]
    if _is_bool(value):
        raise ValueError(rows[0][1])
    for test, message in rows:
        if not test(value):
            raise ValueError(message)


@dataclass(frozen=True, eq=False, repr=False)
class PowerSeries:
    """Coefficients c_0..c_M of sum c_m z^m, stored as complex128.

    A frozen value dataclass whose coefficients are copied and made read-only;
    a copy or pickle is rebuilt by the constructor, with an empty ``_memo``,
    which ``compose`` and ``check_domination`` keep and ``==`` and ``hash`` ignore.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=np.complex128, copy=True).reshape(-1)
        if arr.size == 0:
            raise ValueError("a series needs at least the constant coefficient")
        if not np.isfinite(arr).all():
            raise ValueError("series coefficients must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "_memo", {})

    def __reduce__(self):
        return PowerSeries, (self.coeffs,)

    @property
    def order(self) -> int:
        """Largest retained power M."""
        return len(self.coeffs) - 1

    def truncated(self, order: int) -> "PowerSeries":
        """Copy with coefficients kept through ``order`` (zero-padded if higher)."""
        _check_count("order", order, 0)
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
        # + 0.0 turns -0.0 into 0.0, which __eq__ treats as equal
        return hash((len(self.coeffs), (self.coeffs + 0.0).tobytes()))


def evaluate(series: PowerSeries, z):
    """Evaluate the truncated series at z by Horner's scheme.

    z may be a scalar or an array; a scalar z gives a numpy.complex128,
    which is a complex.  Non-finite evaluation points are rejected rather
    than propagated, so a NaN result always means an overflow in the
    accumulation itself.
    """
    return _evaluate_rows((series.coeffs,), z)[0]


# Coefficient values in one block of ``_evaluate_rows``'s step table: 64 KB,
# or one term when the accumulator alone is larger.  With 2 rows at 64
# points a block is 32 terms; 64 and 256 KB blocks ran alike there, 16 KB
# and 1 MB ones 25-75% slower (2-vCPU Xeon, numpy 2.4).
_ROWS_TABLE_VALUES = 1 << 12


def _evaluate_rows(rows, z) -> np.ndarray:
    """Horner for several coefficient rows of one length at the same points z.

    The result has shape (len(rows),) + shape of z, row i being ``evaluate``
    of rows[i] bit for bit: every value (one row at one point) takes the
    full chain, acc_M = c_M and acc_m = fl(fl(acc_(m+1) * z) + c_m) down to
    acc_0, as one row alone would.  All rows share one flat accumulator of
    R * P values (R rows, P points), so each step is two numpy calls
    whatever R is.  The coefficients a step adds come from a table built
    for a block of terms at a time, which bounds its memory.
    """
    zs = np.asarray(z, dtype=np.complex128)
    if not np.all(np.isfinite(zs)):
        raise ValueError("evaluation points must be finite")
    c = np.asarray(rows, dtype=np.complex128)
    R, P = len(c), zs.size
    rows_of = np.repeat(np.arange(R), P)
    points = np.tile(zs.reshape(-1), R)
    if R * P == 1:
        # numpy 2.4 multiplies a one-element complex array in place with
        # another loop, which rounds like Python's complex and differs from
        # the vector loop in the last bit of about two products in five
        # (AVX-512 host); a lone value runs as two copies of itself, so that
        # it takes the vector loop's bits
        rows_of, points = np.repeat(rows_of, 2), np.repeat(points, 2)
    acc = c[rows_of, -1]
    # the ufuncs by local name, in place by position: each step is two
    # calls with nothing else to look up
    multiply, add = np.multiply, np.add
    for table in _step_tables(c, rows_of):
        for step in table:
            multiply(acc, points, acc)
            add(acc, step, acc)
    return acc[: R * P].reshape((R,) + zs.shape)


def _step_tables(c: np.ndarray, rows_of: np.ndarray):
    """Blocks of the step table: row m of it is c[rows_of, m], m = M - 1 down to 0."""
    block = max(1, _ROWS_TABLE_VALUES // max(1, rows_of.size))
    for hi in range(c.shape[1] - 1, 0, -block):
        lo = max(hi - block, 0)
        yield c[:, lo:hi][:, ::-1].T.take(rows_of, axis=1)


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


def compose(f: PowerSeries, psi: PowerSeries, order: int) -> PowerSeries:
    """Coefficients of f(psi(z)) through ``order``.

    Requires psi(0) == 0 exactly.  Then psi^m has a zero of order m, so the
    composite's coefficient at any power p depends only on coefficients of f
    and psi up to p; through order min(f.order, psi.order) the result is
    truncation-exact.

    Baby-step/giant-step evaluation (Paterson and Stockmeyer 1973; Brent and
    Kung 1978 for power series).  With n = order + 1, L <= n terms of f kept
    and s = isqrt(L), f(w) = sum_j B_j(w) w^(js) where B_j(w) = sum_{i<s}
    f_{js+i} w^i.  The baby steps psi^0..psi^(s-1) and the giant step psi^s
    take s truncated convolutions; every B_j(psi) comes out of one
    (ceil(L/s) x s) @ (s x n) matrix product.  Horner over psi^s works on
    the triangle: acc_j is later multiplied by psi^(js), which has a zero
    of order js, so only its first n_j = n - js coefficients reach the
    result.  With G the (n - s) x (n - s) upper-triangular Toeplitz matrix
    of psi^s / z^s, step j keeps acc_j[:s] = B_j[:s] and sets acc_j[s:n_j]
    = B_j[s:n_j] + acc_(j+1)[:n_j - s] @ G[:n_j - s, :n_j - s], one BLAS
    call on a leading block of G.  The sums it drops are exact-zero
    products, and the ceil(L/s) - 1 steps take about n^3 / (3s)
    multiply-adds, O(n^2.5) in all, where Horner over psi itself needs n
    convolutions, O(n^3).  psi's ``_memo`` keeps its power table per (n, s)
    and the composite per (f, order), f keyed by value, for later calls;
    both are freed with psi.
    """
    if psi.coeffs[0] != 0:
        raise ValueError("inner series must satisfy psi(0) == 0")
    _check_count("order", order, 0)
    memo = psi._memo
    composite = memo.get((f, order))
    if composite is None:
        n = order + 1
        fc = f.coeffs[:n]
        s = math.isqrt(len(fc))
        if (n, s) not in memo:
            memo[n, s] = _powers(psi, n, s)
        baby, giant = memo[n, s]
        blocks = np.zeros(-(-len(fc) // s) * s, dtype=np.complex128)
        blocks[: len(fc)] = fc
        # row j becomes acc_j in place, its first n - js values
        inner = blocks.reshape(-1, s) @ baby
        for j in range(len(inner) - 2, -1, -1):
            m = n - (j + 1) * s
            inner[j, s : s + m] += inner[j + 1, :m] @ giant[:m, :m]
        composite = memo[f, order] = PowerSeries(inner[0])
    return composite


def _powers(psi: PowerSeries, n: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Baby steps psi^0..psi^(s-1) as an (s x n) matrix, and giant step psi^s
    as the ((n - s) x (n - s)) matrix G with G[u, t] = (psi^s)_(s+t-u), zero
    below the diagonal: the upper-triangular Toeplitz matrix of psi^s / z^s.

    Every power is truncated to n coefficients, so a @ G[:m, :m] is the
    product of a with psi^s at powers s..s+m-1.  psi's memo shares both
    tables, so they are read-only; G holds (n - s)^2 values.
    """
    pc = psi.coeffs[:n]
    baby = np.zeros((s, n), dtype=np.complex128)
    baby[0, 0] = 1.0
    for i in range(1, s):
        baby[i] = np.convolve(baby[i - 1], pc)[:n]
    m = n - s
    padded = np.zeros(2 * m, dtype=np.complex128)
    padded[m:] = np.convolve(baby[-1], pc)[s:n]
    # window k is padded[k : k + m], so window m - u is psi^s / z^s shifted right by u
    giant = np.lib.stride_tricks.sliding_window_view(padded, m)[:0:-1].copy()
    baby.setflags(write=False)
    giant.setflags(write=False)
    return baby, giant


@dataclass(frozen=True, eq=False, repr=False)
class HarmonicMap:
    """Planar harmonic map f = h + conj(g) on the unit disk.

    h and g are power series of the same order and g(0) == 0, so the
    coefficient list is a_0..a_M alongside b_1..b_M (b_0 slot held at zero).
    """

    h: PowerSeries
    g: PowerSeries

    def __post_init__(self):
        if self.h.order != self.g.order:
            raise ValueError("analytic and co-analytic parts need equal order")
        if self.g.coeffs[0] != 0:
            raise ValueError("co-analytic part must vanish at the origin")

    @property
    def order(self) -> int:
        return self.h.order

    def coefficient_moduli(self) -> np.ndarray:
        """Array with entry m equal to |a_m| + |b_m|."""
        return np.abs(self.h.coeffs) + np.abs(self.g.coeffs)

    def __repr__(self) -> str:
        return f"HarmonicMap(order={self.order})"


def eval_harmonic(f: HarmonicMap, z):
    """f(z) = h(z) + conj(g(z)), scalar or vectorized like ``evaluate``.

    h and g run as the two rows of one Horner chain.
    """
    h, g = _evaluate_rows((f.h.coeffs, f.g.coeffs), z)
    return h + np.conj(g)


def _check_circle(radius: float, samples: int) -> None:
    _check_param("radius", radius)
    _check_count("samples", samples, 1)


# A warm 4,096-point build takes 80-170 us (2-vCPU Xeon, numpy 2.4), which
# the closed-form boundary_reach of every verify item would pay again
# without the cache; one `selfcheck --quick` asks for it 15 times over four
# sample counts.
@functools.lru_cache(maxsize=4)
def _unit_roots(samples: int) -> np.ndarray:
    """exp(2 pi i j / samples), j = 0..samples-1, shared by every caller, so read-only.

    Four entries: 64 KB each at the 4096 samples of ``boundary_reach``.
    """
    angles = 2.0 * np.pi * np.arange(samples) / samples
    roots = np.exp(1j * angles)
    roots.setflags(write=False)
    return roots


def circle_grid(radius: float, samples: int) -> np.ndarray:
    """Equispaced points radius * exp(2 pi i j / samples), j = 0..samples-1."""
    _check_circle(radius, samples)
    return radius * _unit_roots(samples)


def evaluate_on_circle(f: PowerSeries | HarmonicMap, radius: float, samples: int) -> np.ndarray:
    """f at the points of ``circle_grid(radius, samples)``, by one inverse FFT.

    For a series with w = exp(2 pi i / samples), sum_m c_m (radius w^j)^m =
    sum_k F_k w^(jk) where F_k sums c_m radius^m over m = k mod samples, and
    that is samples * ifft(F): O(M + N log N) against Horner's O(M N).  For
    a harmonic map, conj(g(radius w^j)) = sum_m conj(b_m) radius^m w^(-jm),
    so conj(b_m) radius^m joins F at frequency -m, and h + conj(g) comes
    out of the same inverse FFT.  ``evaluate`` and ``eval_harmonic`` stay
    the way to arbitrary points; ``dilatation_residual`` takes this route
    for points that are a ``circle_grid``.
    """
    # np.fft is loaded on first use, which keeps it out of ``import bohrmap``
    return samples * np.fft.ifft(_circle_spectrum(f, radius, samples))


def _circle_spectrum(f: PowerSeries | HarmonicMap, radius: float, samples: int) -> np.ndarray:
    """F of ``evaluate_on_circle``: f's terms at ``radius`` folded onto ``samples`` frequencies."""
    _check_circle(radius, samples)
    if isinstance(f, HarmonicMap):
        h, b = f.h.coeffs, f.g.coeffs[1:]
    elif isinstance(f, PowerSeries):
        h, b = f.coeffs, f.coeffs[:0]
    else:
        raise TypeError("f must be a PowerSeries or HarmonicMap")
    # radius^m is below 2^-26 of the smallest subnormal once m log2(1/radius)
    # passes 1100, where pow returns +0.0 by a slow path (0.2 ms for the last
    # 1,400 of 2,001 terms at radius 0.3, 2-vCPU Xeon, numpy 2.4); those
    # zeros are written directly and the other powers come from pow
    live = len(h)
    if radius > 0.0:
        live = min(live, math.floor(1100.0 / -math.log2(radius)) + 1)
    powers = np.zeros(len(h))
    powers[:live] = radius ** np.arange(live, dtype=np.float64)
    # a_m radius^m at index m and conj(b_m) radius^m at index len - m, which
    # is -m mod samples; the two runs never overlap
    folded = np.zeros(-(-(len(h) + len(b)) // samples) * samples, dtype=np.complex128)
    folded[: len(h)] = h * powers
    folded[len(folded) - len(b) :] = (np.conj(b) * powers[1 : len(b) + 1])[::-1]
    return folded.reshape(-1, samples).sum(axis=0)
