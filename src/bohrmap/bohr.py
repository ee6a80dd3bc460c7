"""Bohr partial sums with rigorous tails, inequality profiles, sharpness.

The central quantity is S(r) = sum_{m=1..M} (|a_m| + |b_m|) r^m for a
truncated harmonic map.  Each partial sum is paired with a closed-form tail
bound C * sum_{m>M} m^2 r^m, sound whenever the map's coefficients satisfy
|a_m| + |b_m| <= C m^2 for all m; the catalog records a valid C per named
map, and exact polynomials may pass C = 0.  A verdict "pass" at r means
S(r) + rounding + tail <= bound, where the rounding term bounds the error of
the computed sum, so a pass is a proof at that point, not an estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .catalog import MAP, NamedMap, closed_form_eval, make_map
from .radii import VARIANT, RadiusProblem, _m2_tails, m2_tail
from .series import DEFAULT_ORDER, HarmonicMap, _check_count, _check_param, _circle_spectrum
from .series import circle_grid
from .solver import solve_radius

DEFAULT_MARGIN = 1e-3
DEFAULT_GRID_SIZE = 256
DEFAULT_TAIL_CONSTANT = 2.0
# From this many chains on, _horner runs Horner on a numpy vector of radii;
# below it, on one Python float per chain.  Each form is the faster one
# where it runs: whatever the chain length, the two cross between 32 and 44
# chains, near 40 over repeated runs (2-vCPU Xeon, Python 3.11, numpy 2.4).
# Both perform the same IEEE binary64 operations, acc = (acc + c) * r, in
# the same order, so every sum is the same bit for bit.
HORNER_VECTOR_RADII = 40
_UNIT_ROUNDOFF = 2.0**-53
_SMALLEST_SUBNORMAL = 2.0**-1074


@dataclass(frozen=True, eq=False)
class BohrProfile:
    """Grid of partial Bohr sums, tail bounds, and per-point verdicts.

    M is the number of retained terms behind each computed sum; the verdict
    adds ``_rounding_bound(sum, M)`` to sum + tail, and M = 0 takes the sums
    as exact.  Its arrays are read-only copies, and a copy or pickle is rebuilt
    by the constructor; profiles compare by identity.
    """

    map_id: str
    r_grid: np.ndarray
    partial_sums: np.ndarray
    tail_bounds: np.ndarray
    bound: float
    M: int = 0
    verdicts: np.ndarray = field(init=False)

    def __post_init__(self):
        r = np.array(self.r_grid, dtype=np.float64)
        sums = np.array(self.partial_sums, dtype=np.float64)
        tails = np.array(self.tail_bounds, dtype=np.float64)
        if r.ndim != 1 or sums.shape != r.shape or tails.shape != r.shape:
            raise ValueError("grid, sums, and tails must be 1-d and equal length")
        # written as "all inside" so that NaN, which fails every comparison, is
        # refused, and inf with it
        if not (((r >= 0.0) & (r < 1.0)).all() and (r[1:] > r[:-1]).all()):
            raise ValueError("r_grid must be strictly increasing within [0, 1)")
        if not (((sums >= 0.0) & (sums < math.inf)).all() and (sums[1:] >= sums[:-1]).all()):
            raise ValueError("partial sums must be finite, nonnegative and nondecreasing")
        if not ((tails >= 0.0) & (tails < math.inf)).all():
            raise ValueError("tail bounds must be finite and nonnegative")
        _check_param("bound", self.bound)
        _check_count("M", self.M, 0)
        verdicts = sums + _rounding_bound(sums, self.M) + tails <= self.bound
        arrays = {"r_grid": r, "partial_sums": sums, "tail_bounds": tails, "verdicts": verdicts}
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __reduce__(self):
        return BohrProfile, tuple(getattr(self, f.name) for f in fields(self) if f.init)

    @property
    def all_pass(self) -> bool:
        return bool(self.verdicts.all())

    def to_dict(self) -> dict:
        return {
            "map_id": self.map_id,
            "r_grid": [float(x) for x in self.r_grid],
            "partial_sums": [float(x) for x in self.partial_sums],
            "tail_bounds": [float(x) for x in self.tail_bounds],
            "bound": self.bound,
            "verdicts": [bool(v) for v in self.verdicts],
        }


def bohr_partial_sum(
    f: HarmonicMap,
    r: float,
    M: int | None = None,
    tail_constant: float = DEFAULT_TAIL_CONSTANT,
) -> tuple[float, float]:
    """(sum_{m=1..M} (|a_m|+|b_m|) r^m, tail bound) at radius r.

    M defaults to the truncation order and may not exceed it.  The tail is
    tail_constant * sum_{m>M} m^2 r^m in closed form; pass the catalog's
    constant for named maps, 0 for exact polynomials.
    """
    _check_param("r", r)
    moduli = _checked_moduli(f, M, tail_constant)
    (total,) = _sums(moduli, [r])
    return total, tail_constant * m2_tail(r, len(moduli))


def _checked_moduli(f: HarmonicMap, M: int | None, tail_constant: float) -> np.ndarray:
    """|a_m| + |b_m| for m = 1..M, after checking M and the tail constant."""
    if M is None:
        M = f.order
    _check_count("M", M, 0)
    if M > f.order:
        raise ValueError("M must lie in [0, truncation order]")
    _check_param("tail_constant", tail_constant)
    # |a_m| + |b_m| may overflow to inf; _horner then refuses the sum
    with np.errstate(over="ignore"):
        return f.coefficient_moduli()[1 : M + 1]


def _sums(moduli: np.ndarray, rs) -> list[float]:
    """sum_{m=1..M} moduli[m-1] r^m for each r in rs, as floats, M = len(moduli).

    The value is that of the full Horner chain from m = M down, acc_{M+1} =
    0 and acc_m = fl(fl(acc_{m+1} + c_m) * r) with c_m = moduli[m-1]: 2M
    roundings, so for nonnegative moduli and r >= 0 each sum lies within
    ``_rounding_bound`` of the exact one.  Whatever the number of radii, a
    sum equals bohr_partial_sum's bit for bit (see HORNER_VECTOR_RADII).

    Past a few dozen terms at r <= 1/2 the rest of the chain cannot change
    a bit, so the chain is run only as deep as needed, and only where that
    is proven.  The proofs rest on one fact: each step x -> fl(fl(x + c) *
    r) is nondecreasing in x, since rounding to nearest is monotone and c,
    r >= 0 (the moduli are nonnegative, zeros being +0.0 as |a| + |b|
    gives them; then the step depends on x only through its value, so +0.0
    and -0.0 lead to the same bits).

    Sandwich.  The head H(x) runs the first m0 steps of the chain (m = m0
    down to 1) from seed acc_{m0+1} = x.  Rounding is fl(y) <= y(1 + u) +
    2^-1075 for y >= 0 (relative error u = 2^-53 unless the result
    underflows, and then an absolute 2^-1075), so acc_m <= rho (acc_{m+1}
    + c_m) + 2^-1075 with rho = r (1 + u)^2, and by induction from
    acc_{M+1} = 0, 0 <= acc_{m0+1} <= (cmax rho + 2^-1075) / (1 - rho),
    cmax the largest modulus.  The seed U below exceeds that bound: it is
    computed at r_max with rho_hat = fl(r (1 + 2^-50)) + 2^-1074 >= r (1 +
    u)^2, a factor 2 that outweighs its four roundings and slack 2^-1070
    that covers 2^-1075 and any underflow in them.  Monotonicity gives
    H(0) <= acc_1 <= H(U), so where H(0) == H(U) the full chain ends on
    that float too; any radius where they differ runs the full chain.  The
    chain from 0 is the full chain's own head, and the chain from U stays
    below U, since rho (U + cmax) + 2^-1075 < U, so requiring U + cmax <=
    2^1000 keeps it finite; where that fails, or the head would be all M
    terms, every radius runs the full chain.  m0 is a guess: a poor one
    costs time, never bits.

    Constant tail.  When c_m = c for every m > t and t <= m0, the sandwich
    does not close, because the rounded step F(x) = fl(fl(x + c) * r) has
    several fixed points near c r / (1 - r).  The chain from 0 runs m0
    steps of F instead (M - t if fewer), and then one more.  Where that
    step leaves its value x unchanged, x is a fixed point, so every later
    step leaves it too and the full chain's M - t constant steps from 0 end
    on x = acc_{t+1}; the t varying steps then finish the chain.  The chain
    from 0 is nondecreasing (F(0) >= 0 and F keeps order), so it rises to
    its first fixed point and stays there; a radius still rising after m0
    steps runs the full chain, as an open radius of the sandwich does.
    """
    rs = np.asarray(rs, dtype=np.float64)
    M = len(moduli)
    if M == 0 or rs.size == 0:
        return [0.0] * rs.size
    r_max = float(rs.max())
    cmax = float(moduli.max())
    rho = r_max * (1.0 + 2.0**-50) + _SMALLEST_SUBNORMAL
    U = 2.0 * (cmax * rho + 2.0**-1070) / (1.0 - rho) if rho < 1.0 else math.inf
    # false for a non-finite modulus and for r_max at or too near 1
    m0 = _head_length(moduli, r_max, cmax) if U + cmax <= 2.0**1000 else M
    if m0 == M:
        return _full_chain(moduli, rs)
    # the route reads t only as t <= m0, and a modulus at index m0 that
    # differs from the last already gives t > m0, with no O(M) scan
    t = m0 + 1
    if moduli[m0] == moduli[-1]:
        varying = np.flatnonzero(moduli != moduli[-1])
        t = int(varying[-1]) + 1 if varying.size else 0
    n = rs.size
    # each route ends on lo <= hi per radius, and closes the radii where they are equal
    if t <= m0:
        lo = _horner(moduli[t : t + m0], rs, np.zeros(n))
        hi = _horner(moduli[t : t + 1], rs, lo)
        out = _horner(moduli[:t], rs, lo) if t else lo
    else:
        seeds = np.zeros(2 * n)
        seeds[n:] = U
        both = _horner(moduli[:m0], np.concatenate((rs, rs)), seeds)
        out = lo = both[:n]
        hi = both[n:]
    if lo != hi:
        open_ = [i for i in range(n) if lo[i] != hi[i]]
        for i, s in zip(open_, _full_chain(moduli, rs[open_])):
            out[i] = s
    return out


# The head is sized so that, to first order, the two sandwich chains end
# 2^-64 of the sum apart, well inside half an ulp.
_HEAD_MARGIN = 64 * math.log(2.0)


def _head_length(moduli: np.ndarray, r_max: float, cmax: float) -> int:
    """Terms m0 after which the chain's rest should not reach the sum's bits at r_max.

    The seed bound is about cmax r / (1 - r), its effect on the sum about
    that times r^m0, and the sum at least c_j r^j for the first nonzero
    modulus c_j; m0 makes the effect e^-_HEAD_MARGIN of that, capped at M.
    """
    M = len(moduli)
    j = int(np.argmax(moduli > 0.0))
    lead = float(moduli[j])
    if lead == 0.0 or r_max == 0.0:
        return min(M, 1)
    need = math.log(cmax) - math.log(lead) - math.log1p(-r_max) + _HEAD_MARGIN
    return min(M, j + math.ceil(need / -math.log(r_max)))


def _full_chain(moduli: np.ndarray, rs: np.ndarray) -> list[float]:
    """The whole Horner chain from 0 for each radius."""
    return _horner(moduli, rs, np.zeros(len(rs)))


def _horner(moduli: np.ndarray, rs: np.ndarray, seeds) -> list[float]:
    """acc = seed, then acc = (acc + c) * r for c = moduli[-1] down to moduli[0], per radius.

    Seeds may be an array or a list; the sums come back as a list of Python
    floats in either form.  Every sum ``_sums`` returns leaves through here,
    so this is where a sum that overflowed, in either form, is refused.
    """
    coeffs = moduli[::-1].tolist()
    if len(rs) >= HORNER_VECTOR_RADII:
        acc = np.array(seeds, dtype=np.float64)
        # overflow to inf stays silent here, as in the float form; each form refuses it below
        with np.errstate(over="ignore", invalid="ignore"):
            for c in coeffs:
                acc += c
                acc *= rs
        if np.isfinite(acc).all():
            return acc.tolist()
    else:
        out = []
        for r, acc in zip(rs.tolist(), map(float, seeds)):
            for c in coeffs:
                acc = (acc + c) * r
            out.append(acc)
        if all(map(math.isfinite, out)):
            return out
    raise ValueError("Bohr sum overflows binary64: the coefficient moduli are too large")


def _rounding_bound(sums, M: int):
    """Bound on |exact - computed| for sums s_hat made by ``_sums`` from M terms.

    Horner on nonnegative data with r >= 0 gives |s_hat - s| <= gamma_2M s,
    gamma_n = nu / (1 - nu), u = 2^-53 (Higham, Accuracy and Stability of
    Numerical Algorithms, eq. 5.3).  In terms of the computed sum that is
    |s_hat - s| <= 2Mu / (1 - 4Mu) s_hat.  A product that underflows errs
    by at most 2^-1075 absolute instead of relatively, and a sum of
    nonnegative numbers never does; the later roundings at most double
    each of those M errors, so M * 2^-1074 covers underflow.
    """
    n = 2 * M
    return n * _UNIT_ROUNDOFF / (1.0 - 2 * n * _UNIT_ROUNDOFF) * sums + M * _SMALLEST_SUBNORMAL


def _radius_and_bound(
    p: RadiusProblem, radius: float | None, bound: float | None
) -> tuple[float, float]:
    """The given radius and bound, else p's solved radius and own bound."""
    if radius is None:
        radius = solve_radius(p).root
    if bound is None:
        bound = p.bound()
    _check_param("bound", bound)
    return radius, float(bound)


def verify_inequality(
    f: HarmonicMap,
    p: RadiusProblem,
    *,
    map_id: str = "custom",
    bound: float | None = None,
    radius: float | None = None,
    margin: float = DEFAULT_MARGIN,
    grid_size: int = DEFAULT_GRID_SIZE,
    tail_constant: float = DEFAULT_TAIL_CONSTANT,
) -> BohrProfile:
    """Profile of the Bohr inequality on r in [0, radius - margin].

    The radius defaults to the solved radius of p, the bound to p's own;
    a distance-scaled variant has none, and takes the boundary distance d
    as ``bound``.  Failing verdicts are data, not errors: the profile
    reports them and ``all_pass`` summarizes.
    """
    _check_param("margin", margin)
    _check_count("grid_size", grid_size, 2)
    radius, bound = _radius_and_bound(p, radius, bound)
    top = radius - margin
    if not 0.0 < top < 1.0:
        raise ValueError("radius - margin must lie in (0, 1)")
    grid = np.linspace(0.0, top, grid_size)
    moduli = _checked_moduli(f, None, tail_constant)
    if tail_constant == 0.0:
        # C * m2_tail is 0 exactly, since m2_tail is finite and >= 0 on [0, 1)
        tails = np.zeros(grid_size)
    else:
        # the grid lies in [0, 1) and M is checked, so m2_tail's checks are skipped
        tails = tail_constant * _m2_tails(grid, len(moduli))
    return BohrProfile(
        map_id=map_id,
        r_grid=grid,
        partial_sums=_sums(moduli, grid),
        tail_bounds=tails,
        bound=bound,
        M=len(moduli),
    )


def sharpness_scan(
    f: HarmonicMap,
    p: RadiusProblem,
    epsilon: float,
    *,
    bound: float | None = None,
) -> float:
    """Partial sum at (radius + epsilon) minus the bound.

    For a theorem's extremal map the sum meets the bound at the radius, so
    any epsilon > 0 must give a strictly positive excess, returned without a
    tail (the truncated sum alone overshooting is the demonstration).  Its
    sign is proven only where radius + epsilon passes the certificate's
    ``hi`` (a closed form's radius itself) and |excess| passes the sum's
    rounding term; an epsilon too small for either is refused.
    """
    _check_param("epsilon", epsilon)
    cert = solve_radius(p)
    radius, bound = _radius_and_bound(p, cert.root, bound)
    r = radius + epsilon
    if not r < 1.0:
        raise ValueError("radius + epsilon must stay below 1")
    if r <= cert.hi:
        raise ValueError("epsilon too small: radius + epsilon lies inside the certified bracket")
    total, _ = bohr_partial_sum(f, r, tail_constant=0.0)
    if abs(total - bound) <= _rounding_bound(total, f.order):
        raise ValueError("epsilon too small: the excess lies within the sum's rounding error")
    return total - bound


def boundary_reach(
    map_spec: NamedMap | HarmonicMap, r: float, samples: int = 4096
) -> tuple[float, float]:
    """(max |f|, min |f|) over equally spaced points of the circle |z| = r.

    Named maps are evaluated from their closed forms, arbitrary harmonic
    maps from their truncated series through the circle spectrum F of
    ``evaluate_on_circle``, in which h's a_m r^m and g's conj(b_m) r^m sit
    at frequencies m and -m.  A complex F takes f = samples * ifft(F).  A
    real F (every catalog map) makes f at w^-j the complex conjugate of f
    at w^j, w = exp(2 pi i / samples), so the moduli at j = 0..samples/2
    are all of them; one ``np.fft.rfft(F.real)`` gives f at those w^-j,
    sum_k F_k w^(-jk), at about half the inverse FFT's cost, and equal to
    its values up to rounding.  The minimum is the sampled distance from
    f(0) = 0 to the image curve; no exact boundary distance is computed.
    """
    _check_param("reach r", r)
    _check_count("samples", samples, 64)
    if isinstance(map_spec, NamedMap):
        values = closed_form_eval(map_spec, circle_grid(r, samples))
    elif isinstance(map_spec, HarmonicMap):
        spectrum = _circle_spectrum(map_spec, r, samples)
        if spectrum.imag.any():
            values = samples * np.fft.ifft(spectrum)
        else:
            values = np.fft.rfft(spectrum.real)
    else:
        raise TypeError("map_spec must be a NamedMap or HarmonicMap")
    moduli = np.abs(values)
    return float(moduli.max()), float(moduli.min())


def check_pairing(spec: NamedMap, p: RadiusProblem, bound: float | None = None) -> dict:
    """Bound keywords for a catalog pairing, refused unless the map meets the variant's hypotheses.

    The given bound, else ``default_bound_inputs``.  The CLI refuses
    meaningless runs with this; the library functions accept any pairing.
    """
    allowed = spec.record.member_of
    if p.variant not in allowed:
        raise ValueError(
            f"{spec.name} is not a member of the class of {p.variant}; "
            f"it is a member of: {', '.join(allowed) or 'none'}"
        )
    pins = [(key, value) for key, value in spec.record.pins if key in p.record.params]
    if any(getattr(p, key) != value for key, value in pins):
        at = ", ".join(f"{key} = {value:g}" for key, value in pins)
        raise ValueError(f"{spec.name} matches {p.variant} only at {at}")
    if spec.record.parametric and p.K is not None:
        k_max = _extremal_k(p.K)
        if spec.k > k_max + 1e-12:
            raise ValueError(
                f"map k = {spec.k:g} exceeds (K-1)/(K+1) = {k_max:g}; "
                "the map is not K-quasiconformal for this K"
            )
    return {"bound": bound} if bound is not None else default_bound_inputs(spec, p)


def _extremal_k(K: float) -> float:
    """The largest map k at which p_k and q_k are K-quasiconformal, where they attain."""
    return (K - 1.0) / (K + 1.0)


def extremal_pairing(name: str, variant: str, K: float | None = None, order: int = DEFAULT_ORDER):
    """(NamedMap, RadiusProblem) for a catalog map and a variant it is a member of, by tag.

    k and n are the map's pins and K the caller's; a parametric map takes
    k = _extremal_k(K).  A map attains each of its ``extremal_for`` radii there.
    """
    values = {"K": K, **dict(MAP[name].pins)}
    p = RadiusProblem(variant, **{key: values.get(key) for key in VARIANT[variant].params})
    return NamedMap(name, k=_extremal_k(K) if MAP[name].parametric else None, order=order), p


def default_bound_inputs(spec: NamedMap, p: RadiusProblem) -> dict:
    """Keyword presets for verify_inequality and sharpness_scan for a catalog pairing.

    Distance-scaled variants take the catalog's boundary distance for the
    map as their ``bound``; other variants need nothing.
    """
    if p.record.bound == "d":
        if spec.record.distance is None:
            raise ValueError(f"no boundary-distance preset for {spec.name}")
        return {"bound": spec.record.distance}
    return {}


def profile_for_named_map(
    spec: NamedMap,
    p: RadiusProblem,
    *,
    bound: float | None = None,
    margin: float = DEFAULT_MARGIN,
    grid_size: int = DEFAULT_GRID_SIZE,
) -> BohrProfile:
    """verify_inequality for a catalog map with its presets filled in."""
    kwargs = check_pairing(spec, p, bound)
    return verify_inequality(
        make_map(spec),
        p,
        map_id=spec.name,
        margin=margin,
        grid_size=grid_size,
        tail_constant=spec.record.tail_constant,
        **kwargs,
    )
