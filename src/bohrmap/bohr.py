"""Bohr partial sums with rigorous tails, inequality profiles, sharpness.

The central quantity is S(r) = sum_{m=1..M} (|a_m| + |b_m|) r^m for a
truncated harmonic map.  Each partial sum is paired with a closed-form tail
bound C * sum_{m>M} m^2 r^m, sound whenever the map's coefficients satisfy
|a_m| + |b_m| <= C m^2 for all m; the catalog records a valid C per named
map, and exact polynomials may pass C = 0.  A verdict "pass" at r means
S(r) + tail <= bound, so a pass is a proof at that point, not an estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .catalog import NamedMap, closed_form_eval, make_map
from .radii import RadiusProblem, m2_tail
from .series import HarmonicMap, circle_grid, eval_harmonic
from .solver import solve_radius

DEFAULT_MARGIN = 1e-3
DEFAULT_GRID_SIZE = 256
DEFAULT_TAIL_CONSTANT = 2.0


@dataclass(frozen=True)
class BohrProfile:
    """Grid of partial Bohr sums, tail bounds, and per-point verdicts."""

    map_id: str
    r_grid: np.ndarray
    partial_sums: np.ndarray
    tail_bounds: np.ndarray
    bound: float
    verdicts: np.ndarray = field(init=False)

    def __post_init__(self):
        r = np.asarray(self.r_grid, dtype=np.float64)
        sums = np.asarray(self.partial_sums, dtype=np.float64)
        tails = np.asarray(self.tail_bounds, dtype=np.float64)
        if r.ndim != 1 or sums.shape != r.shape or tails.shape != r.shape:
            raise ValueError("grid, sums, and tails must be 1-d and equal length")
        # written as "all inside" so that NaN, which fails every comparison, is refused
        if not (np.all((r >= 0.0) & (r < 1.0)) and np.all(np.diff(r) > 0.0)):
            raise ValueError("r_grid must be strictly increasing within [0, 1)")
        if not (np.all(sums >= 0.0) and np.all(np.diff(sums) >= 0.0)):
            raise ValueError("partial sums must be nonnegative and nondecreasing")
        if not np.all(tails >= 0.0):
            raise ValueError("tail bounds must be nonnegative")
        _check_bound(self.bound)
        object.__setattr__(self, "r_grid", r)
        object.__setattr__(self, "partial_sums", sums)
        object.__setattr__(self, "tail_bounds", tails)
        object.__setattr__(self, "verdicts", sums + tails <= self.bound)

    @property
    def all_pass(self) -> bool:
        return bool(np.all(self.verdicts))

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
    if not 0.0 <= r < 1.0:
        raise ValueError("r must lie in [0, 1)")
    moduli = _checked_moduli(f, M, tail_constant)
    (total,) = _sums(moduli, [r])
    return total, tail_constant * m2_tail(r, len(moduli))


def _checked_moduli(f: HarmonicMap, M: int | None, tail_constant: float) -> np.ndarray:
    """|a_m| + |b_m| for m = 1..M, after checking M and the tail constant."""
    if M is None:
        M = f.order
    if not 0 <= M <= f.order:
        raise ValueError("M must lie in [0, truncation order]")
    if tail_constant < 0.0:
        raise ValueError("tail_constant must be >= 0")
    return f.coefficient_moduli()[1 : M + 1]


def _sums(moduli: np.ndarray, rs) -> list[float]:
    """sum_{m=1..len(moduli)} moduli[m-1] r^m for each r in rs, as floats.

    One dot product per radius: a (grid x M) matrix product rounds
    differently, and each sum must equal bohr_partial_sum's bit for bit.
    """
    exps = np.arange(1, len(moduli) + 1, dtype=np.float64)
    return [float(moduli @ (float(r) ** exps)) for r in rs]


def _check_bound(bound: float) -> None:
    if not (math.isfinite(bound) and bound > 0.0):
        raise ValueError("bound must be positive and finite")


def _radius_and_bound(
    p: RadiusProblem, radius: float | None, bound: float | None
) -> tuple[float, float]:
    """The given radius and bound, else p's solved radius and own bound."""
    if radius is None:
        radius = solve_radius(p).root
    if bound is None:
        bound = p.bound()
    bound = float(bound)
    _check_bound(bound)
    return radius, bound


def verify_inequality(
    f: HarmonicMap,
    p: RadiusProblem,
    *,
    map_id: str = "custom",
    bound: float | None = None,
    radius: float | None = None,
    margin: float = DEFAULT_MARGIN,
    grid_size: int = DEFAULT_GRID_SIZE,
    M: int | None = None,
    tail_constant: float = DEFAULT_TAIL_CONSTANT,
) -> BohrProfile:
    """Profile of the Bohr inequality on r in [0, radius - margin].

    The radius defaults to the solved radius of p, the bound to p's own;
    a distance-scaled variant has none, and takes the boundary distance d
    as ``bound``.  Failing verdicts are data, not errors: the profile
    reports them and ``all_pass`` summarizes.
    """
    if not margin > 0.0:
        raise ValueError("margin must be positive")
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    radius, bound = _radius_and_bound(p, radius, bound)
    top = radius - margin
    if not 0.0 < top < 1.0:
        raise ValueError("radius - margin must lie in (0, 1)")
    grid = np.linspace(0.0, top, grid_size)
    moduli = _checked_moduli(f, M, tail_constant)
    return BohrProfile(
        map_id=map_id,
        r_grid=grid,
        partial_sums=_sums(moduli, grid),
        tail_bounds=[tail_constant * m2_tail(float(r), len(moduli)) for r in grid],
        bound=bound,
    )


def sharpness_scan(
    f: HarmonicMap,
    p: RadiusProblem,
    epsilon: float,
    *,
    bound: float | None = None,
) -> float:
    """Partial sum at (radius + epsilon) minus the bound.

    For a theorem's extremal map the sum meets the bound at the radius with
    equality, so any epsilon > 0 must give a strictly positive excess; that
    excess is returned (no tail is added: the truncated sum alone already
    overshooting is the demonstration).
    """
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    radius, bound = _radius_and_bound(p, None, bound)
    r = radius + epsilon
    if not r < 1.0:
        raise ValueError("radius + epsilon must stay below 1")
    total, _ = bohr_partial_sum(f, r, tail_constant=0.0)
    return total - bound


def boundary_reach(
    map_spec: NamedMap | HarmonicMap, r: float, samples: int = 4096
) -> tuple[float, float]:
    """(max |f|, min |f|) over equally spaced points of the circle |z| = r.

    Named maps are evaluated from their closed forms, arbitrary harmonic
    maps from their truncated series.  The minimum is the sampled distance
    from f(0) = 0 to the image curve; no exact boundary distance is
    computed.
    """
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie in (0, 1)")
    if samples < 64:
        raise ValueError("samples must be >= 64")
    points = circle_grid(r, samples)
    if isinstance(map_spec, NamedMap):
        values = closed_form_eval(map_spec, points)
    elif isinstance(map_spec, HarmonicMap):
        values = eval_harmonic(map_spec, points)
    else:
        raise TypeError("map_spec must be a NamedMap or HarmonicMap")
    moduli = np.abs(values)
    return float(np.max(moduli)), float(np.min(moduli))


def check_pairing(spec: NamedMap, p: RadiusProblem) -> None:
    """Raise unless the named map satisfies the variant's hypotheses.

    The CLI uses this to refuse meaningless verify/sharpness runs; the
    library functions accept any pairing so tests can probe failures.
    """
    allowed = spec.record.witness_for
    if p.variant not in allowed:
        raise ValueError(
            f"{spec.name} is not a documented extremal/witness for {p.variant}; "
            f"valid variants: {', '.join(allowed) or 'none'}"
        )
    pins = [(key, value) for key, value in spec.record.pins if key in p.record.params]
    if any(getattr(p, key) != value for key, value in pins):
        at = ", ".join(f"{key} = {value:g}" for key, value in pins)
        raise ValueError(f"{spec.name} matches {p.variant} only at {at}")
    if spec.record.parametric and p.K is not None:
        k_max = (p.K - 1.0) / (p.K + 1.0)
        if spec.k > k_max + 1e-12:
            raise ValueError(
                f"map k = {spec.k:g} exceeds (K-1)/(K+1) = {k_max:g}; "
                "the map is not K-quasiconformal for this K"
            )


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
    check_pairing(spec, p)
    kwargs = {"bound": bound} if bound is not None else default_bound_inputs(spec, p)
    return verify_inequality(
        make_map(spec),
        p,
        map_id=spec.name,
        margin=margin,
        grid_size=grid_size,
        tail_constant=spec.record.tail_constant,
        **kwargs,
    )
