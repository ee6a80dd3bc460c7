"""Schwarz functions and subordination checks.

A Schwarz function is an analytic self-map of the disk fixing the origin.
Composition with one produces a subordinate map, and subordinates inherit
coefficient-majorant domination at r <= 1/3.  This module builds checkable
Schwarz functions (rotations, monomials, rotated Blaschke-type products,
and seeded random draws of the latter), composes catalog maps with them,
and measures the domination margin empirically.

Compositions work at order 200.  At the radii involved (r <= 1/3 for the
domination statements, with Blaschke zeros drawn with modulus <= 0.8) the
dropped tails are far below 1e-12, which the stated -1e-9 margin tolerance
absorbs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bohr import BohrProfile, _sums, verify_inequality
from .catalog import NamedMap, make_map
from .radii import RadiusProblem
from .series import (
    DEFAULT_COMPOSE_ORDER,
    HarmonicMap,
    PowerSeries,
    cauchy_product,
    circle_grid,
    compose,
    evaluate,
)
from .solver import min_rule_radius

SCHWARZ_GRID = 256
SCHWARZ_RADIUS = 0.999
SCHWARZ_SUP_TOL = 1e-6
MAX_BLASCHKE_MODULUS = 0.8
MAX_RANDOM_DEGREE = 8
DOMINATION_TOL = 1e-9


@dataclass(frozen=True)
class SchwarzFunction:
    """A Schwarz function as a truncated series plus a readable description.

    For seeded random draws the description names the seed and degree, so
    campaign reports stay reproducible.
    """

    series: PowerSeries
    description: str


def schwarz_sup(psi: PowerSeries) -> float:
    """max |psi| over 256 equispaced points on |z| = 0.999."""
    points = circle_grid(SCHWARZ_RADIUS, SCHWARZ_GRID)
    return float(np.max(np.abs(evaluate(psi, points))))


def _checked(fn: SchwarzFunction, internal: bool) -> SchwarzFunction:
    sup = schwarz_sup(fn.series)
    if sup > 1.0 + SCHWARZ_SUP_TOL:
        msg = f"Schwarz check failed for {fn.description}: sup {sup!r} > 1"
        if internal:
            raise RuntimeError(msg)
        raise ValueError(msg)
    return fn


def monomial_schwarz(c: complex, j: int) -> SchwarzFunction:
    """psi(z) = c z^j with |c| <= 1 and j >= 1."""
    if j < 1:
        raise ValueError("j must be >= 1")
    c = complex(c)
    if abs(c) > 1.0:
        raise ValueError("|c| must be <= 1")
    coeffs = np.zeros(j + 1, dtype=np.complex128)
    coeffs[j] = c
    fn = SchwarzFunction(
        series=PowerSeries(coeffs),
        description=f"monomial(c={c:.6g}, j={j})",
    )
    return _checked(fn, internal=False)


def blaschke_schwarz(
    zeros, rotation: float = 0.0, order: int = DEFAULT_COMPOSE_ORDER
) -> SchwarzFunction:
    """psi(z) = e^{i rotation} z prod_j (z - w_j)/(1 - conj(w_j) z).

    Each factor expands to c_0 = -w and c_m = conj(w)^{m-1} (1 - |w|^2) for
    m >= 1; factors are multiplied out and truncated at ``order``.  An empty
    zero list gives the pure rotation.
    """
    zeros = [complex(w) for w in zeros]
    if any(abs(w) >= 1.0 for w in zeros):
        raise ValueError("Blaschke zeros must satisfy |w| < 1")
    if order < max(2, len(zeros) + 1):
        raise ValueError("order too small for the requested product")
    prefactor = np.zeros(order + 1, dtype=np.complex128)
    prefactor[1] = np.exp(1j * float(rotation))
    series = PowerSeries(prefactor)
    m = np.arange(1, order + 1)
    for w in zeros:
        factor = np.empty(order + 1, dtype=np.complex128)
        factor[0] = -w
        factor[1:] = np.conj(w) ** (m - 1) * (1.0 - abs(w) ** 2)
        series = cauchy_product(series, PowerSeries(factor))
    fn = SchwarzFunction(
        series=series,
        description=f"blaschke(degree={len(zeros)}, rotation={float(rotation):.6g})",
    )
    return _checked(fn, internal=True)


def random_schwarz(
    seed: int, degree: int, order: int = DEFAULT_COMPOSE_ORDER
) -> SchwarzFunction:
    """Seed-deterministic rotated Blaschke-type product of the given degree.

    degree in [0, 8]; 0 is the pure-rotation edge case.  Zero moduli are
    drawn in [0, 0.8]: keeping zeros away from the circle keeps the order-200
    truncation honest at the |z| = 0.999 sup check.
    """
    if not 0 <= degree <= MAX_RANDOM_DEGREE:
        raise ValueError(f"degree must lie in [0, {MAX_RANDOM_DEGREE}]")
    rng = np.random.default_rng(seed)
    rotation = rng.uniform(0.0, 2.0 * np.pi)
    moduli = rng.uniform(0.0, MAX_BLASCHKE_MODULUS, degree)
    angles = rng.uniform(0.0, 2.0 * np.pi, degree)
    zeros = moduli * np.exp(1j * angles)
    fn = blaschke_schwarz(zeros, rotation, order)
    return replace(fn, description=f"random(seed={seed}, degree={degree})")


def subordinate(f, psi: SchwarzFunction):
    """f composed with psi: a PowerSeries or a HarmonicMap, matching f.

    Harmonic maps compose component-wise (h o psi and g o psi), truncated
    at order min(f.order, 200).
    """
    order = min(f.order, DEFAULT_COMPOSE_ORDER)
    if isinstance(f, HarmonicMap):
        return HarmonicMap(
            compose(f.h, psi.series, order), compose(f.g, psi.series, order)
        )
    if isinstance(f, PowerSeries):
        return compose(f, psi.series, order)
    raise TypeError("f must be a PowerSeries or HarmonicMap")


def check_domination(
    f: PowerSeries,
    psi: SchwarzFunction,
    r_grid=None,
    M: int | None = None,
) -> float:
    """Worst margin of sum |a_m| r^m - sum |(f o psi)_m| r^m over the grid.

    The grid must be nonempty and sit in (0, 1/3], where subordination
    forces the composite sum below the original.  A margin >= -DOMINATION_TOL
    counts as holding; anything lower is a genuine counterexample to the
    implementation.
    """
    if r_grid is None:
        r_grid = np.linspace(1.0 / 48.0, 1.0 / 3.0, 16)
    r_grid = np.asarray(r_grid, dtype=np.float64)
    if r_grid.size == 0:
        raise ValueError("r_grid must not be empty")
    if not np.all((r_grid > 0.0) & (r_grid <= 1.0 / 3.0)):
        raise ValueError("r_grid must lie in (0, 1/3]")
    if M is None:
        M = min(f.order, DEFAULT_COMPOSE_ORDER)
    base = _sums(np.abs(f.truncated(M).coeffs[1:]), r_grid)
    composed = _sums(np.abs(compose(f, psi.series, M).coeffs[1:]), r_grid)
    return min(b - c for b, c in zip(base, composed))


def check_harmonic_subordination_bound(f1: HarmonicMap, p: RadiusProblem) -> BohrProfile:
    """Bohr profile of a subordinate harmonic map up to the min-rule radius.

    The radius is min(1/3, base radius of p).  Tail constant 0: the inputs
    here are exact truncations whose dropped-tail contribution at r <= 1/3
    is below 1e-12 at order 200.
    """
    return verify_inequality(
        f1, p, map_id="subordinate", radius=min_rule_radius(p), tail_constant=0.0
    )


def domination_campaign(
    seeds=range(200),
    map_names=("koebe_analytic", "half_plane_analytic"),
    order: int = DEFAULT_COMPOSE_ORDER,
) -> dict:
    """Seeded sweep of check_domination across random Schwarz functions.

    Each seed draws a product of degree 1 + seed mod 8 and runs against
    every named map.  Returns a JSON-able report with per-case margins,
    the overall worst margin and the verdict ``all_pass``: the worst
    margin is at least -DOMINATION_TOL.  Empty seed or map lists are
    refused: a report with no case checked would read as holding.
    """
    seeds, map_names = list(seeds), tuple(map_names)
    if not seeds or not map_names:
        raise ValueError("a campaign needs at least one seed and one map")
    bases = {
        name: make_map(NamedMap(name, order=order)).h for name in map_names
    }
    cases = []
    for seed in seeds:
        psi = random_schwarz(seed, degree=1 + seed % MAX_RANDOM_DEGREE, order=order)
        for name in map_names:
            m = check_domination(bases[name], psi)
            cases.append(
                {"seed": int(seed), "psi": psi.description, "map": name, "margin": m}
            )
    worst = min(c["margin"] for c in cases)
    return {
        "order": order,
        "count": len(cases),
        "worst_margin": worst,
        "cases": cases,
        "all_pass": worst >= -DOMINATION_TOL,
    }
