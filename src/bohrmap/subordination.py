"""Schwarz functions and subordination checks.

A Schwarz function is an analytic self-map of the disk fixing the origin.
Composition with one produces a subordinate map, and subordinates inherit
coefficient-majorant domination at r <= 1/3.  This module builds Schwarz
functions (monomials, and seeded random draws of rotated Blaschke-type
products), every one past SchwarzFunction's sup check, composes catalog
maps with them, and measures the domination margin empirically.

Subordinates compose at order min(f.order, DEFAULT_COMPOSE_ORDER), the
campaign at its ``--order``.  At r <= 1/3, with Blaschke zeros of modulus
<= 0.8, the dropped tails are estimated far below 1e-12, well inside the
-1e-9 margin tolerance; nothing bounds them yet (ROADMAP item 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bohr import BohrProfile, _sums, verify_inequality
from .catalog import NamedMap, make_map
from .radii import RadiusProblem
from .series import (
    DEFAULT_COMPOSE_ORDER,
    HarmonicMap,
    PowerSeries,
    _check_count,
    _check_param,
    compose,
    evaluate_on_circle,
)
from .solver import min_rule_radius

SCHWARZ_GRID = 256
SCHWARZ_RADIUS = 0.999
SCHWARZ_SUP_TOL = 1e-6
MAX_BLASCHKE_MODULUS = 0.8
MAX_RANDOM_DEGREE = 8
CAMPAIGN_MAPS = ("koebe_analytic", "half_plane_analytic")
DOMINATION_TOL = 1e-9
# The radii check_domination compares the two Bohr sums at.
DOMINATION_GRID = np.linspace(1.0 / 48.0, 1.0 / 3.0, 16)
DOMINATION_GRID.setflags(write=False)


def schwarz_sup(psi: PowerSeries) -> float:
    """max |psi| over 256 equispaced points on |z| = 0.999."""
    return float(np.max(np.abs(evaluate_on_circle(psi, SCHWARZ_RADIUS, SCHWARZ_GRID))))


@dataclass(frozen=True)
class SchwarzFunction:
    """A truncated series plus a readable description, checked as a Schwarz function.

    However it is built, it refuses a series whose sup on |z| = 0.999 exceeds
    1 + SCHWARZ_SUP_TOL; a seeded draw's description names its seed and degree.
    """

    series: PowerSeries
    description: str

    def __post_init__(self):
        sup = schwarz_sup(self.series)
        if sup > 1.0 + SCHWARZ_SUP_TOL:
            raise ValueError(f"Schwarz check failed for {self.description}: sup {sup!r} > 1")


def monomial_schwarz(c: complex, j: int) -> SchwarzFunction:
    """psi(z) = c z^j with |c| <= 1 and j >= 1."""
    _check_count("j", j, 1)
    _check_param("c", c)
    c = complex(c)
    coeffs = np.zeros(j + 1, dtype=np.complex128)
    coeffs[j] = c
    return SchwarzFunction(PowerSeries(coeffs), f"monomial(c={c:.6g}, j={j})")


def _blaschke_product(zeros: list[complex], rotation: float, order: int) -> PowerSeries:
    """e^{i rotation} z prod_j (z - w_j)/(1 - conj(w_j) z) through ``order``.

    Each factor expands to c_0 = -w and c_m = conj(w)^{m-1} (1 - |w|^2) for
    m >= 1; factors are multiplied out on arrays, each product truncated at
    ``order``, and the result becomes one series.
    """
    _check_count("order", order, max(2, len(zeros) + 1))
    product = np.zeros(order + 1, dtype=np.complex128)
    product[1] = np.exp(1j * float(rotation))
    m = np.arange(1, order + 1)
    for w in zeros:
        factor = np.empty(order + 1, dtype=np.complex128)
        factor[0] = -w
        factor[1:] = np.conj(w) ** (m - 1) * (1.0 - abs(w) ** 2)
        product = np.convolve(product, factor)[: order + 1]
    return PowerSeries(product)


def random_schwarz(
    seed: int, degree: int, order: int = DEFAULT_COMPOSE_ORDER
) -> SchwarzFunction:
    """Seed-deterministic rotated Blaschke-type product of the given degree.

    degree in [0, 8]; 0 is the pure-rotation edge case.  Zero moduli are
    drawn in [0, 0.8]: keeping zeros away from the circle keeps the order-200
    truncation honest at the |z| = 0.999 sup check.
    """
    _check_count("seed", seed, 0)
    _check_count("degree", degree, 0)
    if degree > MAX_RANDOM_DEGREE:
        raise ValueError(f"degree must lie in [0, {MAX_RANDOM_DEGREE}]")
    rng = np.random.default_rng(seed)
    rotation = rng.uniform(0.0, 2.0 * np.pi)
    moduli = rng.uniform(0.0, MAX_BLASCHKE_MODULUS, degree)
    angles = rng.uniform(0.0, 2.0 * np.pi, degree)
    zeros = [complex(w) for w in moduli * np.exp(1j * angles)]
    series = _blaschke_product(zeros, rotation, order)
    return SchwarzFunction(series, f"random(seed={seed}, degree={degree})")


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


def check_domination(f: PowerSeries, psi: SchwarzFunction, M: int | None = None) -> float:
    """Worst margin of sum |a_m| r^m - sum |(f o psi)_m| r^m over DOMINATION_GRID.

    The grid sits in (0, 1/3], where subordination forces the composite
    sum below the original; f keeps its own sums per M in its ``_memo``.
    Every psi the type admits has passed its sup check, so a margin below
    -DOMINATION_TOL is a counterexample to the implementation.
    """
    if M is None:
        M = min(f.order, DEFAULT_COMPOSE_ORDER)
    _check_count("M", M, 0)
    key = ("domination sums", M)
    if key not in f._memo:
        f._memo[key] = tuple(_sums(np.abs(f.truncated(M).coeffs[1:]), DOMINATION_GRID))
    composed = _sums(np.abs(compose(f, psi.series, M).coeffs[1:]), DOMINATION_GRID)
    return min(b - c for b, c in zip(f._memo[key], composed))


def check_harmonic_subordination_bound(f1: HarmonicMap, p: RadiusProblem) -> BohrProfile:
    """Bohr profile of a subordinate harmonic map up to the min-rule radius.

    The radius is min(1/3, base radius of p).  Tail constant 0: the dropped
    tail of these order-200 truncations at r <= 1/3 is estimated below
    1e-12, not bounded; Rogosinski's bound is still to come (ROADMAP item 3).
    """
    return verify_inequality(
        f1, p, map_id="subordinate", radius=min_rule_radius(p), tail_constant=0.0
    )


def domination_campaign(
    seeds=range(200),
    map_names=CAMPAIGN_MAPS,
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
            m = check_domination(bases[name], psi, M=order)
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
