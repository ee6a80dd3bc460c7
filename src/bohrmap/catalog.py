"""Catalog of the extremal and reference maps.

Seven maps recur in the sharpness analysis.  Two are analytic (the Koebe
function and the right half-plane map), five are harmonic.  Each is available
both as a truncated coefficient model, for Bohr partial sums, and as a closed
form, for independent evaluation on the disk.

``MAP_TABLE`` holds one ``MapSpec`` record per map: its alias, coefficient
model, closed form, tail constant, boundary distance and the radius variants
it is a documented witness for.  Adding a map means adding one record;
the name indexes ``MAP_NAMES`` and ``ALIASES`` are derived from the table,
and whether a map takes k is read from its record.

Coefficient models (m >= 1, everything else zero):

    koebe_analytic       a_m = m
    half_plane_analytic  a_m = 1
    harmonic_koebe_K     a_m = (m+1)(2m+1)/6,  b_m = (m-1)(2m-1)/6
    half_plane_L         a_m = (m+1)/2,        b_m = (1-m)/2
    f0_sharp             a_m = m,              b_m = (m-1)^2/m
    p_k                  a_m = m,              b_m = k m
    q_k                  a_m = 1,              b_m = k
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .series import DEFAULT_ORDER, HarmonicMap, PowerSeries


def _koebe(z):
    return z / (1.0 - z) ** 2


def _half(z):
    return z / (1.0 - z)


def _harmonic_koebe(z, k):
    one = 1.0 - z
    h = (z - z**2 / 2.0 + z**3 / 6.0) / one**3
    g = (z**2 / 2.0 + z**3 / 6.0) / one**3
    return h + np.conj(g)


def _half_plane_L(z, k):
    one = 1.0 - z
    h = (z - z**2 / 2.0) / one**2
    g = -(z**2) / 2.0 / one**2
    return h + np.conj(g)


def _f0(z, k):
    # g0 = sum (m-1)^2/m z^m = koebe - 2*half - log(1-z), termwise.
    g0 = _koebe(z) - 2.0 * _half(z) - np.log1p(-z)
    return _koebe(z) + np.conj(g0)


@dataclass(frozen=True)
class MapSpec:
    """One catalog map: its coefficients, closed form and presets.

    ``coefficients(m, k)`` gives (a_m, b_m) on the array m = 1..order and
    ``closed_form(z, k)`` gives f(z) for |z| < 1; k is the dilatation bound
    of a ``parametric`` map and None otherwise.  ``tail_constant`` is a C
    with |a_m| + |b_m| <= C m^2 for every m >= 1 (it feeds the tail bound),
    ``distance`` the distance from f(0) to the image boundary where known in
    closed form (the d of the distance-scaled bounds).  ``witness_for``
    lists the variants whose hypotheses the map satisfies, and ``pins``
    the variant parameters it is a witness at, where it is one member of
    a family.
    """

    name: str
    alias: str | None
    parametric: bool
    tail_constant: float
    distance: float | None
    coefficients: Callable[[np.ndarray, float | None], tuple]
    closed_form: Callable[[np.ndarray, float | None], np.ndarray]
    witness_for: tuple[str, ...]
    pins: tuple[tuple[str, float], ...] = ()


MAP_TABLE = (
    MapSpec("koebe_analytic", "koebe", False, 2.0, 0.25,
            lambda m, k: (m, 0.0), lambda z, k: _koebe(z),
            ("thm11_univalent", "thm22_bohr")),
    MapSpec("half_plane_analytic", "half_plane", False, 1.0, 0.5,
            lambda m, k: (1.0, 0.0), lambda z, k: _half(z),
            ("thm11_univalent", "thm11_convex", "thm22_bohr")),
    MapSpec("harmonic_koebe_K", "K", False, 1.0, None,
            lambda m, k: ((m + 1.0) * (2.0 * m + 1.0) / 6.0, (m - 1.0) * (2.0 * m - 1.0) / 6.0),
            _harmonic_koebe, ("thm210_convex_direction_s0",)),
    MapSpec("half_plane_L", "L", False, 1.0, None,
            lambda m, k: ((m + 1.0) / 2.0, (1.0 - m) / 2.0), _half_plane_L,
            ("thm210_convex_direction_s0", "thm211_convex")),
    # f0's dilatation is z itself: the k = 1, n = 1 member of the family.
    MapSpec("f0_sharp", "f0", False, 2.0, 0.25,
            lambda m, k: (m, (m - 1.0) ** 2 / m), _f0,
            ("thm24_monomial", "cor25_monomial"), pins=(("k", 1.0), ("n", 1))),
    MapSpec("p_k", None, True, 2.0, 0.25,
            lambda m, k: (m, k * m), lambda z, k: _koebe(z) + k * np.conj(_koebe(z)),
            ("thm12_quasi", "thm23_quasi")),
    MapSpec("q_k", None, True, 2.0, 0.5,
            lambda m, k: (1.0, k), lambda z, k: _half(z) + k * np.conj(_half(z)),
            ("thm12_quasi_convex", "thm23_quasi_convex", "thm23_quasi")),
)

MAP = {spec.name: spec for spec in MAP_TABLE}
MAP_NAMES = tuple(MAP)
ALIASES = {spec.alias: spec.name for spec in MAP_TABLE if spec.alias}


def resolve_name(name: str) -> str:
    """Canonical catalog name, accepting the short aliases."""
    canonical = ALIASES.get(name, name)
    if canonical not in MAP:
        known = ", ".join(MAP_NAMES + tuple(ALIASES))
        raise ValueError(f"unknown map {name!r}; expected one of: {known}")
    return canonical


@dataclass(frozen=True)
class NamedMap:
    """A catalog map selection: canonical name, optional k, truncation order."""

    name: str
    k: float | None = None
    order: int = DEFAULT_ORDER

    def __post_init__(self):
        object.__setattr__(self, "name", resolve_name(self.name))
        if self.record.parametric:
            if self.k is None:
                raise ValueError(f"{self.name} requires the dilatation bound k")
            if not 0.0 <= self.k <= 1.0:
                raise ValueError("k must lie in [0, 1]")
        elif self.k is not None:
            raise ValueError(f"{self.name} takes no k parameter")
        if self.order < 2:
            raise ValueError("order must be >= 2")

    @property
    def record(self) -> MapSpec:
        return MAP[self.name]


def make_map(spec: NamedMap) -> HarmonicMap:
    """Truncated coefficient model of the selected map."""
    order = spec.order
    m = np.arange(1, order + 1, dtype=np.float64)
    a = np.zeros(order + 1, dtype=np.complex128)
    b = np.zeros(order + 1, dtype=np.complex128)
    a[1:], b[1:] = spec.record.coefficients(m, spec.k)
    return HarmonicMap(PowerSeries(a), PowerSeries(b))


def closed_form_eval(spec: NamedMap, z):
    """Evaluate the selected map from its closed form, |z| < 1 required.

    Serves as the truncation-free oracle for the coefficient models: at
    moderate |z| the series and this evaluation must agree to rounding.
    """
    zs = np.asarray(z, dtype=np.complex128)
    if not np.all(np.isfinite(zs)):
        raise ValueError("evaluation points must be finite")
    if np.any(np.abs(zs) >= 1.0):
        raise ValueError("closed forms are only valid for |z| < 1")
    out = spec.record.closed_form(zs, spec.k)
    if zs.ndim == 0:
        return complex(out)
    return out
