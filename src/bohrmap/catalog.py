"""Catalog of the extremal and reference maps.

Seven maps recur in the sharpness analysis.  Two are analytic (the Koebe
function and the right half-plane map), five are harmonic.  Each is available
both as a truncated coefficient model, for Bohr partial sums, and as a closed
form, for independent evaluation on the disk.

``MAP_TABLE`` holds one ``MapSpec`` record per map: its alias, coefficient
model, closed form, tail constant, boundary distance, the radius variants
whose class it belongs to and those whose radius it attains.  Adding a map
means adding one record; the name indexes ``MAP_NAMES`` and ``ALIASES`` are
derived from the table, and whether a map takes k is read from its record.

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

from .series import DEFAULT_ORDER, HarmonicMap, PowerSeries, _check_count, _check_param


def _koebe(z):
    return z / (1.0 - z) ** 2


def _half(z):
    return z / (1.0 - z)


# Each power is taken once and shared by h and g; the operations and their
# order are those of the expressions written out in full, so are the bits.
def _harmonic_koebe(z, k):
    half, sixth, cube = z**2 / 2.0, z**3 / 6.0, (1.0 - z) ** 3
    h = (z - half + sixth) / cube
    g = (half + sixth) / cube
    return h + np.conj(g)


def _half_plane_L(z, k):
    # -z2 / 2.0 is (-z2) / 2.0: complex division can give -(z2 / 2.0) another zero sign
    z2, square = z**2, (1.0 - z) ** 2
    h = (z - z2 / 2.0) / square
    g = -z2 / 2.0 / square
    return h + np.conj(g)


def _f0(z, k):
    # g0 = sum (m-1)^2/m z^m = koebe - 2*half - log(1-z), termwise.
    h = _koebe(z)
    g0 = h - 2.0 * _half(z) - np.log1p(-z)
    return h + np.conj(g0)


def _affine(h, k):
    """h + k conj(h): the affine map w + k conj(w) after h, whose g is k h."""
    return h + k * np.conj(h)


@dataclass(frozen=True)
class MapSpec:
    """One catalog map: its coefficients, closed form and presets.

    ``coefficients(m, k)`` gives (a_m, b_m) on the array m = 1..order and
    ``closed_form(z, k)`` gives f(z) for |z| < 1; k is the dilatation bound
    of a ``parametric`` map and None otherwise.  ``tail_constant`` is a C
    with |a_m| + |b_m| <= C m^2 for every m >= 1 (it feeds the tail bound),
    ``distance`` the distance from h(0) to the boundary of h's image (h the
    analytic part) where known in closed form, the d of the distance-scaled
    bounds.  ``member_of`` lists the variants whose hypotheses the map
    satisfies, ``extremal_for`` those whose radius it attains, and ``pins``
    the variant parameters it is a member at, where it is one of a family.
    """

    name: str
    alias: str | None
    parametric: bool
    tail_constant: float
    distance: float | None
    coefficients: Callable[[np.ndarray, float | None], tuple]
    closed_form: Callable[[np.ndarray, float | None], np.ndarray]
    member_of: tuple[str, ...]
    extremal_for: tuple[str, ...]
    pins: tuple[tuple[str, float], ...] = ()


MAP_TABLE = (
    MapSpec("koebe_analytic", "koebe", False, 2.0, 0.25,
            lambda m, k: (m, 0.0), lambda z, k: _koebe(z),
            ("thm11_univalent", "thm22_bohr"), ("thm11_univalent",)),
    MapSpec("half_plane_analytic", "half_plane", False, 1.0, 0.5,
            lambda m, k: (1.0, 0.0), lambda z, k: _half(z),
            ("thm11_univalent", "thm11_convex", "thm22_bohr"), ("thm11_convex",)),
    MapSpec("harmonic_koebe_K", "K", False, 1.0, None,
            lambda m, k: ((m + 1.0) * (2.0 * m + 1.0) / 6.0, (m - 1.0) * (2.0 * m - 1.0) / 6.0),
            _harmonic_koebe, ("thm210_convex_direction_s0",), ("thm210_convex_direction_s0",)),
    MapSpec("half_plane_L", "L", False, 1.0, None,
            lambda m, k: ((m + 1.0) / 2.0, (1.0 - m) / 2.0), _half_plane_L,
            ("thm210_convex_direction_s0", "thm211_convex"), ("thm211_convex",)),
    # f0's dilatation is z itself: the k = 1, n = 1 member of the family.
    MapSpec("f0_sharp", "f0", False, 2.0, 0.25,
            lambda m, k: (m, (m - 1.0) ** 2 / m), _f0,
            ("thm24_monomial", "cor25_monomial"), ("thm24_monomial", "cor25_monomial"),
            pins=(("k", 1.0), ("n", 1))),
    # distance is h's: p_k(-r) and q_k(-r) tend to -(1 + k) d
    MapSpec("p_k", None, True, 2.0, 0.25,
            lambda m, k: (m, k * m), lambda z, k: _affine(_koebe(z), k),
            ("thm12_quasi", "thm23_quasi"), ("thm12_quasi", "thm23_quasi")),
    MapSpec("q_k", None, True, 2.0, 0.5,
            lambda m, k: (1.0, k), lambda z, k: _affine(_half(z), k),
            ("thm12_quasi_convex", "thm23_quasi_convex", "thm23_quasi"),
            ("thm12_quasi_convex", "thm23_quasi_convex")),
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
            _check_param("map k", self.k)
        elif self.k is not None:
            raise ValueError(f"{self.name} takes no k parameter")
        _check_count("order", self.order, 2)

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
    if not np.isfinite(zs).all():
        raise ValueError("evaluation points must be finite")
    if (np.abs(zs) >= 1.0).any():
        raise ValueError("closed forms are only valid for |z| < 1")
    return spec.record.closed_form(zs, spec.k)
