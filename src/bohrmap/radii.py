"""Radius problems: majorant functions and closed-form Bohr radii.

Each Bohr-type result handled by this package is identified by a variant tag
(a stable CLI-facing identifier) plus whatever parameters the statement
carries: the quasiconformality constant K, the dilatation amplitude k, the
monomial exponent n.  A variant is either *closed-form* (its radius is an
algebraic expression) or *root-defined* (its radius is the unique zero in
(0,1) of a strictly increasing majorant function).  Both kinds are evaluable
here; certified root extraction lives in ``solver``.

``VARIANT_TABLE`` holds one ``Variant`` record per statement: its short
alias, parameters, bound kind, description and radius.  Adding a theorem
means adding one record; ``VARIANTS`` and ``THEOREM_ALIASES`` are derived
from it.  ``_PARAM_RULES`` holds the domains of K, k, n and a.

"Bound d" marks the families whose Bohr sum is compared against the distance
from the image of 0 to the image boundary; the caller supplies that distance
(catalog presets: 1/4 for the full-growth maps, 1/2 for half-plane maps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _thm12_quasi(K: float) -> float:
    # (5K+1-sqrt(8K(3K+1)))/(K+1) rationalised, since
    # (5K+1)^2 - 8K(3K+1) = (K+1)^2, and divided through by K: no
    # cancellation for large K and no overflow up to the largest double.
    t = 1.0 / K
    return (1.0 + t) / (5.0 + t + math.sqrt(8.0 * (3.0 + t)))


def _thm23_quasi(K: float) -> float:
    # (2K+1-sqrt(K(3K+2)))/(K+1), rationalised and divided by K likewise.
    t = 1.0 / K
    return (1.0 + t) / (2.0 + t + math.sqrt(3.0 + 2.0 * t))


def _convex_quasi(c: float, K: float) -> float:
    # (K+1)/(cK+1), divided through by K.
    t = 1.0 / K
    return (1.0 + t) / (c + t)


def _monomial_majorant(k: float, n: int, rs):
    one = 1.0 - rs
    # log(1-r) through log1p(-r) keeps accuracy near r = 0.
    return (
        (k + 1.0) * rs / one**2
        - 2.0 * n * k * rs / one
        - k * n**2 * np.log1p(-rs)
        - 1.0
    )


def _thm210_majorant(rs):
    # Monotone series form; the equivalent cubic 4r^3 - 9r^2 + 12r - 3
    # has the opposite sign below the root.
    one = 1.0 - rs
    return 2.0 * rs * (1.0 + rs) / (3.0 * one**3) + rs / (3.0 * one) - 1.0


@dataclass(frozen=True)
class Variant:
    """One radius statement: its tag, parameters, bound and radius.

    ``params`` names the parameters the statement takes, in ("K", "k", "n");
    ``bound`` is the right side of its Bohr inequality: "1", "d" (the
    caller-supplied boundary distance) or "1+|a|" (the automorphism
    dilatation parameter).  ``closed_form`` maps a ``RadiusProblem`` to its
    algebraic radius; ``majorant`` maps (problem, r) to majorant minus
    bound, negative below the radius and positive above.  A variant has
    one or both.  ``min_rule_base`` marks the variants whose radius the
    subordination cap min(1/3, radius) applies to.
    """

    name: str
    alias: str | None
    params: tuple[str, ...]
    bound: str
    description: str
    closed_form: Callable[[RadiusProblem], float] | None = None
    majorant: Callable[[RadiusProblem, np.ndarray], np.ndarray] | None = None
    min_rule_base: bool = False


VARIANT_TABLE = (
    Variant("thm11_univalent", "thm11", (), "d",
            "subordinates of a univalent analytic map; bound is the boundary distance d; "
            "radius 3-sqrt(8)",
            closed_form=lambda p: 1.0 / (3.0 + math.sqrt(8.0))),
    Variant("thm11_convex", None, (), "d",
            "subordinates of a convex univalent analytic map; bound d; radius 1/3",
            closed_form=lambda p: 1.0 / 3.0),
    Variant("thm12_quasi", "thm12", ("K",), "d",
            "K-quasiconformal harmonic map with univalent analytic part; bound d; "
            "radius (5K+1-sqrt(8K(3K+1)))/(K+1)",
            closed_form=lambda p: _thm12_quasi(p.K)),
    Variant("thm12_quasi_convex", "thm12_convex", ("K",), "d",
            "K-quasiconformal harmonic map with convex analytic part; bound d; "
            "radius (K+1)/(5K+1)",
            closed_form=lambda p: _convex_quasi(5.0, p.K)),
    Variant("thm22_bohr", "thm22", (), "1",
            "subordinates of a normalized univalent analytic map; bound 1; radius 1/3",
            closed_form=lambda p: 1.0 / 3.0),
    Variant("thm23_quasi", "thm23", ("K",), "1",
            "K-quasiconformal harmonic map with univalent analytic part; bound 1; "
            "radius (2K+1-sqrt(K(3K+2)))/(K+1)",
            closed_form=lambda p: _thm23_quasi(p.K), min_rule_base=True),
    Variant("thm23_quasi_convex", "thm23_convex", ("K",), "1",
            "K-quasiconformal harmonic map with convex analytic part; bound 1; "
            "radius (K+1)/(3K+1)",
            closed_form=lambda p: _convex_quasi(3.0, p.K), min_rule_base=True),
    Variant("thm23_subordination", "thm23_sub", ("K",), "1",
            "harmonic subordinates of the thm23_quasi family; bound 1; "
            "radius min(1/3, base radius)",
            closed_form=lambda p: min(1.0 / 3.0, _thm23_quasi(p.K)), min_rule_base=True),
    Variant("thm23_subordination_convex", "thm23_sub_convex", ("K",), "1",
            "harmonic subordinates of the thm23_quasi_convex family; bound 1; "
            "radius min(1/3, base radius)",
            closed_form=lambda p: min(1.0 / 3.0, _convex_quasi(3.0, p.K)),
            min_rule_base=True),
    Variant("thm24_monomial", "thm24", ("k", "n"), "1",
            "harmonic map with dilatation k e^{i theta} z^n; bound 1; root-defined radius",
            majorant=lambda p, r: _monomial_majorant(p.k, p.n, r), min_rule_base=True),
    Variant("cor25_monomial", "cor25", ("n",), "1",
            "harmonic map with dilatation e^{i theta} z^n (k -> 1 limit); bound 1; "
            "root-defined radius",
            majorant=lambda p, r: _monomial_majorant(1.0, p.n, r), min_rule_base=True),
    Variant("thm27_mobius", "thm27", (), "1+|a|",
            "harmonic map with disk-automorphism dilatation; bound 1+|a|; "
            "root of r^3 - 3r^2 + 5r - 1",
            majorant=lambda p, r: r**3 - 3.0 * r**2 + 5.0 * r - 1.0),
    Variant("thm29_convex_direction", "thm29", (), "1",
            "univalent harmonic map convex in one direction; bound 1; radius (5-sqrt(17))/4",
            closed_form=lambda p: (5.0 - math.sqrt(17.0)) / 4.0,
            # -(2r^2 - 5r + 1): negated so the sign convention holds.
            majorant=lambda p, r: -(2.0 * r**2 - 5.0 * r + 1.0)),
    Variant("thm210_convex_direction_s0", "thm210", (), "1",
            "harmonic map convex in one direction with b_1 = 0; bound 1; root-defined radius",
            majorant=lambda p, r: _thm210_majorant(r)),
    Variant("thm211_convex", "thm211", (), "1",
            "convex univalent harmonic map with b_1 = 0; bound 1; radius (3-sqrt(5))/2",
            closed_form=lambda p: 2.0 / (3.0 + math.sqrt(5.0)),
            majorant=lambda p, r: r / (1.0 - r) ** 2 - 1.0),
)

VARIANT = {v.name: v for v in VARIANT_TABLE}
VARIANTS = tuple(VARIANT)
# Short spellings accepted anywhere a variant is named (CLI included).
THEOREM_ALIASES = {v.alias: v.name for v in VARIANT_TABLE if v.alias}

# (parameter, test, message), checked in this order; K must also be finite so
# that no closed form sees an infinity.
_PARAM_RULES = (
    ("K", lambda K: K >= 1.0, "K must be >= 1"),
    ("K", math.isfinite, "K must be finite"),
    ("k", lambda k: 0.0 < k <= 1.0, "k must lie in (0, 1]"),
    ("n", lambda n: isinstance(n, (int, np.integer)) and n >= 1, "n must be an integer >= 1"),
    ("a", lambda a: -1.0 < a < 1.0, "a must lie in (-1, 1)"),
)


def _check_param(name: str, value) -> None:
    """Raise the message of the first rule on ``name`` that value breaks."""
    for param, test, message in _PARAM_RULES:
        if param == name and not test(value):
            raise ValueError(message)


def resolve_variant(name: str) -> str:
    """Canonical variant tag, accepting the short aliases."""
    canonical = THEOREM_ALIASES.get(name, name)
    if canonical not in VARIANT:
        known = ", ".join(sorted(THEOREM_ALIASES))
        raise ValueError(f"unknown variant {name!r}; short names: {known}")
    return canonical


@dataclass(frozen=True)
class RadiusProblem:
    """One radius statement: variant tag plus the parameters it demands.

    K >= 1 (finite) for the quasiconformal families, k in (0, 1] and integer
    n >= 1 for the monomial-dilatation family, n alone for its k -> 1 limit.
    Parameters not demanded by the variant are rejected.
    """

    variant: str
    K: float | None = None
    k: float | None = None
    n: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "variant", resolve_variant(self.variant))
        for name in ("K", "k", "n"):
            value = getattr(self, name)
            if name not in self.record.params:
                if value is not None:
                    raise ValueError(f"{self.variant} takes no {name} parameter")
                continue
            if value is None:
                raise ValueError(f"{self.variant} requires {name}")
            _check_param(name, value)

    @property
    def record(self) -> Variant:
        return VARIANT[self.variant]

    @property
    def root_defined(self) -> bool:
        return self.record.majorant is not None

    def describe(self) -> str:
        """One-line statement of family, bound, and radius expression."""
        parts = [self.record.description]
        params = []
        if self.K is not None:
            params.append(f"K={self.K:g}")
        if self.k is not None:
            params.append(f"k={self.k:g}")
        if self.n is not None:
            params.append(f"n={self.n}")
        if params:
            parts.append("(" + ", ".join(params) + ")")
        return " ".join(parts)

    def bound(self, mobius_a: float | None = None) -> float:
        """Right side of the Bohr inequality for this variant.

        The automorphism variant requires ``mobius_a`` and returns 1 + |a|,
        a constant the statement supplies without interpretation;
        distance-scaled variants raise, because only the caller knows the
        distance d from the image of 0 to the image boundary and passes it
        as the bound itself; all other variants return 1.
        """
        v = self.variant
        kind = self.record.bound
        if kind == "d":
            raise ValueError(f"{v} bound needs the boundary distance d")
        if kind == "1+|a|":
            if mobius_a is None:
                raise ValueError(f"{v} bound needs the dilatation parameter a")
            _check_param("a", mobius_a)
            return 1.0 + abs(mobius_a)
        if mobius_a is not None:
            raise ValueError(f"{v} has the fixed bound 1")
        return 1.0


def closed_form_radius(p: RadiusProblem) -> float | None:
    """Algebraic radius where one exists, else None.

    The root-defined cubic/quadratic variants with solvable equations
    (thm29, thm211) report their algebraic roots too, so the solver can be
    cross-checked against them.
    """
    closed_form = p.record.closed_form
    return None if closed_form is None else closed_form(p)


def majorant_value(p: RadiusProblem, r):
    """Majorant minus bound for a root-defined variant, at r in [0, 1).

    Normalized so the value is negative below the radius and positive
    above; every root-defined majorant is strictly increasing on (0, 1),
    which is what makes the bisection certificate meaningful.  Accepts
    scalar or array r.  Closed-form variants have no majorant here and
    raise, directing the caller to ``closed_form_radius``.
    """
    if not p.root_defined:
        raise ValueError(
            f"{p.variant} has a closed-form radius; use closed_form_radius"
        )
    rs = np.asarray(r, dtype=np.float64)
    if not np.all((rs >= 0.0) & (rs < 1.0)):
        raise ValueError("r must lie in [0, 1)")
    val = p.record.majorant(p, rs)
    if rs.ndim == 0:
        return float(val)
    return val


# ---------------------------------------------------------------------------
# Series identities behind the majorants.

@dataclass(frozen=True)
class MajorantIdentity:
    """A summable term family t(m) r^m with its closed form in r.

    Every majorant above is a combination of these five sums; checking each
    truncation against its closed form pins the algebra the majorants rely
    on.
    """

    name: str
    term: Callable[[np.ndarray, float], np.ndarray]
    closed_form: Callable[[float], float]


IDENTITIES = {
    "sum_m_rm": MajorantIdentity(
        "sum_m_rm",
        lambda m, r: m * r**m,
        lambda r: r / (1.0 - r) ** 2,
    ),
    "sum_rm": MajorantIdentity(
        "sum_rm",
        lambda m, r: r**m,
        lambda r: r / (1.0 - r),
    ),
    "sum_rm_over_m": MajorantIdentity(
        "sum_rm_over_m",
        lambda m, r: r**m / m,
        lambda r: -math.log1p(-r),
    ),
    "sum_m_mplus1_rm": MajorantIdentity(
        "sum_m_mplus1_rm",
        lambda m, r: m * (m + 1.0) * r**m,
        lambda r: r * (1.0 + r) / (1.0 - r) ** 3 + r / (1.0 - r) ** 2,
    ),
    "sum_2m2plus1_over3_rm": MajorantIdentity(
        "sum_2m2plus1_over3_rm",
        lambda m, r: (2.0 * m**2 + 1.0) / 3.0 * r**m,
        lambda r: 2.0 * r * (1.0 + r) / (3.0 * (1.0 - r) ** 3)
        + r / (3.0 * (1.0 - r)),
    ),
}
IDENTITY_NAMES = tuple(IDENTITIES)


def m2_tail(r: float, M: int) -> float:
    """Closed form of sum_{m > M} m^2 r^m, for 0 <= r < 1.

    With N = M + 1 the tail is
    r^N [N^2 - (2N^2 - 2N - 1) r + (N-1)^2 r^2] / (1-r)^3, evaluated
    directly so no full-minus-partial cancellation occurs.
    """
    if not 0.0 <= r < 1.0:
        raise ValueError("r must lie in [0, 1)")
    if M < 0:
        raise ValueError("M must be >= 0")
    if r == 0.0:
        return 0.0
    N = M + 1
    poly = N**2 - (2.0 * N**2 - 2.0 * N - 1.0) * r + (N - 1) ** 2 * r**2
    return float(r**N * poly / (1.0 - r) ** 3)


def identity_tail_bound(r: float, M: int) -> float:
    """Tail bound valid for every identity above: terms are <= 2 m^2 r^m."""
    return 2.0 * m2_tail(r, M)


def majorant_identity_check(identity: MajorantIdentity, r: float, M: int) -> float:
    """|truncated sum - closed form|; must sit within identity_tail_bound."""
    if not 0.0 <= r <= 0.95:
        raise ValueError("r must lie in [0, 0.95] for the stated tail bound")
    if M < 1:
        raise ValueError("M must be >= 1")
    m = np.arange(1, M + 1, dtype=np.float64)
    partial = float(np.sum(identity.term(m, r)))
    return abs(partial - identity.closed_form(r))
