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
from it.  The domains of K, k and n are rows of ``series._PARAM_RULES``.

"Bound d" marks the families whose Bohr sum is compared against the distance
from h(0) to the boundary of h's image, h the analytic part; the caller
supplies it (catalog presets: 1/4 for the full-growth maps, 1/2 for half-plane maps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .series import _check_count, _check_param


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
    caller-supplied boundary distance) or "1+|a|" (caller-supplied too, a
    being the automorphism dilatation parameter).  ``closed_form`` maps a
    ``RadiusProblem`` to its algebraic radius; ``majorant`` maps (problem,
    r) to majorant minus bound, negative below the radius and positive
    above.  A variant has one or both.  ``min_rule_base`` marks the variants whose radius the
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

    def bound(self) -> float:
        """Right side of the Bohr inequality for this variant: 1, or raise.

        The distance-scaled and automorphism variants raise: only the caller
        knows the distance d from the image of 0 to the image boundary, or
        the dilatation parameter a, and passes d or 1 + |a| as the bound
        itself.
        """
        kind = self.record.bound
        if kind == "d":
            raise ValueError(f"{self.variant} bound needs the boundary distance d")
        if kind == "1+|a|":
            raise ValueError(f"{self.variant} bound needs the dilatation parameter a")
        return 1.0


def closed_form_radius(p: RadiusProblem) -> float:
    """Algebraic radius of a variant that has one.

    The root-defined cubic/quadratic variants with solvable equations
    (thm29, thm211) report their algebraic roots too, so the solver can be
    cross-checked against them.  Variants whose radius is only a root
    raise, directing the caller to ``solve_radius``.
    """
    closed_form = p.record.closed_form
    if closed_form is None:
        raise ValueError(f"{p.variant} has a root-defined radius; use solve_radius")
    return closed_form(p)


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
    # cast to float, a bool (scalar or array) reads as 0 or 1, so False
    # would pass as r = 0; a bool is no radius
    is_bool = np.asarray(r).dtype == np.bool_
    rs = np.asarray(r, dtype=np.float64)
    if is_bool or not np.all((rs >= 0.0) & (rs < 1.0)):
        raise ValueError("r must lie in [0, 1)")
    val = p.record.majorant(p, rs)
    if rs.ndim == 0:
        return float(val)
    return val


def m2_tail(r: float, M: int) -> float:
    """Closed form of sum_{m > M} m^2 r^m, for 0 <= r < 1.

    With N = M + 1 the tail is
    r^N [N^2 (1-r)^2 + 2N r (1-r) + r (1+r)] / (1-r)^3 =
    r^N [(N (1-r) + r)^2 + r] / (1-r)^3, evaluated directly so no
    full-minus-partial cancellation occurs, and with a numerator of
    nonnegative terms, which cannot cancel either.
    """
    _check_param("r", r)
    _check_count("M", M, 0)
    r, N = float(r), M + 1
    # the underflow cut of _m2_tails on one radius; r = +0.0 takes pow, which gives +0.0 too
    return 0.0 if 0.0 < r < _underflow_cut(N) else _m2_tail_pow(r, N)


def _underflow_cut(N: int) -> float:
    """B = 2^(-1100/N) (1 - 2^-40): below it r^N underflows to +0.0 (see ``_m2_tails``)."""
    return 2.0 ** (-1100.0 / N) * (1.0 - 2.0**-40)


def _m2_tail_pow(r: float, N: int) -> float:
    """m2_tail's closed form for a Python float r, by libm's pow.

    A zero r^N is the tail, sign included: the factor it multiplies is a
    positive float wherever it is finite, and past N^2 (1-r)^2 ~ 2^1024,
    where r^N has long underflowed, forming it would overflow.
    """
    p = r**N
    if p == 0.0:
        return p
    s = 1.0 - r
    return float(p * ((N * s + r) ** 2 + r) / s**3)


def _m2_tails(rs: np.ndarray, M: int) -> np.ndarray:
    """m2_tail(r, M) for each radius of a float64 array, with rs and M already checked.

    Each value is that of ``_m2_tail_pow`` (libm's pow on a Python float),
    bit for bit, and most of them never call it.  Every radius r in
    [+0.0, B) gets +0.0 from one array comparison, B = ``_underflow_cut(N)``
    = fl(fl(2^fl(-1100/N)) (1 - 2^-40)), N = M + 1.  For N >= 2 the
    exponent is within a relative 2^-53 of -1100/N, which is at most 550
    in size, so 2^fl(-1100/N) < 2^(-1100/N) (1 + 2^-44); pow and the
    product are within an ulp each, and the slack 2^-40 outweighs the
    three factors, so B < 2^(-1100/N).  (N = 1 gives B = +0.0, or the
    smallest subnormal, and no radius but a zero below it.)  So r < B gives
    N log2(r) < -1100 and r^N < 2^-1100, far below half the smallest
    subnormal (2^-1075), where pow returns +0.0 (slowly: 0.3 us a radius).
    The numerator (N (1-r) + r)^2 + r, a square plus r, is a positive float
    for 0 <= r < 1, and +0.0 times it over (1-r)^3 is +0.0.  r = +0.0
    itself gives 0^N = +0.0 by pow, so it joins the cut; r = -0.0, whose
    odd powers keep the sign, and every r >= B take pow.
    """
    N = M + 1
    tails = np.zeros(len(rs))
    slow = np.flatnonzero((rs >= _underflow_cut(N)) | np.signbit(rs))
    tails[slow] = [_m2_tail_pow(r, N) for r in rs[slow].tolist()]
    return tails
