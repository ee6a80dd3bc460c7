"""Certified root extraction for the root-defined radius problems.

The solver is plain bisection, which is deterministic and produces an
auditable certificate: a bracket with a verified sign change, the midpoint
root, the residual there, and a flag recording that the majorant passed a
monotone scan (uniqueness evidence; the analytic fact is not re-proven).
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, replace

from .radii import RadiusProblem, closed_form_radius, majorant_value
from .rules import _check_param

DEFAULT_BRACKET = (1e-9, 1.0 - 1e-9)
WIDTH_TOL = 1e-13
RESIDUAL_TOL = 1e-9
MONOTONE_GRID = 1000
# The scan's points, np.linspace(0, 0.99, MONOTONE_GRID + 2)[1:-1] bit for bit
# as Python floats: linspace's i * step + 0.0 is i * step.
_MONOTONE_POINTS = tuple(i * (0.99 / (MONOTONE_GRID + 1)) for i in range(1, MONOTONE_GRID + 1))
_MAX_ITERATIONS = 200
# Bisection certificates kept by ``_bisection_certificate``, keyed by value.
# One verification solves the same problem for its profile, its sharpness
# scan and its report, which a memo on the problem could serve; but each
# verify item and each selfcheck check builds its own RadiusProblem, and
# clearing the cache before each verify item cost 15-23% of in-process
# verify goodput over three sessions (ROADMAP item 9 has the measurement).
CERTIFICATE_CACHE = 16


@dataclass(frozen=True)
class RootCertificate:
    """Bracketed root with sign-change and residual evidence.

    For a bisection result: lo < root < hi, hi - lo <= the width tolerance,
    f(lo) < 0 < f(hi), and |f(root)| <= the residual tolerance.  Closed-form
    radii are wrapped as degenerate certificates with lo = root = hi and
    zero residual.
    """

    problem: RadiusProblem | None
    lo: float
    hi: float
    root: float
    residual: float
    iterations: int
    monotone_checked: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _eval_checked(f, x: float) -> float:
    val = float(f(x))
    if not math.isfinite(val):
        raise ValueError(f"non-finite function value at r = {x!r}")
    return val


def bracket_root(
    f,
    lo: float,
    hi: float,
    tol: float = WIDTH_TOL,
) -> RootCertificate:
    """Bisect f on [lo, hi] down to bracket width tol.

    Requires f(lo) < 0 < f(hi) and |f(root)| <= max(1e-9, 100 tol).  Pure
    bisection, no acceleration: identical inputs give bit-identical
    certificates.  The certificate names no problem and claims no monotone
    scan; solve_radius fills both in.
    """
    _check_param("tol", tol)
    if not lo < hi:
        raise ValueError("bracket invalid: need lo < hi")
    flo = _eval_checked(f, lo)
    fhi = _eval_checked(f, hi)
    if not (flo < 0.0 < fhi):
        raise ValueError(
            f"bracket invalid: need f(lo) < 0 < f(hi), got f({lo!r}) = {flo!r}, "
            f"f({hi!r}) = {fhi!r}"
        )
    iterations = 0
    while hi - lo > tol:
        if iterations >= _MAX_ITERATIONS:
            raise RuntimeError("bisection failed to reach tolerance")
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # Adjacent doubles: the bracket cannot be refined further.
            raise RuntimeError(
                f"bracket width {hi - lo!r} is at floating-point resolution, "
                f"above tol = {tol!r}"
            )
        fmid = _eval_checked(f, mid)
        iterations += 1
        if fmid == 0.0:
            # Landed on an exact zero; certify a sign change across it.
            lo2, hi2 = mid - 0.5 * tol, mid + 0.5 * tol
            while hi2 - lo2 > tol:  # the two roundings widened it
                hi2 = math.nextafter(hi2, mid)
            if _eval_checked(f, lo2) < 0.0 < _eval_checked(f, hi2):
                lo, hi = lo2, hi2
                break
            raise RuntimeError(f"no sign change across exact zero at r = {mid!r}")
        if fmid < 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    residual = abs(_eval_checked(f, root))
    # achievable residual ~ slope * width; 100 covers the catalogued slopes,
    # so loosening tol does not make the residual guard unsatisfiable
    residual_tol = max(RESIDUAL_TOL, 100.0 * tol)
    if residual > residual_tol:
        raise RuntimeError(
            f"residual {residual!r} at root {root!r} exceeds {residual_tol!r}"
        )
    return RootCertificate(
        problem=None,
        lo=lo,
        hi=hi,
        root=root,
        residual=residual,
        iterations=iterations,
        monotone_checked=False,
    )


def solve_radius(p: RadiusProblem, tol: float = WIDTH_TOL) -> RootCertificate:
    """Radius certificate for any variant.

    Root-defined variants get a monotone scan of the majorant on 1000
    interior points of (0, 0.99) followed by certified bisection on
    [1e-9, 1 - 1e-9] (the majorants diverge at r = 1, so the upper end is
    clamped away from it).  Closed-form variants return the algebraic value
    as a degenerate certificate, after checking that it lies in (0, 1);
    tol is checked for them too, although they do not use it.  A
    root-defined certificate is computed once per (p, tol) by value and
    reused; the returned one always names the caller's own p.
    """
    _check_param("tol", tol)
    if not p.root_defined:
        root = closed_form_radius(p)
        if not 0.0 < root < 1.0:
            raise RuntimeError(
                f"closed-form radius {root!r} of {p.variant} is not in (0, 1)"
            )
        return RootCertificate(
            problem=p,
            lo=root,
            hi=root,
            root=root,
            residual=0.0,
            iterations=0,
            monotone_checked=False,
        )
    return replace(_bisection_certificate(p, tol), problem=p)


@functools.lru_cache(maxsize=CERTIFICATE_CACHE)
def _bisection_certificate(p: RadiusProblem, tol: float) -> RootCertificate:
    """Monotone scan and certified bisection of a root-defined problem.

    The certificate names no problem; ``solve_radius`` names the caller's.
    """
    values = [majorant_value(p, r) for r in _MONOTONE_POINTS]
    monotone = all(b > a for a, b in zip(values, values[1:]))
    cert = bracket_root(lambda r: majorant_value(p, r), *DEFAULT_BRACKET, tol=tol)
    return replace(cert, monotone_checked=monotone)


def min_rule_radius(p: RadiusProblem) -> float:
    """min(1/3, base radius): the subordination cap on a base problem.

    The base radius is the solved root for the monomial-dilatation variants
    and the closed form for the quasiconformal ones (for which the min rule
    is already their subordination variant; applying it again is idempotent).
    """
    if not p.record.min_rule_base:
        raise ValueError(f"{p.variant} carries no base radius for the min rule")
    base = solve_radius(p).root
    return min(1.0 / 3.0, base)
