"""Self-contained invariant suite covering every module.

Each check recomputes one of the package's structural facts from scratch
(oracle routes where available: series division for the recurrence, Horner
at the points for the dilatation residual, whose figure is printed while
the library's inverse-FFT residual is held to the same bound, closed forms
for series evaluation, algebraic radii for the solver) and reports a
CheckResult.  ``perturb`` injects a deliberate error into the catalog maps
used by the attainment/equality checks so a broken build is observably
broken; a fresh build must pass everything with perturb = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bohr import bohr_partial_sum, boundary_reach, extremal_pairing, sharpness_scan
from .catalog import MAP_TABLE, NamedMap, closed_form_eval, make_map
from .dilatation import (
    MobiusDilatation,
    MonomialDilatation,
    dilatation_residual,
    g_from_mobius,
    g_from_monomial,
)
from .radii import VARIANT, VARIANT_TABLE, RadiusProblem, closed_form_radius, majorant_value
from .series import (
    HarmonicMap,
    PowerSeries,
    _check_param,
    _evaluate_rows,
    cauchy_product,
    circle_grid,
    compose,
    evaluate,
    eval_harmonic,
    term_differentiate,
    term_integrate,
)
from .solver import min_rule_radius, solve_radius
from .subordination import domination_campaign, monomial_schwarz, subordinate

QUICK_CAMPAIGN_SEEDS = 10
FULL_CAMPAIGN_SEEDS = 200
# The extremal pairings whose map reaches |f| = 1 on the circle |z| = r0:
# L attains thm211 through its Bohr sum, but L(r0) = r0/(1 - r0) ~ 0.618.
IMAGE_REACH_PAIRS = (
    ("f0_sharp", "cor25_monomial"), ("harmonic_koebe_K", "thm210_convex_direction_s0"),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _series_divide(numer: PowerSeries, denom: PowerSeries) -> PowerSeries:
    """Back-substitution quotient, the independent oracle route.

    q_m = (n_m - sum_{j=1..m} d_j q_{m-j}) / d_0, requiring d_0 != 0.
    """
    if denom.coeffs[0] == 0:
        raise ValueError("denominator must have nonzero constant term")
    order = min(numer.order, denom.order)
    n = numer.coeffs
    d = denom.coeffs
    q = np.zeros(order + 1, dtype=np.complex128)
    for m in range(order + 1):
        acc = n[m]
        for j in range(1, m + 1):
            acc -= d[j] * q[m - j]
        q[m] = acc / d[0]
    return PowerSeries(q)


def _perturbed(f: HarmonicMap, perturb: float) -> HarmonicMap:
    if perturb == 0.0:
        return f
    h = np.array(f.h.coeffs)
    h[1] += perturb
    return HarmonicMap(PowerSeries(h), f.g)


def _extremal_pairs(order: int):
    return [
        extremal_pairing(record.name, variant, order=order)
        for record in MAP_TABLE
        for variant in record.extremal_for
        if VARIANT[variant].majorant
    ]


def _root_defined_problems():
    """One problem per root-defined variant, at sample parameter values."""
    sample = {"K": 3.0, "k": 0.5, "n": 2}
    return [
        RadiusProblem(v.name, **{name: sample[name] for name in v.params})
        for v in VARIANT_TABLE
        if v.majorant
    ]


def run_selfcheck(quick: bool = False, perturb: float = 0.0) -> list[CheckResult]:
    """Run every check; returns one CheckResult per check, in fixed order."""
    _check_param("perturb", perturb)
    results: list[CheckResult] = []
    order = 800 if quick else 2000

    def run(name, fn):
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"error: {exc}"
        results.append(CheckResult(name, bool(ok), detail))

    def series_round_trip():
        m = np.arange(60, dtype=np.float64)
        s = PowerSeries((m + 1.0) * np.exp(1j * m))
        back = term_differentiate(term_integrate(s))
        err = float(np.max(np.abs(back.coeffs - s.coeffs) / np.abs(s.coeffs)))
        return err <= 1e-15, f"max relative error {err:.3e}"

    run("series_round_trip", series_round_trip)

    def product_eval():
        m = np.arange(121, dtype=np.float64)
        a = PowerSeries(m)  # full-growth coefficients
        b = PowerSeries(np.ones(121))
        prod = cauchy_product(a, b)
        z = circle_grid(0.5, 16)
        pz, az, bz = _evaluate_rows((prod.coeffs, a.coeffs, b.coeffs), z)
        err = float(np.max(np.abs(pz - az * bz)))
        return err <= 1e-12, f"max mismatch {err:.3e} on |z| = 0.5"

    run("product_eval_consistency", product_eval)

    def compose_eval():
        f = make_map(NamedMap("koebe_analytic", order=200)).h
        psi = PowerSeries([0.0, 0.0, 0.5])
        comp = compose(f, psi, 200)
        z = circle_grid(0.3, 16)
        inner = evaluate(psi, z)
        err = float(np.max(np.abs(evaluate(comp, z) - evaluate(f, inner))))
        return err <= 1e-9, f"max mismatch {err:.3e} on |z| = 0.3"

    run("compose_eval_consistency", compose_eval)

    def horner_residual(f, w, z):
        # the oracle route: h' and g' by Horner at the points, where the
        # library's residual on a circle grid takes the inverse FFT
        gp, hp = _evaluate_rows(
            (term_differentiate(f.g).coeffs, term_differentiate(f.h).coeffs), z
        )
        return float(np.max(np.abs(gp - w(z) * hp)))

    def residual_monomial():
        h = make_map(NamedMap("koebe_analytic", order=500)).h
        w = MonomialDilatation(0.5, np.pi / 2, 2)
        f = g_from_monomial(h, w)
        z = circle_grid(0.5, 32)
        res = horner_residual(f, w, z)
        ok = res <= 1e-10 and dilatation_residual(f, w, z) <= 1e-10
        return ok, f"residual {res:.3e} on |z| = 0.5"

    run("dilatation_residual_monomial", residual_monomial)

    def residual_mobius():
        h = make_map(NamedMap("koebe_analytic", order=500)).h
        z = circle_grid(0.5, 32)
        worst = library = 0.0
        for variant in ("plus", "minus"):
            w = MobiusDilatation(0.3, variant)
            f = g_from_mobius(h, w)
            worst = max(worst, horner_residual(f, w, z))
            library = max(library, dilatation_residual(f, w, z))
        return worst <= 1e-10 and library <= 1e-10, f"worst residual {worst:.3e} on |z| = 0.5"

    run("dilatation_residual_mobius", residual_mobius)

    def quasiconformal():
        h = make_map(NamedMap("koebe_analytic", order=500)).h
        k = 0.5
        f = g_from_monomial(h, MonomialDilatation(k, 0.0, 2))
        z = circle_grid(0.9, 64)
        hp, gp = _evaluate_rows(
            (term_differentiate(f.h).coeffs, term_differentiate(f.g).coeffs), z
        )
        ratio = float(np.max(np.abs(gp / hp)))
        return ratio <= k + 1e-9, f"max |g'/h'| = {ratio:.12f} vs k = {k}"

    run("quasiconformal_bound", quasiconformal)

    def mobius_oracle():
        h = make_map(NamedMap("koebe_analytic", order=60)).h
        hp = term_differentiate(h)
        worst = 0.0
        for a in (-0.5, 0.3):
            for variant, s in (("plus", 1.0), ("minus", -1.0)):
                f = g_from_mobius(h, MobiusDilatation(a, variant))
                linear = PowerSeries([a, s]).truncated(hp.order)
                denom = PowerSeries([1.0, s * a]).truncated(hp.order)
                gp = _series_divide(cauchy_product(linear, hp), denom)
                g = term_integrate(gp).truncated(h.order)
                scale = np.maximum(1.0, np.abs(g.coeffs[:51]))
                err = float(
                    np.max(np.abs(f.g.coeffs[:51] - g.coeffs[:51]) / scale)
                )
                worst = max(worst, err)
        return worst <= 1e-12, f"worst coefficient mismatch {worst:.3e} (m <= 50)"

    run("mobius_recurrence_vs_division", mobius_oracle)

    def attainment():
        m = np.arange(1, 201, dtype=np.float64)
        checks = []
        koebe = _perturbed(make_map(NamedMap("koebe_analytic", order=200)), perturb)
        checks.append(np.array_equal(np.abs(koebe.h.coeffs[1:]), m))
        K = _perturbed(make_map(NamedMap("harmonic_koebe_K", order=200)), perturb)
        checks.append(
            np.array_equal(np.abs(K.h.coeffs[1:]), (m + 1) * (2 * m + 1) / 6)
            and np.array_equal(np.abs(K.g.coeffs[1:]), (m - 1) * (2 * m - 1) / 6)
        )
        L = _perturbed(make_map(NamedMap("half_plane_L", order=200)), perturb)
        checks.append(
            np.array_equal(np.abs(L.h.coeffs[1:]), (m + 1) / 2)
            and np.array_equal(np.abs(L.g.coeffs[1:]), (m - 1) / 2)
        )
        ok = all(checks)
        return ok, f"bound attainment for m <= 200: {checks}"

    run("catalog_bound_attainment", attainment)

    def closed_form_agreement():
        worst = 0.0
        for entry in MAP_TABLE:
            k = 0.5 if entry.parametric else None
            spec = NamedMap(entry.name, k=k, order=order)
            f = make_map(spec)
            z = circle_grid(0.3, 32)
            err = float(
                np.max(np.abs(closed_form_eval(spec, z) - eval_harmonic(f, z)))
            )
            worst = max(worst, err)
        return worst <= 1e-10, f"worst series/closed-form gap {worst:.3e}"

    run("series_vs_closed_form", closed_form_agreement)

    def sign_structure():
        ok = True
        for p in _root_defined_problems():
            lo = majorant_value(p, 0.001)
            hi = majorant_value(p, 0.99)
            ok = ok and lo < 0.0 < hi
        return ok, "majorant < 0 at r = 0.001 and > 0 at r = 0.99 for all variants"

    run("majorant_sign_structure", sign_structure)

    def monotonicity():
        grid = np.linspace(0.0, 0.99, 1002)[1:-1]
        problems = [
            RadiusProblem("thm24_monomial", k=k, n=n)
            for k in (0.1, 0.5, 0.9, 1.0)
            for n in (1, 2, 3, 4)
        ]
        problems += [RadiusProblem("cor25_monomial", n=n) for n in (1, 2, 3, 4)]
        problems += [p for p in _root_defined_problems() if not p.record.params]
        ok = True
        for p in problems:
            vals = majorant_value(p, grid)
            increasing = bool(np.all(np.diff(vals) > 0.0))
            changes = int(np.sum(np.diff(np.sign(vals)) != 0.0))
            ok = ok and increasing and changes == 1
        return ok, f"{len(problems)} majorants strictly increasing, one sign change"

    run("majorant_monotonicity", monotonicity)

    def solver_agreement():
        worst = 0.0
        for p in _root_defined_problems():
            if p.record.closed_form:
                worst = max(worst, abs(solve_radius(p).root - closed_form_radius(p)))
        return worst <= 1e-10, f"worst solver/algebraic gap {worst:.3e}"

    run("solver_closed_form_agreement", solver_agreement)

    def formula_limits():
        # 3 - sqrt(8) and (3 - sqrt(5))/2, written without the cancellation
        gaps = [
            abs(
                closed_form_radius(RadiusProblem("thm12_quasi", K=1.0))
                - 1.0 / (3.0 + math.sqrt(8.0))
            ),
            abs(
                closed_form_radius(RadiusProblem("thm23_quasi", K=1.0))
                - 2.0 / (3.0 + math.sqrt(5.0))
            ),
        ]
        Ks = np.linspace(1.0, 100.0, 200)
        r12 = [closed_form_radius(RadiusProblem("thm12_quasi", K=K)) for K in Ks]
        r23 = [closed_form_radius(RadiusProblem("thm23_quasi", K=K)) for K in Ks]
        decreasing = bool(np.all(np.diff(r12) < 0.0) and np.all(np.diff(r23) < 0.0))
        limit_gap = abs(
            closed_form_radius(RadiusProblem("thm12_quasi", K=1e6))
            - (5.0 - math.sqrt(24.0))
        )
        ok = max(gaps) <= 1e-12 and decreasing and limit_gap <= 1e-5
        return ok, (
            f"K=1 gaps {gaps[0]:.2e}/{gaps[1]:.2e}, decreasing={decreasing}, "
            f"K->inf gap {limit_gap:.2e}"
        )

    run("quasi_formula_limits", formula_limits)

    def extremal_equality():
        worst = 0.0
        for spec, p in _extremal_pairs(order):
            f = _perturbed(make_map(spec), perturb)
            for r in (0.1, 0.2, 0.3):
                total, tail = bohr_partial_sum(
                    f, r, tail_constant=spec.record.tail_constant
                )
                gap = abs(total + tail - (majorant_value(p, r) + 1.0))
                worst = max(worst, gap)
        return worst <= 1e-9, f"worst sum-vs-majorant gap {worst:.3e}"

    run("extremal_equality", extremal_equality)

    def sharpness():
        worst = np.inf
        for spec, p in _extremal_pairs(order):
            f = _perturbed(make_map(spec), perturb)
            excess = sharpness_scan(f, p, 0.01)
            worst = min(worst, excess)
        return worst > 0.0, f"smallest excess at radius + 0.01: {worst:.6f}"

    run("sharpness_excess", sharpness)

    def figure_max_mod():
        gaps = []
        for name, variant in IMAGE_REACH_PAIRS:
            spec, p = extremal_pairing(name, variant)
            r0 = solve_radius(p).root
            max_mod, _ = boundary_reach(spec, r0, 4096)
            gaps.append(abs(max_mod - 1.0))
        ok = max(gaps) <= 1e-9
        return ok, f"max modulus gaps at computed radii: {gaps[0]:.2e}, {gaps[1]:.2e}"

    run("figure_max_modulus", figure_max_mod)

    def tail_bracketing():
        # r = 0.6 keeps the m in (50, 100] increment above double roundoff
        ok = True
        for name in ("koebe_analytic", "harmonic_koebe_K", "f0_sharp"):
            spec = NamedMap(name, order=200)
            f = make_map(spec)
            C = spec.record.tail_constant
            s1, t1 = bohr_partial_sum(f, 0.6, M=50, tail_constant=C)
            s2, _ = bohr_partial_sum(f, 0.6, M=100, tail_constant=C)
            ok = ok and s1 < s2 <= s1 + t1
        return ok, "M-sum and M-tail bracket the 2M-sum at r = 0.6"

    run("tail_bracketing", tail_bracketing)

    def min_rule():
        gaps = [
            abs(min_rule_radius(RadiusProblem("cor25_monomial", n=1)) - 1.0 / 3.0),
            abs(
                min_rule_radius(RadiusProblem("cor25_monomial", n=3))
                - solve_radius(RadiusProblem("cor25_monomial", n=3)).root
            ),
            abs(min_rule_radius(RadiusProblem("thm23_quasi", K=1.0)) - 1.0 / 3.0),
        ]
        return max(gaps) == 0.0, f"min-rule branch selections exact: {gaps}"

    run("min_rule", min_rule)

    def rotation_invariance():
        f = make_map(NamedMap("koebe_analytic", order=200)).h
        psi = monomial_schwarz(np.exp(0.7j), 1)
        rotated = subordinate(f, psi)
        r = 0.3
        powers = r ** np.arange(1, 201, dtype=np.float64)
        gap = abs(
            float(np.abs(f.coeffs[1:]) @ powers)
            - float(np.abs(rotated.coeffs[1:]) @ powers)
        )
        return gap <= 1e-12, f"rotated Bohr-sum gap {gap:.3e} at r = 0.3"

    run("rotation_invariance", rotation_invariance)

    def campaign():
        seeds = range(QUICK_CAMPAIGN_SEEDS if quick else FULL_CAMPAIGN_SEEDS)
        report = domination_campaign(seeds=seeds)
        worst, count = report["worst_margin"], report["count"]
        return report["all_pass"], f"worst domination margin {worst:.3e} over {count} cases"

    run("domination_campaign", campaign)

    return results
