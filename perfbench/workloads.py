"""The four bohrmap benchmark workloads: inputs, runs and output oracles.

Each workload draws an endless, seed-determined stream of items, runs one
item through the public ``bohrmap`` API (or the ``python -m bohrmap`` CLI)
and checks the output against an oracle written here, apart from the code
under test.  ``check`` returns None for a correct output and a reason
otherwise; ``known_defect`` names the documented cause of a failure (an
exception or a check's reason), or returns None for an unexpected one.
Items are timed in blocks of ``block``: a timed run stops only at a block
boundary.  A verify or cli block holds every pairing or menu entry once, so
each is timed equally often.  ``calibration`` names the kernel of
``calibration.py`` that scales the workload's times to reference speed.
``tail_percentile`` is the percentile reported as the tail latency: the
highest standard one with at least ten samples beyond it in a 30 s run,
below the share of rare slow items (about 1% of campaign items take 5-7x
the median), so that it does not depend on how many of them a seed draws.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as npoly

import bohrmap as bm

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDENS = HERE / "cli_goldens.json"
SHIM = HERE / "cli_shim.py"
SCRATCH = ROOT / ".perfbench_out"

# Tolerances of the oracles, fixed here rather than read from the package.
DOMINATION_TOL = 1e-9
COMPOSITE_TOL = 1e-9
REACH_TOL = 1e-9
SUM_RTOL = 1e-9
WIDTH_TOL = 1e-13
CLOSED_FORM_RTOL = 1e-12
RESIDUAL_TOL = 1e-9
MP_DIGITS = 40


def child_env() -> dict:
    """Environment of every child: the checkout's src first, one BLAS thread."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


# --------------------------------------------------------------------------
# Coefficient models of the catalog maps, transcribed from the paper's
# formulas: |a_m| + |b_m| for m = 1..M.

def _moduli(name: str, k: float | None, M: int) -> np.ndarray:
    m = np.arange(1, M + 1, dtype=np.float64)
    if name == "koebe_analytic":
        return m
    if name == "half_plane_analytic":
        return np.ones(M)
    if name == "harmonic_koebe_K":
        return (m + 1) * (2 * m + 1) / 6 + np.abs((m - 1) * (2 * m - 1)) / 6
    if name == "half_plane_L":
        return (m + 1) / 2 + np.abs(1 - m) / 2
    if name == "f0_sharp":
        return m + (m - 1) ** 2 / m
    if name == "p_k":
        return (1 + k) * m
    if name == "q_k":
        return (1 + k) * np.ones(M)
    raise ValueError(name)


class Campaign:
    """Harmonic and analytic subordination at order 200 (compose-bound).

    An item is one Schwarz seed s: random_schwarz(s, 1 + s % 8), the
    domination check against Koebe and the half-plane map, and one harmonic
    subordinate of p_k or q_k at k = (K-1)/(K+1) checked against the thm23
    subordination radius.
    """

    name = "campaign"
    warmup = 3
    block = 16
    calibration = "convolve"
    tail_percentile = 95
    nominal_rate = 40.0  # items/s; sets the traced item count, never the timing
    ORDER = 200
    SAMPLE_EVERY = 4

    def __init__(self):
        self.bases = [
            bm.make_map(bm.NamedMap(name, order=self.ORDER)).h
            for name in ("koebe_analytic", "half_plane_analytic")
        ]
        angles = 2 * np.pi * np.arange(64) / 64
        self.z = 0.3 * np.exp(1j * angles)

    def items(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        for i in itertools.count():
            yield {
                "s": int(rng.integers(0, 2**31 - 1)),
                "K": _log_uniform(rng, 1.0, 100.0),
                "convex": bool(rng.integers(2)),
                "sample": i % self.SAMPLE_EVERY == 0,
            }

    def run(self, item, tracer=None):
        s, K = item["s"], item["K"]
        psi = bm.random_schwarz(s, 1 + s % 8, order=self.ORDER)
        margins = [bm.check_domination(base, psi) for base in self.bases]
        k = (K - 1.0) / (K + 1.0)
        name = "q_k" if item["convex"] else "p_k"
        variant = "thm23_subordination_convex" if item["convex"] else "thm23_subordination"
        f = bm.make_map(bm.NamedMap(name, k=k, order=self.ORDER))
        sub = bm.subordinate(f, psi)
        profile = bm.check_harmonic_subordination_bound(sub, bm.RadiusProblem(variant, K=K))
        out = {"margins": margins, "all_pass": profile.all_pass}
        if item["sample"]:
            out["psi"] = np.array(psi.series.coeffs)
            out["h"] = np.array(sub.h.coeffs)
            out["g"] = np.array(sub.g.coeffs)
        return out

    def check(self, item, out):
        if min(out["margins"]) < -DOMINATION_TOL:
            return f"domination margin {min(out['margins'])!r} below -{DOMINATION_TOL}"
        if not out["all_pass"]:
            return "harmonic subordinate fails the thm23 subordination bound"
        if not item["sample"]:
            return None
        # f(psi(z)) with f's coefficients from the paper's formulas:
        # p_k: h = sum m z^m, g = k h;  q_k: h = sum z^m, g = k h.
        K = item["K"]
        k = (K - 1.0) / (K + 1.0)
        m = np.arange(self.ORDER + 1, dtype=np.float64)
        a = np.ones(self.ORDER + 1) if item["convex"] else m.copy()
        a[0] = 0.0
        w = npoly.polyval(self.z, out["psi"])
        if np.max(np.abs(w)) >= 0.3 + 1e-12:
            return "psi is not a Schwarz function on |z| = 0.3"
        want_h = npoly.polyval(w, a)
        for part, want in (("h", want_h), ("g", k * want_h)):
            got = npoly.polyval(self.z, out[part])
            err = float(np.max(np.abs(got - want)))
            if not err <= COMPOSITE_TOL:
                return f"composite {part} differs from f(psi(z)) by {err!r} on |z| = 0.3"
        return None

    def known_defect(self, item, failure):
        return None


# The documented map/theorem pairings (bohr.COMPATIBLE at the commit that
# defined the benchmark).
PAIRINGS = (
    ("koebe_analytic", "thm11_univalent"),
    ("koebe_analytic", "thm22_bohr"),
    ("half_plane_analytic", "thm11_univalent"),
    ("half_plane_analytic", "thm11_convex"),
    ("half_plane_analytic", "thm22_bohr"),
    ("harmonic_koebe_K", "thm210_convex_direction_s0"),
    ("half_plane_L", "thm210_convex_direction_s0"),
    ("half_plane_L", "thm211_convex"),
    ("f0_sharp", "thm24_monomial"),
    ("f0_sharp", "cor25_monomial"),
    ("p_k", "thm12_quasi"),
    ("p_k", "thm23_quasi"),
    ("q_k", "thm12_quasi_convex"),
    ("q_k", "thm23_quasi_convex"),
    ("q_k", "thm23_quasi"),
)

# Pairings where the map is extremal, so the sum overshoots the bound past
# the radius; for p_k and q_k only at k = (K-1)/(K+1).
EXTREMAL = frozenset(
    {
        ("koebe_analytic", "thm11_univalent"),
        ("half_plane_analytic", "thm11_convex"),
        ("harmonic_koebe_K", "thm210_convex_direction_s0"),
        ("half_plane_L", "thm211_convex"),
        ("f0_sharp", "thm24_monomial"),
        ("f0_sharp", "cor25_monomial"),
        ("p_k", "thm12_quasi"),
        ("p_k", "thm23_quasi"),
        ("q_k", "thm12_quasi_convex"),
        ("q_k", "thm23_quasi_convex"),
    }
)

_K_VARIANTS = frozenset(
    {
        "thm12_quasi",
        "thm12_quasi_convex",
        "thm23_quasi",
        "thm23_quasi_convex",
        "thm23_subordination",
        "thm23_subordination_convex",
    }
)


class Verify:
    """Bohr profiles, sharpness and boundary reach at order 2000 (bohr-bound).

    Each block visits every documented pairing once, in a seed-shuffled
    order; every fifth item also builds f0 from its dilatation and runs the
    Mobius construction with its residual.
    """

    name = "verify"
    warmup = 2
    block = len(PAIRINGS)
    calibration = "power_sum"
    tail_percentile = 95
    nominal_rate = 11.0
    EPSILON = 0.01
    EXTRA_EVERY = 5
    SUM_POINTS = (0, 85, 170, 255)

    def __init__(self):
        angles = 2 * np.pi * np.arange(64) / 64
        self.residual_points = 0.5 * np.exp(1j * angles)

    def items(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        order = itertools.chain.from_iterable(
            rng.permutation(len(PAIRINGS)) for _ in itertools.repeat(None)
        )
        for i, j in enumerate(order):
            map_name, variant = PAIRINGS[int(j)]
            item = {"map": map_name, "variant": variant, "K": None, "k": None,
                    "dk": None, "n": None, "extremal": (map_name, variant) in EXTREMAL}
            if variant in _K_VARIANTS:
                item["K"] = _log_uniform(rng, 1.0, 100.0)
            if map_name in ("p_k", "q_k"):
                k_max = (item["K"] - 1.0) / (item["K"] + 1.0)
                at_max = bool(rng.integers(2))
                item["k"] = k_max if at_max else float(rng.uniform(0.0, k_max))
                item["extremal"] = item["extremal"] and at_max
            if variant == "thm24_monomial":
                item["dk"], item["n"] = 1.0, 1
            if variant == "cor25_monomial":
                item["n"] = 1
            if i % self.EXTRA_EVERY == self.EXTRA_EVERY - 1:
                item["mobius"] = {
                    "h": "koebe_analytic" if rng.integers(2) else "half_plane_analytic",
                    "a": float(rng.uniform(-0.9, 0.9)),
                    "variant": "plus" if rng.integers(2) else "minus",
                }
            yield item

    def run(self, item, tracer=None):
        spec = bm.NamedMap(item["map"], k=item["k"])
        p = bm.RadiusProblem(item["variant"], K=item["K"], k=item["dk"], n=item["n"])
        profile = bm.profile_for_named_map(spec, p)
        f = bm.make_map(spec)
        excess = bm.sharpness_scan(f, p, self.EPSILON, **bm.default_bound_inputs(spec, p))
        root = bm.solve_radius(p).root
        out = {
            "all_pass": profile.all_pass,
            "excess": excess,
            "reach_series": bm.boundary_reach(f, root),
            "reach_closed": bm.boundary_reach(spec, root),
            "order": f.order,
            "sums": [(float(profile.r_grid[j]), float(profile.partial_sums[j]))
                     for j in self.SUM_POINTS],
        }
        if "mobius" in item:
            koebe_h = bm.make_map(bm.NamedMap("koebe_analytic")).h
            f0 = bm.g_from_monomial(koebe_h, bm.MonomialDilatation(1.0, 0.0, 1))
            out["f0_pass"] = bm.verify_inequality(
                f0, bm.RadiusProblem("cor25_monomial", n=1)
            ).all_pass
            out["f0_b"] = np.array(f0.g.coeffs)
            mob = item["mobius"]
            h = bm.make_map(bm.NamedMap(mob["h"])).h
            w = bm.MobiusDilatation(mob["a"], mob["variant"])
            out["mobius_residual"] = bm.dilatation_residual(
                bm.g_from_mobius(h, w), w, self.residual_points
            )
        return out

    def check(self, item, out):
        if not out["all_pass"]:
            return "Bohr profile has a failing verdict below the radius"
        if item["extremal"] and not out["excess"] > 0.0:
            return f"extremal pair shows no excess past the radius: {out['excess']!r}"
        for got, want in zip(out["reach_series"], out["reach_closed"]):
            if not abs(got - want) <= REACH_TOL:
                return f"series and closed-form boundary reach differ: {got!r} vs {want!r}"
        moduli = _moduli(item["map"], item["k"], out["order"])
        for r, got in out["sums"]:
            want = float(moduli @ r ** np.arange(1, out["order"] + 1))
            if not abs(got - want) <= SUM_RTOL * max(1.0, want):
                return f"partial sum at r = {r!r} is {got!r}, expected {want!r}"
        if "mobius" not in item:
            return None
        if not out["f0_pass"]:
            return "f0 built from its dilatation fails cor25 n = 1"
        m = np.arange(1, len(out["f0_b"]), dtype=np.float64)
        want_b = (m - 1) ** 2 / m
        if not np.allclose(out["f0_b"][1:], want_b, rtol=1e-12, atol=1e-12):
            return "f0 co-analytic coefficients differ from (m-1)^2/m"
        if not out["mobius_residual"] <= RESIDUAL_TOL:
            return f"Mobius dilatation residual {out['mobius_residual']!r}"
        return None

    def known_defect(self, item, failure):
        return None


ROOT_DEFINED = (
    "thm24_monomial",
    "cor25_monomial",
    "thm27_mobius",
    "thm29_convex_direction",
    "thm210_convex_direction_s0",
    "thm211_convex",
)
CLOSED_FORM = (
    "thm11_univalent",
    "thm11_convex",
    "thm12_quasi",
    "thm12_quasi_convex",
    "thm22_bohr",
    "thm23_quasi",
    "thm23_quasi_convex",
    "thm23_subordination",
    "thm23_subordination_convex",
)


def majorant(variant: str, r, k=None, n=None):
    """Majorant minus bound of a root-defined variant, in mpmath."""
    import mpmath  # imported on first check, so set-up time excludes it

    mpmath.mp.dps = MP_DIGITS
    r = mpmath.mpf(r)
    if variant in ("thm24_monomial", "cor25_monomial"):
        k = mpmath.mpf(1) if variant == "cor25_monomial" else mpmath.mpf(k)
        return (k + 1) * r / (1 - r) ** 2 - 2 * n * k * r / (1 - r) - k * n**2 * mpmath.log(1 - r) - 1
    if variant == "thm27_mobius":
        return r**3 - 3 * r**2 + 5 * r - 1
    if variant == "thm29_convex_direction":
        return -(2 * r**2 - 5 * r + 1)
    if variant == "thm210_convex_direction_s0":
        return 2 * r * (1 + r) / (3 * (1 - r) ** 3) + r / (3 * (1 - r)) - 1
    if variant == "thm211_convex":
        return r / (1 - r) ** 2 - 1
    raise ValueError(variant)


def algebraic_radius(variant: str, K=None):
    """Algebraic radius of a closed-form variant (and of thm29, thm211)."""
    import mpmath

    mpmath.mp.dps = MP_DIGITS
    K = None if K is None else mpmath.mpf(K)
    third = mpmath.mpf(1) / 3
    if variant == "thm11_univalent":
        return 3 - mpmath.sqrt(8)
    if variant in ("thm11_convex", "thm22_bohr"):
        return third
    if variant == "thm12_quasi":
        return (5 * K + 1 - mpmath.sqrt(8 * K * (3 * K + 1))) / (K + 1)
    if variant == "thm12_quasi_convex":
        return (K + 1) / (5 * K + 1)
    if variant == "thm23_quasi":
        return (2 * K + 1 - mpmath.sqrt(K * (3 * K + 2))) / (K + 1)
    if variant == "thm23_quasi_convex":
        return (K + 1) / (3 * K + 1)
    if variant == "thm23_subordination":
        return min(third, algebraic_radius("thm23_quasi", K))
    if variant == "thm23_subordination_convex":
        return min(third, algebraic_radius("thm23_quasi_convex", K))
    if variant == "thm29_convex_direction":
        return (5 - mpmath.sqrt(17)) / 4
    if variant == "thm211_convex":
        return (3 - mpmath.sqrt(5)) / 2
    return None


_WIDTH_REASON = "bracket width by rounding"


class Radii:
    """Certified radius roots over every variant (solver- and radii-bound).

    Three items in four solve a root-defined variant; closed-form variants
    return in microseconds and would otherwise set the median.
    """

    name = "radii"
    warmup = 50
    block = 500
    calibration = "python"
    tail_percentile = 99
    nominal_rate = 1200.0
    ROOT_SHARE = 0.75

    def items(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        while True:
            if rng.uniform() < self.ROOT_SHARE:
                variant = ROOT_DEFINED[int(rng.integers(len(ROOT_DEFINED)))]
            else:
                variant = CLOSED_FORM[int(rng.integers(len(CLOSED_FORM)))]
            item = {"variant": variant, "K": None, "k": None, "n": None}
            if variant in _K_VARIANTS:
                item["K"] = _log_uniform(rng, 1.0, 1e12)
            if variant == "thm24_monomial":
                item["k"] = 1.0 - float(rng.uniform(0.0, 1.0))
            if variant in ("thm24_monomial", "cor25_monomial"):
                item["n"] = int(round(_log_uniform(rng, 1.0, 1e5)))
            yield item

    def run(self, item, tracer=None):
        cert = bm.solve_radius(
            bm.RadiusProblem(item["variant"], K=item["K"], k=item["k"], n=item["n"])
        )
        return {"lo": cert.lo, "hi": cert.hi, "root": cert.root}

    def check(self, item, out):
        lo, hi, root = out["lo"], out["hi"], out["root"]
        variant = item["variant"]
        if not lo <= root <= hi:
            return f"root {root!r} outside its bracket [{lo!r}, {hi!r}]"
        exact = algebraic_radius(variant, item["K"])
        if exact is not None and not abs(root - exact) <= CLOSED_FORM_RTOL * exact:
            return f"root {root!r} differs from the algebraic radius {float(exact)!r}"
        if variant in CLOSED_FORM:
            return None if lo == hi == root else "closed-form radius with a non-degenerate bracket"
        if not hi - lo <= WIDTH_TOL:
            # Within rounding of the tolerance: the exact-zero branch.
            near = hi - lo <= WIDTH_TOL * (1 + 2**-10)
            return f"{_WIDTH_REASON if near else 'bracket width'} {hi - lo!r} exceeds {WIDTH_TOL}"
        f_lo = majorant(variant, lo, item["k"], item["n"])
        f_hi = majorant(variant, hi, item["k"], item["n"])
        if not f_lo < 0 < f_hi:
            return f"majorant does not change sign across [{lo!r}, {hi!r}]"
        return None

    def known_defect(self, item, failure):
        """Three documented solver defects.

        The residual guard (root below ~2.6e-5, n >~ 200) and the 1e-9
        lower bracket (n >~ 31700) hit the monomial-dilatation variants at
        large n, where the root is tiny and the majorant steep.  When
        bisection lands on an exact zero, the bracket it builds around it is
        wider than the tolerance by rounding (about 1 item in 40000).
        """
        if isinstance(failure, str):
            return "exact_zero_width" if failure.startswith(_WIDTH_REASON) else None
        if item["variant"] not in ("thm24_monomial", "cor25_monomial"):
            return None
        msg = str(failure)
        if isinstance(failure, RuntimeError) and "residual" in msg:
            return "residual_guard"
        if isinstance(failure, ValueError) and "bracket invalid" in msg:
            return "lower_bracket"
        return None


# Every subcommand and output format; each entry exits 0 at the commit that
# defined the benchmark.
CLI_MENU = (
    ("radius", "--theorem", "thm12", "--K", "3"),
    ("radius", "--theorem", "cor25", "--n", "3", "--format", "csv"),
    ("radius", "--theorem", "thm24", "--dilatation-k", "0.5", "--n", "2", "--format", "json"),
    ("radius", "--theorem", "thm210", "--format", "json"),
    ("radius", "--theorem", "thm23_sub", "--K", "5", "--format", "csv"),
    ("table",),
    ("table", "--max-n", "8", "--format", "csv"),
    ("table", "--format", "json"),
    ("verify", "--map", "K", "--theorem", "thm210"),
    ("verify", "--map", "L", "--theorem", "thm211", "--format", "plain"),
    ("verify", "--map", "p_k", "--k", "0.5", "--theorem", "thm23", "--K", "3", "--format", "json"),
    ("sharpness", "--map", "f0", "--theorem", "cor25", "--n", "1"),
    ("sharpness", "--map", "L", "--theorem", "thm211", "--format", "json"),
    ("sharpness", "--map", "koebe", "--theorem", "thm11", "--format", "csv"),
    ("image-curve", "--map", "koebe", "--r", "0.5", "--samples", "4096"),
    ("selfcheck", "--quick"),
    ("subordination-campaign", "--cases", "20"),
    ("subordination-campaign", "--cases", "20", "--format", "plain"),
)


def menu_key(argv) -> str:
    return " ".join(argv)


def run_cli(argv, trace_path=None) -> dict:
    """One cold ``python -m bohrmap`` (or the tracing shim) and its rusage."""
    if trace_path is None:
        cmd = [sys.executable, "-m", "bohrmap", *argv]
    else:
        cmd = [sys.executable, str(SHIM), str(trace_path), *argv]
    SCRATCH.mkdir(exist_ok=True)
    with open(SCRATCH / "cli_stderr.txt", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT)
        with proc.stdout:
            stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    return {
        "code": proc.returncode,
        "sha256": hashlib.sha256(stdout).hexdigest(),
        "bytes": len(stdout),
        "stderr": stderr.decode(errors="replace")[-500:],
        "rss_kb": usage.ru_maxrss,
        "wall_s": wall,
    }


class Cli:
    """Cold CLI invocations over a shuffled menu (import- and cli-bound)."""

    name = "cli"
    warmup = 1
    block = len(CLI_MENU)
    calibration = "spawn"
    tail_percentile = 90
    nominal_rate = 4.0

    def __init__(self):
        self.goldens = json.loads(GOLDENS.read_text())

    def items(self, seed: int):
        rng = np.random.default_rng([seed, 4])
        while True:
            for j in rng.permutation(len(CLI_MENU)):
                yield {"argv": CLI_MENU[int(j)]}

    def run(self, item, tracer=None):
        if tracer is None:
            return run_cli(item["argv"])
        path = SCRATCH / f"spans-{os.getpid()}.json"
        try:
            out = run_cli(item["argv"], path)
            child = json.loads(path.read_text())
        finally:
            path.unlink(missing_ok=True)
        tracer.merge(child, parent=tracer.current)
        main = [d for n, p, d in zip(child["name"], child["parent"], child["dur"])
                if p < 0 and child["names"][n] == "cli.main"]
        out["main_s"] = sum(main)
        return out

    def check(self, item, out):
        want = self.goldens.get(menu_key(item["argv"]))
        if want is None:
            return "no golden output for this menu entry"
        if out["code"] != want["code"]:
            return f"exit code {out['code']} != {want['code']}: {out['stderr']}"
        if out["bytes"] != want["bytes"] or out["sha256"] != want["sha256"]:
            return f"stdout differs from the golden ({out['bytes']} vs {want['bytes']} bytes)"
        return None

    def known_defect(self, item, failure):
        return None


WORKLOADS = {w.name: w for w in (Campaign, Verify, Radii, Cli)}
