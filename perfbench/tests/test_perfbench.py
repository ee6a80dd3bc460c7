"""Tests of the benchmark itself: oracles, tracing, and the output contract.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import bohrmap  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wls  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _first(wl, pred, seed=0):
    return next(item for item in wl.items(seed) if pred(item))


def _flagged(wl, item, out, **changes):
    bad = dict(out)
    bad.update(changes)
    return wl.check(item, bad) is not None


def test_campaign_oracle_flags_a_perturbed_composite_coefficient():
    wl = wls.Campaign()
    item = _first(wl, lambda it: it["sample"])
    out = wl.run(item)
    assert wl.check(item, out) is None
    for part in ("h", "g"):
        coeffs = out[part].copy()
        coeffs[3] += 1e-6
        assert _flagged(wl, item, out, **{part: coeffs})
    assert _flagged(wl, item, out, all_pass=False)
    assert _flagged(wl, item, out, margins=[0.0, -1e-6])


def test_verify_oracle_flags_wrong_verdicts_sums_and_reach():
    wl = wls.Verify()
    item = _first(wl, lambda it: it["extremal"] and "mobius" in it)
    out = wl.run(item)
    assert wl.check(item, out) is None
    assert _flagged(wl, item, out, all_pass=False)
    assert _flagged(wl, item, out, excess=-out["excess"])
    hi, lo = out["reach_closed"]
    assert _flagged(wl, item, out, reach_closed=(hi, lo + 1e-8))
    r, s = out["sums"][-1]
    assert _flagged(wl, item, out, sums=out["sums"][:-1] + [(r, s * (1 + 1e-8))])
    assert _flagged(wl, item, out, f0_pass=False)
    assert _flagged(wl, item, out, mobius_residual=1e-6)


@pytest.mark.parametrize(
    "item",
    [
        {"variant": "cor25_monomial", "K": None, "k": None, "n": 3},
        {"variant": "thm24_monomial", "K": None, "k": 0.4, "n": 7},
        {"variant": "thm211_convex", "K": None, "k": None, "n": None},
        {"variant": "thm23_quasi", "K": 7.5, "k": None, "n": None},
    ],
)
def test_radii_oracle_flags_a_root_moved_by_1e_9(item):
    wl = wls.Radii()
    out = wl.run(item)
    assert wl.check(item, out) is None
    moved = {key: out[key] + 1e-9 for key in ("lo", "hi", "root")}
    assert _flagged(wl, item, out, **moved)
    assert _flagged(wl, item, out, root=out["root"] + 1e-9)


def test_radii_known_defects_are_named_and_others_are_not():
    wl = wls.Radii()
    causes = {}
    for n in (236, 100000):
        item = {"variant": "cor25_monomial", "K": None, "k": None, "n": n}
        with pytest.raises((RuntimeError, ValueError)) as exc:
            wl.run(item)
        causes[n] = wl.known_defect(item, exc.value)
    assert causes == {236: "residual_guard", 100000: "lower_bracket"}
    other = {"variant": "thm210_convex_direction_s0", "K": None, "k": None, "n": None}
    assert wl.known_defect(other, RuntimeError("residual too large")) is None
    big = {"variant": "cor25_monomial", "K": None, "k": None, "n": 100000}
    assert wl.known_defect(big, TypeError("bracket invalid")) is None
    assert wl.known_defect(big, "bracket width 2e-13 exceeds 1e-13") is None


def test_cli_oracle_flags_one_changed_stdout_byte():
    wl = wls.Cli()
    item = {"argv": wls.CLI_MENU[0]}
    out = wl.run(item)
    assert wl.check(item, out) is None
    assert _flagged(wl, item, out, sha256="0" * 64)
    assert _flagged(wl, item, out, bytes=out["bytes"] + 1)
    assert _flagged(wl, item, out, code=1)


def test_every_menu_entry_has_a_golden():
    goldens = json.loads(wls.GOLDENS.read_text())
    assert sorted(goldens) == sorted(wls.menu_key(argv) for argv in wls.CLI_MENU)
    commands = {argv[0] for argv in wls.CLI_MENU}
    assert len(commands) == 7


def _traced(wl, seed, count):
    tracer = tr.Tracer()
    tracer.install(bohrmap)
    try:
        tally, _ = run.run_items(wl, wl.items(seed), count=count, tracer=tracer, keep=True)
    finally:
        tracer.uninstall()
    return tally, tr.layer_metrics(tracer, dict.fromkeys(tr.RUN_METRICS, 0))


@pytest.mark.parametrize("wl, count", [(wls.Radii(), 60), (wls.Campaign(), 3)])
def test_traced_and_untraced_runs_execute_the_same_items(wl, count):
    plain, _ = run.run_items(wl, wl.items(5), count=count, keep=True)
    traced, first = _traced(wl, 5, count)
    _, second = _traced(wl, 5, count)
    assert [r[0] for r in plain.records] == [r[0] for r in traced.records]
    assert list(plain.ok) == list(traced.ok)
    counts = [m for m, unit in tr.PER_LAYER if unit == "count" and not m.startswith("trace.")]
    assert {m: first[m] for m in counts} == {m: second[m] for m in counts}
    calls = first["series.compose.calls"] if wl.name == "campaign" else first["solver.solve_radius.calls"]
    assert calls == (4 * count if wl.name == "campaign" else count)


def test_calibration_scales_each_item_by_the_kernel_runs_beside_it():
    import calibration as cal

    assert {w.calibration for w in wls.WORKLOADS.values()} <= set(cal.REFERENCE_S)
    c = cal.Calibration("convolve")
    ref = c.reference_s
    # The host slows to half speed during item 1 and recovers during item 3.
    samples = [ref, ref, 2 * ref, 2 * ref, ref]
    scaled = c.scaled([1.0, 1.5, 2.0, 1.5], samples)
    assert scaled == pytest.approx([1.0, 1.0, 1.0, 1.0])
    assert 0 < c.sample() < 1.0


def test_tracer_restores_every_namespace():
    originals = {name: getattr(bohrmap, name) for name in ("compose", "solve_radius", "make_map")}
    tracer = tr.Tracer()
    tracer.install(bohrmap)
    assert bohrmap.subordination.compose is bohrmap.compose is not originals["compose"]
    assert bohrmap.bohr.solve_radius is bohrmap.solver.solve_radius
    tracer.uninstall()
    assert bohrmap.compose is bohrmap.series.compose is bohrmap.subordination.compose
    assert bohrmap.compose is originals["compose"]
    assert bohrmap.bohr.make_map is originals["make_map"]


def test_benchmark_json_lists_the_tracer_metrics():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tr.PER_LAYER)
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.NAMES)


def _result(trace):
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "radii", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    report, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return report["report"], result


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_reported_with_its_unit(trace, section):
    report, result = _result(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if trace == 0:
        assert report["item_tail_percentile"] == wls.Radii.tail_percentile
        n = report["item_samples"]
        assert report["item_tail_samples_beyond"] == n - math.ceil(n * 0.99)
        assert report["failed_frac_base"] == result["attempted"]
        assert report["failed_frac"] == result["failed"] / result["attempted"]
    else:
        assert report["design_share"]["at_least_half"]


def test_fails_without_the_package_source():
    bare = ROOT / ".perfbench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "campaign", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=170,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
