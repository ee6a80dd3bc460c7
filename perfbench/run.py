"""bohrmap benchmark: one workload per run, untraced or traced.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
``--trace 0`` times a closed loop of items for ``--seconds`` and reports the
end-to-end metrics, scaled to the host's reference speed by
``calibration.py``.  ``--trace 1`` runs a fixed, seed-determined item list
twice, untraced and then with spans around every public bohrmap function,
and reports the per-layer metrics.  Every item output is checked by the
workload's oracle.  The last stdout line is the result object; the line
before it is the full report.  ``--workload all`` runs every workload in
both modes, one child process at a time.
"""

import os

# One BLAS thread, set before numpy loads, so `@` cannot spread over cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("campaign", "verify", "radii", "cli")
SETUP_REPEATS = 9
IMPORTTIME_REPEATS = 3


def tail(latencies, percentile):
    """(value, samples beyond it) of the nearest-rank ``percentile``."""
    xs = sorted(latencies)
    rank = max(1, math.ceil(len(xs) * percentile / 100.0))
    return xs[rank - 1], len(xs) - rank


def environment() -> dict:
    """Commit, versions and CPU of the machine the run measured."""
    import numpy

    env = {
        "commit": None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "cache": {},
    }
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        env["commit"] = ref
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                env["cache"][f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return env


def measure_setup(workload: str, seed: int) -> tuple:
    """Cold start to the end of import and input generation, in fresh processes.

    Returns the wall times and the same times at reference speed, each
    scaled by bare interpreter starts run just before and just after it.
    """
    from calibration import Calibration
    from workloads import child_env

    calibration = Calibration("spawn", child_env())
    cmd = [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload,
           "--seed", str(seed)]
    times, scaled = [], []
    for i in range(SETUP_REPEATS + 1):
        samples = [calibration.sample() for _ in range(3)]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
        with proc.stdout:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        samples += [calibration.sample() for _ in range(3)]
        if i:  # the first start also writes bytecode caches
            times.append(elapsed)
            scaled.append(elapsed * calibration.scale(samples))
    return times, scaled


def measure_imports() -> dict:
    """Cumulative import times of bohrmap and numpy from ``-X importtime``."""
    from workloads import child_env

    samples = {"bohrmap": [], "numpy": []}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import bohrmap"],
            capture_output=True, env=child_env(), cwd=ROOT, check=True,
        )
        for line in proc.stderr.decode().splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() in samples:
                samples[fields[2].strip()].append(int(fields[1]) / 1000.0)
    return {f"import.{k}_ms": statistics.median(v) for k, v in samples.items()}


class Tally:
    """Oracle verdicts and latencies of one pass over the items.

    Outputs are checked as they arrive and then dropped (kept only with
    ``keep``), so memory does not grow with the number of items.
    """

    def __init__(self, wl, keep=False):
        self.wl = wl
        self.latency = array("d")
        self.calibration = array("d")
        self.ok = array("b")
        self.known: dict[str, int] = {}
        self.unexpected: list[str] = []
        self.records = [] if keep else None

    def add(self, item, out, err, latency) -> None:
        failure = err if err is not None else self.wl.check(item, out)
        if failure is not None:
            cause = self.wl.known_defect(item, failure)
            if cause is None:
                text = f"{type(failure).__name__}: {failure}" if err is not None else failure
                self.unexpected.append(text)
            else:
                self.known[cause] = self.known.get(cause, 0) + 1
        self.latency.append(latency)
        self.ok.append(failure is None)
        if self.records is not None:
            self.records.append((item, out, failure))

    def verdict(self) -> dict:
        attempted = len(self.ok)
        passed = sum(self.ok)
        return {
            "attempted": attempted,
            "passed": passed,
            "failed": attempted - passed,
            "known_defects": self.known,
            "unexpected": len(self.unexpected),
            "unexpected_examples": self.unexpected[:5],
        }


def run_items(wl, items, *, seconds=None, count=None, tracer=None, keep=False,
              calibration=None):
    """Closed loop, one client: the next item starts when the previous returns.

    Runs ``count`` items, or whole blocks of ``wl.block`` items until
    ``seconds`` of run time have passed.  Checking outputs is not timed.
    With a ``calibration``, its kernel runs before each item and once after
    the last, outside the items' times.  Returns the tally and
    the run time.
    """
    tally = Tally(wl, keep)
    checking = 0.0
    t_start = time.perf_counter()
    for i in range(count if count is not None else sys.maxsize):
        if (
            count is None
            and i % wl.block == 0
            and time.perf_counter() - t_start - checking >= seconds
        ):
            break
        item = next(items)
        if calibration is not None:
            tally.calibration.append(calibration.sample())
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run(item)
            else:
                with tracer.span("item"):
                    out = wl.run(item, tracer)
            err = None
        except Exception as exc:
            out, err = None, exc.with_traceback(None)
        t1 = time.perf_counter()
        tally.add(item, out, err, t1 - t0)
        checking += time.perf_counter() - t1
    if calibration is not None:
        tally.calibration.append(calibration.sample())
    return tally, time.perf_counter() - t_start - checking


def end_to_end(wl, seed, seconds) -> tuple:
    from calibration import Calibration
    from workloads import child_env

    workload = wl.name
    setup_wall, setup = measure_setup(workload, seed)
    instance = wl()
    calibration = Calibration(instance.calibration, child_env())
    run_items(instance, instance.items(seed), count=instance.warmup)
    tally, elapsed = run_items(instance, instance.items(seed), seconds=seconds,
                               keep=workload == "cli", calibration=calibration)
    verdict = tally.verdict()
    latencies = calibration.scaled(tally.latency, tally.calibration)
    tail_s, tail_beyond = tail(latencies, instance.tail_percentile)
    if workload == "cli":
        rss_kb = max(out["rss_kb"] for _, out, _ in tally.records if out is not None)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "items_per_s": (verdict["passed"] / math.fsum(latencies), "1/s"),
        "item_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "item_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    report = {
        "times_at": "reference host speed (see calibration.py)",
        "calibration": {
            "kernel": calibration.kernel,
            "reference_s": calibration.reference_s,
            "median_s": statistics.median(tally.calibration),
            "quartiles_s": statistics.quantiles(tally.calibration, n=4),
        },
        "setup_samples_s": setup,
        "setup_wall_samples_s": setup_wall,
        "timed_phase_s": elapsed,
        "items_per_wall_s": verdict["passed"] / math.fsum(tally.latency),
        "item_p50_wall_ms": 1e3 * statistics.median(tally.latency),
        "item_tail_percentile": instance.tail_percentile,
        "item_tail_samples_beyond": tail_beyond,
        "item_samples": len(latencies),
        "failed_frac": verdict["failed"] / verdict["attempted"],
        "failed_frac_base": verdict["attempted"],
        "peak_rss_scope": "child processes" if workload == "cli" else "workload process",
    }
    return metrics, verdict, report


def per_layer(wl, seed, seconds) -> tuple:
    import bohrmap
    from tracer import PER_LAYER, Tracer, layer_metrics, self_time_by_layer
    from workloads import SCRATCH

    workload = wl.name

    imports = measure_imports()
    instance = wl()
    # Two passes over a list sized for a third of --seconds each, so a traced
    # run takes about as long as a timed one; the count depends only on the
    # arguments, so the work counts repeat exactly.
    count = instance.block * math.ceil(instance.nominal_rate * seconds / 3 / instance.block)
    run_items(instance, instance.items(seed), count=instance.warmup)
    plain, plain_time = run_items(instance, instance.items(seed), count=count)
    tracer = Tracer()
    tracer.install(bohrmap)
    try:
        traced, traced_time = run_items(
            instance, instance.items(seed), count=count, tracer=tracer, keep=True
        )
    finally:
        tracer.uninstall()
    SCRATCH.mkdir(exist_ok=True)
    tracer.save(SCRATCH / f"spans-{workload}.json")
    verdict = traced.verdict()
    verdict["unexpected"] += len(plain.unexpected)
    verdict["unexpected_examples"] += plain.unexpected[:5]
    item_time = sum(traced.latency)
    extra = dict(imports)
    extra["trace.items"] = count
    extra["trace.item_time_s"] = item_time
    extra["trace.overhead_frac"] = (traced_time - plain_time) / plain_time
    outs = [out for _, out, _ in traced.records if out is not None]
    if workload == "cli":
        extra["cli.process_overhead_ms"] = 1e3 * statistics.median(
            o["wall_s"] - o["main_s"] for o in outs
        )
        extra["cli.stdout_bytes"] = sum(o["bytes"] for o in outs)
    else:
        extra["cli.process_overhead_ms"] = 0.0
        extra["cli.stdout_bytes"] = 0
    values = layer_metrics(tracer, extra)
    units = dict(PER_LAYER)
    metrics = {name: (values[name], units[name]) for name, _ in PER_LAYER}
    layers = self_time_by_layer(tracer)
    design = {
        "campaign": ("series.compose self time / item time",
                     values["series.compose.self_s"] / item_time),
        "verify": ("bohr + series.evaluate self time / item time",
                   (layers.get("bohr", 0.0) + values["series.evaluate.self_s"]) / item_time),
        "radii": ("solver + radii self time / item time",
                  (layers.get("solver", 0.0) + layers.get("radii", 0.0)) / item_time),
        "cli": ("process overhead / untraced median item latency",
                values["cli.process_overhead_ms"] / (1e3 * statistics.median(plain.latency))),
    }[workload]
    report = {
        "items": count,
        "untraced_phase_s": plain_time,
        "traced_phase_s": traced_time,
        "self_s_by_layer": layers,
        "design_share": {"what": design[0], "value": design[1], "at_least_half": design[1] >= 0.5},
    }
    return metrics, verdict, report


def run_all(seed: int, seconds: int) -> int:
    """Every workload untraced then traced, one child process at a time."""
    code = 0
    for workload in NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", workload, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT,
            )
            lines = proc.stdout.strip().splitlines()
            print(f"== {workload} trace={trace} exit={proc.returncode}")
            print("\n".join(lines[-2:]) if lines else proc.stderr[-2000:], flush=True)
            code = code or proc.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "bohrmap" / "__init__.py").is_file():
        print(f"error: no bohrmap package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    import bohrmap
    from workloads import WORKLOADS

    if Path(bohrmap.__file__).resolve().parent != SRC / "bohrmap":
        print(f"error: imported bohrmap from {bohrmap.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if args.setup_probe:
        next(wl().items(args.seed))
        print("ready", flush=True)
        return 0

    measure = per_layer if args.trace else end_to_end
    metrics, verdict, report = measure(wl, args.seed, args.seconds)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        verdict=verdict, environment=environment(), metrics=metrics,
    )
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": verdict["unexpected"] == 0,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
