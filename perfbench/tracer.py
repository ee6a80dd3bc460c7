"""Spans around the public functions of bohrmap, recorded from outside the package.

Every bohrmap module binds its neighbours' functions with ``from .x import f``,
so one function object sits in several module namespaces.  ``Tracer.install``
replaces that object in every ``bohrmap.*`` namespace that holds it, and
``Tracer.uninstall`` puts the original back.  Spans are kept in flat arrays
while the run goes on and summarised (or saved) once it ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# Module names of src/bohrmap; the span of function f in module m is "m.f".
LAYERS = (
    "cli",
    "selfcheck",
    "subordination",
    "bohr",
    "solver",
    "radii",
    "dilatation",
    "catalog",
    "series",
)

# Work done by one call, read from its bound arguments and its result.
WORK = {
    "series.compose": lambda a, out: len(out.coeffs),
    "series.evaluate": lambda a, out: np.size(a["z"]) * len(a["series"].coeffs),
    "bohr.bohr_partial_sum": lambda a, out: a["f"].order if a["M"] is None else a["M"],
    "bohr.verify_inequality": lambda a, out: len(out.r_grid),
    "bohr.boundary_reach": lambda a, out: a["samples"],
    "solver.solve_radius": lambda a, out: out.iterations,
    "radii.majorant_value": lambda a, out: np.size(a["r"]),
    "catalog.closed_form_eval": lambda a, out: np.size(a["z"]),
}

# Calls whose distinct inputs are counted: distinct_frac = distinct / calls.
DISTINCT = {
    "solver.solve_radius": lambda a: (a["p"], a["tol"]),
    "catalog.make_map": lambda a: a["spec"],
}

# Every per-layer metric with its unit; BENCHMARK.json lists the same.
PER_LAYER = (
    ("import.bohrmap_ms", "ms"),
    ("import.numpy_ms", "ms"),
    ("cli.main.self_s", "s"),
    ("cli.process_overhead_ms", "ms"),
    ("cli.stdout_bytes", "bytes"),
    ("series.compose.calls", "count"),
    ("series.compose.self_s", "s"),
    ("series.compose.coeffs_out", "count"),
    ("series.evaluate.calls", "count"),
    ("series.evaluate.self_s", "s"),
    ("series.evaluate.terms", "count"),
    ("series.cauchy_product.calls", "count"),
    ("series.cauchy_product.self_s", "s"),
    ("bohr.bohr_partial_sum.calls", "count"),
    ("bohr.bohr_partial_sum.self_s", "s"),
    ("bohr.bohr_partial_sum.terms", "count"),
    ("bohr.verify_inequality.calls", "count"),
    ("bohr.verify_inequality.self_s", "s"),
    ("bohr.verify_inequality.grid_points", "count"),
    ("bohr.sharpness_scan.self_s", "s"),
    ("bohr.boundary_reach.self_s", "s"),
    ("bohr.boundary_reach.points", "count"),
    ("solver.solve_radius.calls", "count"),
    ("solver.solve_radius.self_s", "s"),
    ("solver.solve_radius.distinct_frac", "ratio"),
    ("solver.bisection_iterations", "count"),
    ("radii.majorant_value.calls", "count"),
    ("radii.majorant_value.points", "count"),
    ("radii.majorant_value.self_s", "s"),
    ("radii.closed_form_radius.self_s", "s"),
    ("radii.m2_tail.calls", "count"),
    ("radii.m2_tail.self_s", "s"),
    ("catalog.make_map.calls", "count"),
    ("catalog.make_map.self_s", "s"),
    ("catalog.make_map.distinct_frac", "ratio"),
    ("catalog.closed_form_eval.points", "count"),
    ("catalog.closed_form_eval.self_s", "s"),
    ("dilatation.g_from_mobius.self_s", "s"),
    ("dilatation.g_from_monomial.self_s", "s"),
    ("dilatation.dilatation_residual.self_s", "s"),
    ("subordination.random_schwarz.calls", "count"),
    ("subordination.random_schwarz.self_s", "s"),
    ("subordination.schwarz_sup.calls", "count"),
    ("subordination.schwarz_sup.self_s", "s"),
    ("subordination.check_domination.calls", "count"),
    ("subordination.check_domination.self_s", "s"),
    ("subordination.subordinate.calls", "count"),
    ("subordination.subordinate.self_s", "s"),
    ("subordination.check_harmonic_subordination_bound.calls", "count"),
    ("subordination.check_harmonic_subordination_bound.self_s", "s"),
    ("selfcheck.run_selfcheck.self_s", "s"),
    ("cli.errors", "count"),
    ("selfcheck.errors", "count"),
    ("subordination.errors", "count"),
    ("bohr.errors", "count"),
    ("solver.errors", "count"),
    ("radii.errors", "count"),
    ("dilatation.errors", "count"),
    ("catalog.errors", "count"),
    ("series.errors", "count"),
    ("trace.items", "count"),
    ("trace.item_time_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

# Per-layer metrics the run measures itself rather than reading from spans.
RUN_METRICS = (
    "import.bohrmap_ms",
    "import.numpy_ms",
    "cli.process_overhead_ms",
    "cli.stdout_bytes",
    "trace.items",
    "trace.item_time_s",
    "trace.overhead_frac",
)

# Metrics named after a span's work counter, and the counters with other names.
_WORK_SUFFIXES = ("terms", "points", "coeffs_out", "grid_points")
_WORK_ALIASES = {"solver.bisection_iterations": "solver.solve_radius"}


class Tracer:
    """Flat span store: name, parent, start, duration, work, failed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.dur = array("d")
        self.work = array("d")
        self.failed = array("b")
        self.distinct: dict[str, set[str]] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.dur)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.dur.append(0.0)
        self.work.append(0.0)
        self.failed.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, failed: bool) -> None:
        self.dur[idx] = time.perf_counter() - self.start[idx]
        self.failed[idx] = failed
        self._stack.pop()

    @property
    def current(self) -> int:
        """Index of the innermost open span."""
        return self._stack[-1]

    @contextmanager
    def span(self, name: str):
        """Span around a block; yields the span's index."""
        idx = self._open(name)
        try:
            yield idx
        except BaseException:
            self._close(idx, True)
            raise
        self._close(idx, False)

    def _wrap(self, name: str, fn):
        work = WORK.get(name)
        key = DISTINCT.get(name)
        sig = inspect.signature(fn) if work or key else None
        seen = self.distinct.setdefault(name, set()) if key else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, True)
                raise
            self._close(idx, False)
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if work:
                    self.work[idx] = work(bound.arguments, out)
                if key:
                    seen.add(repr(key(bound.arguments)))
            return out

        return traced

    def install(self, package) -> None:
        """Wrap every public function of every layer module of ``package``."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        prefix = package.__name__
        modules = [importlib.import_module(f"{prefix}.{layer}") for layer in LAYERS]
        namespaces = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == prefix or n.startswith(prefix + "."))
        ]
        for layer, mod in zip(LAYERS, modules):
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                traced = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, name, traced)
                            self._saved.append((ns, name, fn))

    def uninstall(self) -> None:
        for ns, name, fn in reversed(self._saved):
            setattr(ns, name, fn)
        self._saved.clear()

    def to_dict(self) -> dict:
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "dur": self.dur.tolist(),
            "work": self.work.tolist(),
            "failed": self.failed.tolist(),
            "distinct": {k: sorted(v) for k, v in self.distinct.items()},
        }

    def merge(self, other: dict, parent: int) -> None:
        """Append spans recorded by another process under span ``parent``.

        Their start times stay on the other process's clock; durations and
        nesting are what the summary uses.
        """
        offset = len(self.dur)
        remap = []
        for name in other["names"]:
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
            remap.append(self._ids[name])
        self.name.extend(remap[i] for i in other["name"])
        self.parent.extend(parent if p < 0 else p + offset for p in other["parent"])
        self.start.extend(other["start"])
        self.dur.extend(other["dur"])
        self.work.extend(other["work"])
        self.failed.extend(other["failed"])
        for name, keys in other["distinct"].items():
            self.distinct.setdefault(name, set()).update(keys)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    def summary(self) -> dict:
        """Per span name: calls, self_s, work; per layer: errors."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.dur, dtype=np.float64)
        work = np.frombuffer(self.work, dtype=np.float64)
        failed = np.frombuffer(self.failed, dtype=np.int8).astype(bool)
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - child_time
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=self_time, minlength=k)
        work_sum = np.bincount(name, weights=work, minlength=k)
        spans = {
            n: {"calls": int(calls[i]), "self_s": float(self_s[i]), "work": float(work_sum[i])}
            for i, n in enumerate(self.names)
        }
        layer_of = np.array([n.split(".")[0] for n in self.names] or [""], dtype=object)
        span_layer = layer_of[name]
        parent_layer = np.where(has_parent, layer_of[name[np.maximum(parent, 0)]], "")
        escaped = failed & (span_layer != parent_layer)
        errors = {layer: int(np.sum(escaped & (span_layer == layer))) for layer in LAYERS}
        return {"spans": spans, "errors": errors}


def layer_metrics(tracer: Tracer, extra: dict) -> dict:
    """Value of every PER_LAYER metric; ``extra`` supplies the RUN_METRICS."""
    summary = tracer.summary()
    spans = summary["spans"]
    out = {}
    for metric, _unit in PER_LAYER:
        span, _, stat = metric.rpartition(".")
        if metric in RUN_METRICS:
            out[metric] = extra[metric]
        elif metric in _WORK_ALIASES:
            out[metric] = spans.get(_WORK_ALIASES[metric], {}).get("work", 0.0)
        elif stat == "errors":
            out[metric] = summary["errors"][span]
        elif stat in ("calls", "self_s"):
            out[metric] = spans.get(span, {}).get(stat, 0)
        elif stat in _WORK_SUFFIXES:
            out[metric] = spans.get(span, {}).get("work", 0.0)
        elif stat == "distinct_frac":
            calls = spans.get(span, {}).get("calls", 0)
            out[metric] = len(tracer.distinct.get(span, ())) / calls if calls else 0.0
        else:
            raise KeyError(f"no source for per-layer metric {metric}")
    return out


def self_time_by_layer(tracer: Tracer) -> dict:
    """Total self time of each layer's spans, for the design shares."""
    totals: dict[str, float] = {}
    for name, s in tracer.summary()["spans"].items():
        layer = name.split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + s["self_s"]
    return totals
