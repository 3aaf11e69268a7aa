"""Spans and counters recorded at pground's module boundaries.

The tracer replaces, for the duration of a traced pass, the names through
which one pground module calls into the next (and the public entry points the
benchmark calls) with wrappers that record a span (id, parent, request,
name, start, end) and bump counters.  Nothing inside the program changes.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import itertools
import os
import statistics
import time
from collections import Counter, defaultdict

# span name -> the (module, attribute) names through which the call is made
BOUNDARIES = {
    "geometry.build_grid": [("pground.iteration", "build_grid"),
                            ("pground.infinity", "build_grid")],
    "calculus.gradient": [("pground.inner", "_raw_functional_gradient")],
    "calculus.energy_report": [("pground.iteration", "energy_report")],
    "calculus.rayleigh_quotient": [("pground.iteration", "rayleigh_quotient")],
    "inner.solve": [("pground.iteration", "solve_step_with_stats")],
    "inner.factorize": [("pground.inner", "factorized")],
    "iteration.inverse_iterate": [("pground", "inverse_iterate"),
                                  ("pground.infinity", "inverse_iterate")],
    "iteration.check_monotonicity": [("pground", "check_monotonicity")],
    "iteration.consistency_estimators": [("pground",
                                          "consistency_estimators")],
    "iteration.check_barrier": [("pground.iteration", "check_barrier")],
    "infinity.sweep": [("pground", "sweep")],
    "traceio.write": [("pground.traceio", "write_trace_csv"),
                      ("pground.traceio", "write_summary_json")],
    "traceio.read": [("pground.traceio", "read_trace_csv"),
                     ("pground.traceio", "read_summary_json")],
}

# the module-global solver caches keyed by id(grid); absent ones count 0
_CACHES = (("pground.inner", "_PRECOND_CACHE"),
           ("pground.inner", "_GRADOP_CACHE"))

# per-layer metric -> unit; "count" and "bytes" metrics must repeat exactly
LAYER_UNITS = {
    "inner.factorize.calls": "count",
    "inner.factorize.s": "s",
    "inner.factorize.nnz": "count",
    "inner.trisolve.calls": "count",
    "inner.trisolve.s": "s",
    "inner.solve.calls": "count",
    "inner.solve.s": "s",
    "inner.iters": "count",
    "inner.self_s": "s",
    "inner.iters_per_outer_step": "ratio",
    "inner.factorize_per_iter": "ratio",
    "inner.trisolve_per_iter": "ratio",
    "inner.nonconvergence": "count",
    "inner.cache_entries": "count",
    "calculus.gradient.calls": "count",
    "calculus.gradient.s": "s",
    "calculus.gradient_per_iter": "ratio",
    "calculus.energy_report.s": "s",
    "calculus.rayleigh_quotient.s": "s",
    "geometry.build_grid.calls": "count",
    "geometry.build_grid.s": "s",
    "traceio.write.s": "s",
    "traceio.read.s": "s",
    "traceio.bytes": "bytes",
    "iteration.inverse_iterate.calls": "count",
    "iteration.inverse_iterate.s": "s",
    "iteration.outer_steps": "count",
    "iteration.self_s": "s",
    "iteration.check_monotonicity.s": "s",
    "infinity.sweep.s": "s",
    "infinity.points": "count",
    "trace.overhead_s": "s",
}


def cache_entries() -> int:
    total = 0
    for mod, name in _CACHES:
        total += len(getattr(importlib.import_module(mod), name, ()))
    return total


class Tracer:
    def __init__(self):
        self.spans = []     # (id, parent, request, name, start, end)
        self.counts = Counter()
        self._ids = itertools.count()
        self._stack = []    # (id, request) of the open spans
        self._patched = []  # (module, attribute, original)

    def wrap(self, name: str, fn):
        """fn, recording a span and the counters its call site adds."""
        after = _AFTER.get(name)
        on_error = _ON_ERROR.get(name)
        calls = name + ".calls"
        spans, stack, counts, ids = (self.spans, self._stack, self.counts,
                                     self._ids)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent, request = stack[-1] if stack else (None, sid)
            stack.append((sid, request))
            counts[calls] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(counts, exc)
                raise
            finally:
                # a tuple of scalars, which the cyclic GC stops tracking
                spans.append((sid, parent, request, name, start,
                              time.perf_counter()))
                stack.pop()
            if after is not None:
                result = after(self, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        try:
            for name, sites in BOUNDARIES.items():
                for modname, attr in sites:
                    mod = importlib.import_module(modname)
                    original = getattr(mod, attr, None)
                    if original is None:  # refactored away: metrics read 0
                        continue
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, self.wrap(name, original))
            yield self
        finally:
            while self._patched:
                mod, attr, original = self._patched.pop()
                setattr(mod, attr, original)

    def run_pass(self, fn):
        """Call fn() traced; returns (wall_s, layer metrics)."""
        first = len(self.spans)
        self.counts.clear()
        caches_before = cache_entries()
        t0 = time.perf_counter()
        fn()
        wall = time.perf_counter() - t0
        self.counts["inner.cache_entries"] = cache_entries() - caches_before
        return wall, _layer_metrics(self.spans[first:], self.counts)

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "parent", "request", "name", "start", "end"])
            for sid, parent, request, name, start, end in self.spans:
                w.writerow([sid, "" if parent is None else parent, request,
                            name, f"{start:.9f}", f"{end:.9f}"])


def _after_factorize(tracer, args, solve):
    tracer.counts["inner.factorize.nnz"] += args[0].nnz
    return tracer.wrap("inner.trisolve", solve)


def _after_solve(tracer, args, result):
    tracer.counts["inner.iters"] += result[1]
    return result


def _solve_error(counts, exc):
    iterations = getattr(exc, "iterations", None)
    if iterations is not None:  # NonConvergence
        counts["inner.nonconvergence"] += 1
        counts["inner.iters"] += iterations


def _after_inverse_iterate(tracer, args, trace):
    tracer.counts["iteration.outer_steps"] += trace.num_steps
    return trace


def _after_sweep(tracer, args, result):
    tracer.counts["infinity.points"] += len(result.entries)
    return result


def _after_write(tracer, args, result):
    tracer.counts["traceio.bytes"] += os.path.getsize(args[0])
    return result


_AFTER = {
    "inner.factorize": _after_factorize,
    "inner.solve": _after_solve,
    "iteration.inverse_iterate": _after_inverse_iterate,
    "infinity.sweep": _after_sweep,
    "traceio.write": _after_write,
}
_ON_ERROR = {"inner.solve": _solve_error}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _layer_metrics(spans, counts) -> dict:
    """Per-layer metrics of one pass from its spans and counters."""
    busy = defaultdict(float)
    children = defaultdict(float)   # span id -> time covered by children
    for sid, parent, _, name, start, end in spans:
        busy[name] += end - start
        if parent is not None:
            children[parent] += end - start
    self_time = defaultdict(float)
    for sid, _, _, name, start, end in spans:
        self_time[name] += end - start - children[sid]
    c = counts
    iters = c["inner.iters"]
    m = {name: c[name] for name, unit in LAYER_UNITS.items()
         if unit in ("count", "bytes")}
    m.update({
        "inner.factorize.s": busy["inner.factorize"],
        "inner.trisolve.s": busy["inner.trisolve"],
        "inner.solve.s": busy["inner.solve"],
        "inner.self_s": self_time["inner.solve"],
        "inner.iters_per_outer_step": _ratio(iters,
                                             c["iteration.outer_steps"]),
        "inner.factorize_per_iter": _ratio(c["inner.factorize.calls"], iters),
        "inner.trisolve_per_iter": _ratio(c["inner.trisolve.calls"], iters),
        "calculus.gradient.s": busy["calculus.gradient"],
        "calculus.gradient_per_iter": _ratio(c["calculus.gradient.calls"],
                                             iters),
        "calculus.energy_report.s": busy["calculus.energy_report"],
        "calculus.rayleigh_quotient.s": busy["calculus.rayleigh_quotient"],
        "geometry.build_grid.s": busy["geometry.build_grid"],
        "traceio.write.s": busy["traceio.write"],
        "traceio.read.s": busy["traceio.read"],
        "iteration.inverse_iterate.s": busy["iteration.inverse_iterate"],
        "iteration.self_s": self_time["iteration.inverse_iterate"],
        "iteration.check_monotonicity.s": busy["iteration.check_monotonicity"],
        "infinity.sweep.s": busy["infinity.sweep"],
    })
    return m


def exact_counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items()
            if LAYER_UNITS[k] in ("count", "bytes")}


def median_metrics(per_pass: list) -> dict:
    """Counts from the first pass (they repeat exactly), times as medians."""
    out = dict(per_pass[0])
    for k, unit in LAYER_UNITS.items():
        if unit not in ("count", "bytes") and k in out:
            out[k] = statistics.median(m[k] for m in per_pass)
    return out
