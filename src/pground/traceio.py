"""CSV / JSON serialization for traces, sweeps, and grid functions.

Floats are printed with 17 significant digits so that a written trace reads
back bit-identically.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from .calculus import EnergyReport, GridFunction
from .geometry import Grid
from .infinity import SweepResult
from .iteration import IterationTrace, TraceStep

TRACE_COLUMNS = ["k", "R_k", "N_k", "Q_k", "sup_norm", "grad_sup",
                 "norm_factor", "inner_iters"]
SWEEP_COLUMNS = ["p", "lambda_R", "lambda_root", "final_ratio",
                 "inradius_reciprocal", "converged", "predicted"]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_trace_csv(path, trace: IterationTrace) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(TRACE_COLUMNS)
        for s in trace.steps:
            w.writerow([s.k, _fmt(s.R), _fmt(s.N), _fmt(s.Q),
                        _fmt(s.report.sup_norm), _fmt(s.report.grad_sup),
                        _fmt(s.norm_factor), s.inner_iters])


def read_trace_csv(path, p: float, h: float,
                   tol_grad: float = 1e-10) -> IterationTrace:
    """Rebuild a trace (numeric columns only) from a CSV written by
    write_trace_csv.  An empty file, a row without one field per column, or
    a field that is no number of its column's type raises ValueError naming
    the file and the line."""
    trace = IterationTrace(p=p, h=h, tol_grad=tol_grad)
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = _header(r, path)
        if header != TRACE_COLUMNS:
            raise ValueError(f"{path}: unexpected trace header {header}")
        for row in r:
            where = f"{path}, line {r.line_num}"
            if len(row) != len(TRACE_COLUMNS):
                raise ValueError(f"{where}: {len(row)} fields, expected "
                                 f"{len(TRACE_COLUMNS)}")
            try:
                k, inner_iters = int(row[0]), int(row[7])
                R, N, Q, sup_norm, grad_sup, norm_factor = map(float,
                                                               row[1:7])
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            rep = EnergyReport(sup_norm=sup_norm, grad_sup=grad_sup)
            trace.steps.append(TraceStep(
                k=k, report=rep, R=R, N=N, Q=Q, norm_factor=norm_factor,
                inner_iters=inner_iters))
    return trace


def _header(reader, path) -> list:
    """The first row of a CSV reader; ValueError naming the file if it has
    none."""
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{path}: empty file, expected a header row")
    return header


def trace_summary(trace: IterationTrace) -> dict:
    """The summary's values, keyed and ordered as `_SUMMARY_KEYS`."""
    return {key: trace.num_steps if key == "steps" else getattr(trace, key)
            for key in _SUMMARY_KEYS}


def write_summary_json(path, trace: IterationTrace) -> None:
    with open(path, "w") as fh:
        json.dump(trace_summary(trace), fh, indent=2)
        fh.write("\n")


def read_summary_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _positive(v) -> bool:
    return _real(v) and 0 < v < math.inf


# summary key, in the summary's order -> (default if the summary predates
# it, test, what it must be); a barrier entry is nan when the run did not
# record it
_SUMMARY_KEYS = {
    "p": (None, lambda v: _real(v) and 1 < v < math.inf,
          "a finite number above 1"),
    "h": (None, _positive, "a positive finite number"),
    "lambda_R": (None, _positive, "a positive finite number"),
    "lambda_Q": (None, _positive, "a positive finite number"),
    "mu": (None, _positive, "a positive finite number"),
    "steps": (None, lambda v: _real(v) and isinstance(v, int) and v >= 0,
              "a nonnegative integer"),
    "converged": (None, lambda v: isinstance(v, bool), "true or false"),
    "tol_grad": (1e-10, lambda v: _real(v) and 0 <= v < math.inf,
                 "finite and nonnegative"),
    "barrier_bound": (math.nan, lambda v: _real(v) and not v < 0,
                      "a nonnegative number or NaN"),
    "first_step_sup": (math.nan, lambda v: _real(v) and not v < 0,
                       "a nonnegative number or NaN"),
}


def read_trace(prefix) -> IterationTrace:
    """Rebuild the trace that PREFIX.trace.csv and PREFIX.summary.json
    record.  A summary that predates a key reads as written with the default
    inner tolerance (tol_grad 1e-10) and without the barrier record (nan).
    A summary value of the wrong type or out of range (a null, a string, a
    p at most 1, a negative tolerance) raises ValueError naming the key."""
    summary = read_summary_json(prefix + ".summary.json")
    if not isinstance(summary, dict):
        raise ValueError(f"{prefix}: the summary is not a JSON object")
    values = {}
    for key, (default, valid, what) in _SUMMARY_KEYS.items():
        if key not in summary and default is None:
            raise ValueError(f"{prefix}: the summary lacks {key}")
        value = summary.get(key, default)
        if not valid(value):
            raise ValueError(f"{key} must be {what}, got {value!r} in "
                             f"{prefix}.summary.json")
        values[key] = value
    trace = read_trace_csv(prefix + ".trace.csv", p=values.pop("p"),
                           h=values.pop("h"),
                           tol_grad=values.pop("tol_grad"))
    steps = values.pop("steps")
    if trace.num_steps != steps:
        raise ValueError(f"{prefix}: the trace has {trace.num_steps} steps, "
                         f"the summary records {steps}")
    for key, value in values.items():
        setattr(trace, key, value)
    return trace


def write_sweep_csv(path, result: SweepResult) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SWEEP_COLUMNS)
        for e in result.entries:
            w.writerow([_fmt(e.p), _fmt(e.lambda_R), _fmt(e.lambda_root),
                        _fmt(e.final_ratio), _fmt(result.inradius_reciprocal),
                        int(e.converged), int(e.predicted)])


def write_gridfunction_csv(path, u: GridFunction) -> None:
    """Node coordinates and values: header "x,value" (1D) or "x,y,value"."""
    g = u.grid
    coords = g.node_coords()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        carried = g.interior | g.boundary
        if g.dim == 1:
            w.writerow(["x", "value"])
            for i in np.nonzero(carried)[0]:
                w.writerow([_fmt(coords[i]), _fmt(u.values[i])])
        else:
            w.writerow(["x", "y", "value"])
            for i, j in zip(*np.nonzero(carried)):
                w.writerow([_fmt(coords[i, j, 0]), _fmt(coords[i, j, 1]),
                            _fmt(u.values[i, j])])


def read_gridfunction_csv(path, grid: Grid) -> GridFunction:
    """Read node values for an existing grid, one row for each node that
    `write_gridfunction_csv` writes (interior and boundary); coordinates
    must match grid nodes to within 1e-9 of the spacing.  An empty file, a
    row without one field per column, or a field that is no number raises
    ValueError naming the file and the line."""
    vals = np.zeros(grid.shape)
    seen = np.zeros(grid.shape, dtype=int)
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = _header(r, path)
        if header not in (["x", "value"], ["x", "y", "value"]):
            raise ValueError(f"{path}: unexpected header {header}")
        expect_dim = 1 if header == ["x", "value"] else 2
        if expect_dim != grid.dim:
            raise ValueError(f"{path}: dimension {expect_dim} != grid {grid.dim}")
        tol = 1e-9 * grid.h
        for row in r:
            where = f"{path}, line {r.line_num}"
            if len(row) != len(header):
                raise ValueError(f"{where}: {len(row)} fields, expected "
                                 f"{len(header)}")
            try:
                *pos, value = map(float, row)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            idx = []
            for d, x in enumerate(pos):
                fi = (x - grid.origin[d]) / grid.h
                i = int(round(fi))
                if abs(fi - i) * grid.h > tol or not 0 <= i < grid.shape[d]:
                    raise ValueError(f"{where}: {pos} is not a grid node")
                idx.append(i)
            vals[tuple(idx)] = value
            seen[tuple(idx)] += 1
    if not np.array_equal(seen, grid.interior | grid.boundary):
        raise ValueError(f"{path}: each interior and boundary node must "
                         "appear exactly once")
    vals[~grid.interior] = 0.0
    return GridFunction(grid, vals)
