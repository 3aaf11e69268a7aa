"""CSV and JSON files of traces, sweeps and grid functions; floats have 17
significant digits, so that a written trace reads back bit-identically.
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
    """Rebuild a trace's steps from a CSV of `write_trace_csv`.  ValueError,
    naming the file and line, for an empty file, a row without one field per
    column, a field that is no number of its column's type, or a k column
    that is not 0, 1, 2, ... (`monotone_supnorm_check` weighs steps by k)."""
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
            if k != len(trace.steps):
                raise ValueError(f"{where}: k is {k}, expected "
                                 f"{len(trace.steps)}")
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


# summary key, in order -> (default if the summary predates it, test, what
# it must be); a barrier entry is nan where the run did not record it
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
    """Rebuild the trace of PREFIX.trace.csv and PREFIX.summary.json.  A key
    the summary predates reads as its default (tol_grad 1e-10, a barrier
    entry nan); a value of the wrong type or out of range raises ValueError
    naming the key."""
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
    """Node coordinates and values: header "x,value" (1D) or "x,y,value".
    `pground solve` writes its final iterate so (PREFIX.final.csv), and
    `--init file:` reads it back (`read_gridfunction_csv`)."""
    g = u.grid
    coords = g.node_coords().reshape(g.shape + (g.dim,))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y"][:g.dim] + ["value"])
        for idx in map(tuple, np.argwhere(g.interior | g.boundary)):
            w.writerow([*map(_fmt, coords[idx]), _fmt(u.values[idx])])


def read_gridfunction_csv(path, grid: Grid) -> GridFunction:
    """Read node values for grid, one row for each interior and boundary
    node (`write_gridfunction_csv`), coordinates within 1e-9 of the spacing;
    an empty file, a row without one field per column, or a field that is no
    number raises ValueError naming the file and the line."""
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
