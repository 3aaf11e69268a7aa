"""Discrete energies on grid functions.

The gradient lives on cells: in 1D the forward difference per cell, in 2D the
pair of forward differences along the two edges at the cell's lower-left
corner.  Both p-integrals use the rectangle rule.  The resulting discrete
p-Dirichlet energy is convex and exactly differentiable, which is what the
iteration's monotonicity arguments need.

The kernels work on interior node vectors x, and each takes the cell
gradient as the grid's own operator, `grid.apply_G(x)` (G x by SciPy's
compiled kernel on the grid's G, without the sparse matrix's per-call
dispatch, which on the small grids cost more than the kernel).
`_energy` / `_nodal_gradient` are the inner objective and its gradient,
shared by the inner solve and the brute-force oracle.  `_report_logs` gives
the `EnergyReport` and the log-sums of both p-integrals from one cell
gradient; the outer iteration records it and the Rayleigh quotient per step.
The two public functions, `rayleigh_quotient` and `p_norm_pow`, take
`GridFunction`s, as the oracles hold them, and adapt them to these kernels.

Energy sums factor out the largest cell gradient before exponentiation so
that large exponents (p up to 64 and beyond) stay inside double range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Grid


class DegenerateFunction(ValueError):
    """Operation undefined for the identically-zero function."""


@dataclass(frozen=True)
class GridFunction:
    """Node values on a grid, zero on boundary (and exterior) nodes."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise ValueError(f"values shape {vals.shape} != grid {self.grid.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function has non-finite values")
        outside = ~self.grid.interior
        if np.any(vals[outside] != 0.0):
            raise ValueError("grid function must vanish outside the interior")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_interior(cls, grid: Grid, interior_values: np.ndarray) -> "GridFunction":
        vals = np.zeros(grid.shape)
        vals[grid.interior] = interior_values
        return cls(grid, vals)

    @classmethod
    def constant(cls, grid: Grid, c: float = 1.0) -> "GridFunction":
        vals = np.zeros(grid.shape)
        vals[grid.interior] = c
        return cls(grid, vals)

    def scaled(self, c: float) -> "GridFunction":
        return GridFunction(self.grid, c * self.values)


@dataclass(frozen=True)
class EnergyReport:
    """Sup norms of one grid function and of its cell gradient."""

    sup_norm: float
    grad_sup: float


def _log_pow_sum(base_sq: np.ndarray, p: float) -> float:
    """log sum(base_sq ** (p/2)), -inf when base_sq is empty or zero; the
    max is factored out so that large p stays inside double range."""
    m2 = float(base_sq.max()) if base_sq.size else 0.0
    if m2 == 0.0:
        return -math.inf
    return 0.5 * p * math.log(m2) + math.log(np.sum((base_sq / m2) ** (p / 2)))


def _weighted_exp(log_sum: float, weight: float) -> float:
    """weight * exp(log_sum), +inf past exp(700)."""
    log_val = log_sum + math.log(weight)
    if log_val > 700.0:
        return math.inf
    return math.exp(log_val)


def _report_logs(grid: Grid, x: np.ndarray, p: float):
    """(EnergyReport, log_grad, log_norm) of the interior vector x from one
    cell gradient G x; log_grad and log_norm, the logs of the two
    p-integrals without their h^d, are what `_quotient` takes."""
    _require_p(p)
    c = grid.apply_G(x)
    gsq = (c * c).reshape(grid.dim, -1).sum(axis=0)
    report = EnergyReport(sup_norm=float(np.abs(x).max(initial=0.0)),
                          grad_sup=float(np.sqrt(gsq.max(initial=0.0))))
    return report, _log_pow_sum(gsq, p), _log_pow_sum(x * x, p)


def _quotient(log_grad: float, log_norm: float) -> float:
    """Rayleigh quotient from the log-sums of `_report_logs`."""
    if log_norm == -math.inf:
        raise DegenerateFunction("Rayleigh quotient of the zero function")
    return math.exp(log_grad - log_norm)


def _norm_pow(grid: Grid, x: np.ndarray, p: float) -> float:
    """`p_norm_pow` of the function with interior node values x."""
    return _weighted_exp(_log_pow_sum(x * x, p), grid.h ** grid.dim)


def rayleigh_quotient(u: GridFunction, p: float) -> float:
    """Ratio of the p-Dirichlet energy to the p-norm power; scale invariant."""
    return _quotient(*_report_logs(u.grid, u.values[u.grid.interior], p)[1:])


def p_norm_pow(u: GridFunction, p: float) -> float:
    """Rectangle-rule value of the integral of |u|^p (p-th power of the norm)."""
    _require_p(p)
    return _norm_pow(u.grid, u.values[u.grid.interior], p)


def _energy(grid: Grid, x: np.ndarray, fh: np.ndarray, p: float,
            eps: float):
    """(J, c, w): the inner objective J = h^d w.a / p - fh.x at the interior
    vector x (+inf on overflow), from c = G x, a = |c|^2 + eps^2 per cell
    and w = a^(p/2-1); fh is f h^d on the interior nodes."""
    c = grid.apply_G(x)
    a = (c * c).reshape(grid.dim, -1).sum(axis=0) + eps * eps
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        w = a ** (p / 2 - 1)
        bulk = float(np.dot(w, a))
        if math.isnan(bulk):  # inf * 0 in flat cells when p < 2 and eps = 0
            bulk = float(np.sum(w * a, where=a > 0))
    return bulk / p * grid.h ** grid.dim - float(np.dot(fh, x)), c, w


def _nodal_gradient(grid: Grid, c: np.ndarray, w: np.ndarray,
                    fh: np.ndarray) -> np.ndarray:
    """Gradient h^d G^T (w c) - fh of the inner objective on the interior
    nodes, from the (c, w) of one `_energy` call."""
    flux = (c.reshape(grid.dim, -1) * w).ravel()
    return grid.h ** grid.dim * grid.apply_GT(flux) - fh


def _require_p(p: float) -> None:
    if not 1 < p < math.inf:
        raise ValueError(f"exponent p must be finite and exceed 1, got {p}")
