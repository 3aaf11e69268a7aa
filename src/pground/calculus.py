"""Discrete energies on grid functions.

The gradient lives on cells: in 1D the forward difference per cell, in 2D the
pair of forward differences along the two edges at the cell's lower-left
corner.  Both p-integrals use the rectangle rule.  The resulting discrete
p-Dirichlet energy is convex and exactly differentiable, which is what the
iteration's monotonicity arguments need.

Every cell gradient here is the grid's own operator applied to the interior
node values, `grid.G @ x`, and `_energy` / `_nodal_gradient` are the one
kernel for the inner objective and its gradient, shared by the inner solve,
`functional_value` / `functional_gradient` and the brute-force oracle.

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

    @classmethod
    def zero(cls, grid: Grid) -> "GridFunction":
        return cls(grid, np.zeros(grid.shape))

    def scaled(self, c: float) -> "GridFunction":
        return GridFunction(self.grid, c * self.values)


@dataclass(frozen=True)
class EnergyReport:
    """Summary norms of one grid function."""

    dirichlet_p: float
    norm_p: float
    sup_norm: float
    grad_sup: float


def gradient_field(u: GridFunction) -> np.ndarray:
    """Per-cell gradient; shape (ncells,) in 1D, (ncx, ncy, 2) in 2D.

    Cells outside the domain report zero.
    """
    g = u.grid
    c = (g.G @ u.values[g.interior]).reshape(g.dim, -1)
    out = np.zeros((g.dim,) + g.cell_mask.shape)
    for k in range(g.dim):  # one component at a time: a 2D mask is fast
        out[k][g.cell_mask] = c[k]
    return out[0] if g.dim == 1 else np.moveaxis(out, 0, -1)


def _cell_grad_sq(u: GridFunction) -> np.ndarray:
    """Squared Euclidean norm of the cell gradient, zero off-domain."""
    f = gradient_field(u)
    if u.grid.dim == 1:
        return f * f
    return f[..., 0] ** 2 + f[..., 1] ** 2


def _log_pow_sum(base_sq: np.ndarray, p: float) -> float:
    """log sum(base_sq ** (p/2)), -inf when base_sq is empty or zero; the
    max is factored out so that large p stays inside double range."""
    m2 = float(base_sq.max()) if base_sq.size else 0.0
    if m2 == 0.0:
        return -math.inf
    return 0.5 * p * math.log(m2) + math.log(np.sum((base_sq / m2) ** (p / 2)))


def _stable_pow_sum(base_sq: np.ndarray, p: float, weight: float) -> float:
    """weight * sum(base_sq ** (p/2)), +inf past exp(700)."""
    log_val = _log_pow_sum(base_sq, p) + math.log(weight)
    if log_val > 700.0:
        return math.inf
    return math.exp(log_val)


def p_dirichlet_energy(u: GridFunction, p: float) -> float:
    """Rectangle-rule value of the integral of |grad u|^p."""
    _require_p(p)
    return _stable_pow_sum(_cell_grad_sq(u), p, u.grid.h ** u.grid.dim)


def p_norm_pow(u: GridFunction, p: float) -> float:
    """Rectangle-rule value of the integral of |u|^p (p-th power of the norm)."""
    _require_p(p)
    vi = u.values[u.grid.interior]
    return _stable_pow_sum(vi * vi, p, u.grid.h ** u.grid.dim)


def p_norm(u: GridFunction, p: float) -> float:
    return p_norm_pow(u, p) ** (1.0 / p)


def rayleigh_quotient(u: GridFunction, p: float) -> float:
    """Ratio of the p-Dirichlet energy to the p-norm power; scale invariant."""
    _require_p(p)
    vi = u.values[u.grid.interior]
    # work in logs: both sums can individually overflow for large p
    log_den = _log_pow_sum(vi * vi, p)
    if log_den == -math.inf:
        raise DegenerateFunction("Rayleigh quotient of the zero function")
    return math.exp(_log_pow_sum(_cell_grad_sq(u), p) - log_den)


def sup_norm(u: GridFunction) -> float:
    return float(np.abs(u.values).max())


def grad_sup(u: GridFunction) -> float:
    return float(np.sqrt(_cell_grad_sq(u).max()))


def energy_report(u: GridFunction, p: float) -> EnergyReport:
    _require_p(p)
    gsq = _cell_grad_sq(u)  # one cell gradient for both gradient fields
    return EnergyReport(
        dirichlet_p=_stable_pow_sum(gsq, p, u.grid.h ** u.grid.dim),
        norm_p=p_norm_pow(u, p),
        sup_norm=sup_norm(u),
        grad_sup=float(np.sqrt(gsq.max())),
    )


def functional_value(v: GridFunction, f: GridFunction, p: float,
                     eps: float = 0.0) -> float:
    """Value of the inner objective:
    sum over cells of (1/p)(|grad v|^2 + eps^2)^(p/2) h^d minus sum of f v h^d.
    """
    _require_p(p)
    grid = v.grid
    fh = f.values[grid.interior] * grid.h ** grid.dim
    return _energy(grid, v.values[grid.interior], fh, p, eps)[0]


def functional_gradient(v: GridFunction, f: GridFunction, p: float,
                        eps: float = 0.0) -> GridFunction:
    """Exact gradient of the inner objective w.r.t. interior node values."""
    grid = v.grid
    fh = f.values[grid.interior] * grid.h ** grid.dim
    _, c, w = _energy(grid, v.values[grid.interior], fh, p, eps)
    return GridFunction.from_interior(grid, _nodal_gradient(grid, c, w, fh))


def _energy(grid: Grid, x: np.ndarray, fh: np.ndarray, p: float,
            eps: float):
    """(J, c, w): the inner objective J = h^d w.a / p - fh.x at the interior
    vector x (+inf on overflow), from c = G x, a = |c|^2 + eps^2 per cell
    and w = a^(p/2-1); fh is f h^d on the interior nodes."""
    c = grid.G @ x
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
    return grid.h ** grid.dim * (grid.GT @ flux) - fh


def _require_p(p: float) -> None:
    if not p > 1:
        raise ValueError(f"exponent p must exceed 1, got {p}")
