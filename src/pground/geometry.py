"""Domains, uniform lattice grids with their discrete operators, and the
inradius.

Domains are 1D intervals, axis-aligned rectangles, or boolean cell masks.
Grids carry an interior/boundary classification per node; functions built on
them vanish on boundary nodes (zero trace), so the boundary set itself is the
discrete representation of the Dirichlet condition.  A grid also owns the one
cell-gradient operator G that every energy, gradient and preconditioner is
built from, together with the operators derived from it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
# the compiled kernels SciPy's sparse products call; private to SciPy, so
# tests pin Grid.apply_G / apply_GT bit-equal to those products
from scipy.sparse import _sparsetools


class DomainError(ValueError):
    """Invalid domain description (empty, disconnected, bad bounds)."""


@dataclass(frozen=True)
class Interval:
    a: float
    b: float

    def __post_init__(self):
        if not -math.inf < self.a < self.b < math.inf:
            raise DomainError(
                f"interval needs finite a < b, got ({self.a}, {self.b})")


@dataclass(frozen=True)
class Rectangle:
    ax: float
    bx: float
    ay: float
    by: float

    def __post_init__(self):
        if not (-math.inf < self.ax < self.bx < math.inf
                and -math.inf < self.ay < self.by < math.inf):
            raise DomainError(
                f"rectangle needs finite ax < bx and ay < by, got "
                f"({self.ax}, {self.bx}) x ({self.ay}, {self.by})"
            )


@dataclass(frozen=True)
class MaskDomain:
    """Union of axis-aligned square cells; cells[ix, iy] = True means inside."""

    width: int
    height: int
    cells: np.ndarray = field(repr=False)
    cell_size: float = 1.0

    def __post_init__(self):
        # a read-only copy: the mask keys the grids shared per (spec, n), so
        # its hash must not change under the caller's later writes
        cells = np.array(self.cells, dtype=bool)
        cells.flags.writeable = False
        if cells.shape != (self.width, self.height):
            raise DomainError(
                f"cells shape {cells.shape} != ({self.width}, {self.height})"
            )
        if not 0 < self.cell_size < math.inf:
            raise DomainError(
                f"cell_size must be positive and finite, got {self.cell_size}")
        if not cells.any():
            raise DomainError("mask has no interior cells")
        ncomp = _count_components(cells)
        if ncomp != 1:
            raise DomainError(f"mask interior is not 4-connected ({ncomp} components)")
        object.__setattr__(self, "cells", cells)

    def __eq__(self, other):
        if not isinstance(other, MaskDomain):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and self.cell_size == other.cell_size
            and np.array_equal(self.cells, other.cells)
        )

    def __hash__(self):
        return hash((self.width, self.height, self.cell_size, self.cells.tobytes()))


DomainSpec = Union[Interval, Rectangle, MaskDomain]


def _count_components(cells: np.ndarray) -> int:
    """Number of 4-connected components of the True cells of a 2D mask:
    the connected components of the graph whose edges join each pair of
    inside cells that share a side."""
    count = int(np.count_nonzero(cells))
    idx = np.zeros(cells.shape, dtype=np.int64)
    idx[cells] = np.arange(count)
    along_x = cells[:-1, :] & cells[1:, :]
    along_y = cells[:, :-1] & cells[:, 1:]
    lo = np.concatenate([idx[:-1, :][along_x], idx[:, :-1][along_y]])
    hi = np.concatenate([idx[1:, :][along_x], idx[:, 1:][along_y]])
    graph = sparse.coo_matrix((np.ones(lo.size), (lo, hi)),
                              shape=(count, count))
    ncomp, _ = csgraph.connected_components(graph, directed=False)
    return int(ncomp)


def read_mask_file(path) -> MaskDomain:
    """Parse the plain-text mask format: "W H h", then H rows of W characters,
    '#' inside / '.' outside, listed top row first.  Every DomainError names
    the file, a `MaskDomain` error at its end."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise DomainError(f"{path}: empty mask file")
    try:
        w, hgt, size = lines[0].split()
        w, hgt, size = int(w), int(hgt), float(size)
        if w < 1 or hgt < 1:
            raise ValueError
    except ValueError:
        raise DomainError(f"{path}: header must be 'W H h' with W and H "
                          f"positive integers and h a number, got "
                          f"{lines[0]!r}") from None
    rows = lines[1:]
    if len(rows) != hgt:
        raise DomainError(f"{path}: expected {hgt} rows, got {len(rows)}")
    cells = np.zeros((w, hgt), dtype=bool)
    for r, row in enumerate(rows):
        if len(row) != w:
            raise DomainError(f"{path}: row {r} has length {len(row)}, expected {w}")
        iy = hgt - 1 - r  # top row of the file is the top of the domain
        for ix, ch in enumerate(row):
            if ch == "#":
                cells[ix, iy] = True
            elif ch != ".":
                raise DomainError(f"{path}: bad character {ch!r} in row {r}")
    try:
        return MaskDomain(width=w, height=hgt, cells=cells, cell_size=size)
    except DomainError as exc:
        raise DomainError(f"{exc} in {path}") from None


@dataclass(frozen=True)
class Grid:
    """Uniform node lattice over a domain.

    Node arrays are indexed [ix] (1D) or [ix, iy] (2D).  `interior` and
    `boundary` partition the nodes that belong to the closed domain; nodes in
    neither set lie outside a mask domain and never carry values.  `cell_mask`
    marks lattice cells inside the domain; energies sum over these cells.
    `build_grid` makes the three masks read-only: the solver entry points
    share one grid per (spec, n) between calls (`shared_grid`), and hand it
    back to their callers with each result.

    The grid owns its discrete operators, each built on first use and
    collected with the grid:
      * `G`, the cell gradient of the interior node values, through which
        the calculus (energies, gradient field, objective and its
        gradient), the inner solve and the brute-force oracle all go;
        `apply_G` and `apply_GT` are the products of G and G^T with a
        vector, by SciPy's compiled kernels on G's arrays without the
        sparse matrix's per-call dispatch;
      * `solver_state`, where the inner solve keeps its factorizations of
        the operators built from G.
    """

    spec: DomainSpec = field(repr=False)
    dim: int
    h: float
    origin: tuple
    shape: tuple
    interior: np.ndarray = field(repr=False)
    boundary: np.ndarray = field(repr=False)
    cell_mask: np.ndarray = field(repr=False)

    @property
    def num_interior(self) -> int:
        return int(self.interior.sum())

    def node_coords(self):
        """Physical coordinates of every node, shape = self.shape (+ (dim,))."""
        axes = [self.origin[d] + self.h * np.arange(self.shape[d])
                for d in range(self.dim)]
        if self.dim == 1:
            return axes[0]
        xs, ys = np.meshgrid(axes[0], axes[1], indexing="ij")
        return np.stack([xs, ys], axis=-1)

    @functools.cached_property
    def G(self) -> sparse.csr_matrix:
        """Interior node values to per-cell gradients: one row per cell and
        axis, all x components first, then all y, with -1/h at the cell's
        lower node and 1/h at its upper node along that axis where those
        are interior.  Built as CSR straight from the node pairs of
        `_axis_pairs`; the stacked `_gradient_operators` are its reference."""
        cols = np.concatenate([np.stack(pair, axis=1)
                               for pair in _axis_pairs(self)])
        ok = cols >= 0
        inv_h = 1.0 / self.h
        data = np.broadcast_to([-inv_h, inv_h], cols.shape)[ok]
        indptr = np.concatenate(([0], np.cumsum(ok.sum(axis=1))))
        return sparse.csr_matrix((data, cols[ok], indptr),
                                 shape=(len(cols), self.num_interior))

    @functools.cached_property
    def _G_arrays(self) -> tuple:
        """(rows, cols, indptr, indices, data) of G, the kernels' arguments."""
        G = self.G
        return G.shape + (G.indptr, G.indices, G.data)

    def apply_G(self, x: np.ndarray) -> np.ndarray:
        """G @ x, by the kernel SciPy's product calls, on G's arrays."""
        rows, cols, indptr, indices, data = self._G_arrays
        out = np.zeros(rows)
        _sparsetools.csr_matvec(rows, cols, indptr, indices, data, x, out)
        return out

    def apply_GT(self, y: np.ndarray) -> np.ndarray:
        """G^T @ y, by the kernel SciPy's product with the CSC view G.T
        calls, on G's arrays."""
        rows, cols, indptr, indices, data = self._G_arrays
        out = np.zeros(cols)
        _sparsetools.csc_matvec(cols, rows, indptr, indices, data, y, out)
        return out

    @functools.cached_property
    def solver_state(self) -> dict:
        """Per-grid state of the inner solve, which `pground.inner` keeps
        here (its `Factors`) so that it is freed with the grid."""
        return {}


def _axis_pairs(grid: Grid) -> list:
    """Per axis, the (lower, upper) interior indices of each domain cell's
    two nodes along that axis, -1 where the node is not interior."""
    idx = -np.ones(grid.shape, dtype=np.int64)
    idx[grid.interior] = np.arange(grid.num_interior)
    if grid.dim == 1:
        cells = np.nonzero(grid.cell_mask)[0]
        return [(idx[cells], idx[cells + 1])]
    ci, cj = np.nonzero(grid.cell_mask)
    return [(idx[ci, cj], idx[ci + 1, cj]), (idx[ci, cj], idx[ci, cj + 1])]


def _gradient_operators(grid: Grid):
    """Sparse per-axis difference operators: interior node values to per-cell
    gradient components (divided by h), each built through COO."""
    inv_h = 1.0 / grid.h
    ops = []
    for lo, hi in _axis_pairs(grid):
        ncell = lo.size
        rows = np.repeat(np.arange(ncell), 2)
        cols = np.stack([lo, hi], axis=1).ravel()
        vals = np.tile([-inv_h, inv_h], ncell)
        ok = cols >= 0
        G = sparse.coo_matrix((vals[ok], (rows[ok], cols[ok])),
                              shape=(ncell, grid.num_interior)).tocsr()
        ops.append(G)
    return ops


def build_grid(spec: DomainSpec, n: int) -> Grid:
    """A new grid discretizing `spec` with n interior nodes (interval) or n
    cells along the shorter side (rectangle / mask).  Its node and cell
    masks are read-only, as a grid may serve many callers (`shared_grid`)."""
    if n < 3:
        raise DomainError(f"resolution n must be >= 3, got {n}")
    if isinstance(spec, Interval):
        dim, origin = 1, (spec.a,)
        h = (spec.b - spec.a) / (n + 1)
        shape = (n + 2,)
        interior = np.zeros(shape, dtype=bool)
        interior[1:-1] = True
        boundary = np.zeros(shape, dtype=bool)
        boundary[0] = boundary[-1] = True
        cell_mask = np.ones(n + 1, dtype=bool)
    elif isinstance(spec, Rectangle):
        dim, origin = 2, (spec.ax, spec.ay)
        lx, ly = spec.bx - spec.ax, spec.by - spec.ay
        h = min(lx, ly) / n
        nx, ny = lx / h, ly / h
        if abs(nx - round(nx)) > 1e-12 * max(1.0, nx) or \
           abs(ny - round(ny)) > 1e-12 * max(1.0, ny):
            raise DomainError(
                f"spacing h={h} does not divide the rectangle sides ({lx}, {ly})"
            )
        nx, ny = int(round(nx)), int(round(ny))
        shape = (nx + 1, ny + 1)
        interior = np.zeros(shape, dtype=bool)
        interior[1:-1, 1:-1] = True
        boundary = ~interior
        cell_mask = np.ones((nx, ny), dtype=bool)
    elif isinstance(spec, MaskDomain):
        dim, origin = 2, (0.0, 0.0)
        short = min(spec.width, spec.height)
        m = max(1, math.ceil(n / short))  # subdivisions per mask cell
        h = spec.cell_size / m
        nx, ny = spec.width * m, spec.height * m
        # fine cell (i, j) is inside iff its coarse mask cell is
        cell_mask = np.repeat(np.repeat(spec.cells, m, axis=0), m, axis=1)
        shape = (nx + 1, ny + 1)
        # incident[i, j] over nodes: count of inside cells touching node (i, j)
        padded = np.zeros((nx + 2, ny + 2), dtype=np.int8)
        padded[1:-1, 1:-1] = cell_mask
        incident = (padded[:-1, :-1] + padded[1:, :-1]
                    + padded[:-1, 1:] + padded[1:, 1:])
        interior = incident == 4
        boundary = (incident > 0) & ~interior
    else:
        raise TypeError(f"unknown domain spec {type(spec).__name__}")
    for mask in (interior, boundary, cell_mask):
        mask.flags.writeable = False
    return Grid(spec, dim, h, origin, shape, interior, boundary, cell_mask)


# the grids `shared_grid` keeps: all of a workload on a few discretizations,
# where a square n=256 grid holds about 15 MB after a p=3 solve (G and the
# multifrontal tree's map)
SHARED_GRIDS = 4


@functools.lru_cache(maxsize=SHARED_GRIDS)
def shared_grid(spec: DomainSpec, n: int) -> Grid:
    """The process's one grid for (spec, n), on which every solve runs
    (`inverse_iterate`, and through it `sweep` and `pground solve`): built
    by `build_grid` on first use and kept, with the operators and
    factorizations it builds up, among the SHARED_GRIDS most recently used,
    so that repeated solves on a few discretizations pay for the grid once.
    A grid that leaves is freed by reference counting once its callers let
    go of it.  Sharing changes no result (`inverse_iterate`)."""
    return build_grid(spec, n)


def inradius(spec: DomainSpec, grid: Grid | None = None) -> float:
    """Radius of the largest inscribed ball.

    Exact for intervals and rectangles.  For masks, the max over interior
    nodes of the Euclidean distance to the nearest non-interior node (exact
    distance transform), accurate to within one grid spacing.  A mask
    given no grid is measured on a grid of spacing cell_size/3
    (n = 3 min(width, height)), so the L-shape (two by two cells of 0.5,
    one removed) reads 0.2357 against its exact (sqrt(2)/2)/(1+sqrt(2)) =
    0.2929; pass the solve's grid for its own spacing.
    """
    if isinstance(spec, Interval):
        return 0.5 * (spec.b - spec.a)
    if isinstance(spec, Rectangle):
        return 0.5 * min(spec.bx - spec.ax, spec.by - spec.ay)
    if isinstance(spec, MaskDomain):
        # loaded here, off the solve path: no solve needs ndimage
        from scipy import ndimage
        if grid is None:
            grid = build_grid(spec, 3 * min(spec.width, spec.height))
        dist = ndimage.distance_transform_edt(grid.interior, sampling=grid.h)
        return float(dist.max())
    raise TypeError(f"unknown domain spec {type(spec).__name__}")
