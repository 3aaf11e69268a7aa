"""Inner variational solve: minimize the strictly convex objective
(1/p) integral (|grad v|^2 + eps^2)^(p/2) - integral f v over zero-trace
functions.

Method: spectral (Barzilai-Borwein stepped) gradient descent with Armijo
backtracking on the interior node values, preconditioned by the exact
Hessian of the cell energy (a Newton-type preconditioner, Nocedal & Wright,
Numerical Optimization, ch. 3 and 6) taken at an earlier iterate and
refreshed once keeping it would take more iterations than a new factor
costs, counted from the grid's sizes (`_relag`).  A rejected trial step is
followed by the minimizer of the quadratic through the objective and its
slope at the iterate and the objective at the trial, kept within 0.1 and
0.5 of the rejected step (Dennis & Schnabel, Numerical Methods for
Unconstrained Optimization, 6.3.2; Nocedal & Wright, 3.5); the step is
halved instead where the trial objective overflows and below the
objective's floating-point resolution.  One calculus kernel per trial
point, `_energy`, returns the objective with the cell gradients and
weights it was computed from, which the gradient (`_nodal_gradient`) and
the next refresh reuse.  Below the objective's floating-point resolution
a step is accepted by the derivative form of the Armijo condition (Hager &
Zhang, SIAM J. Optim. 2005).  The descent is one loop, `_descend`, over
three parts each called from one place in it: the line search
(`_line_search`), the re-lag rule (`_relag`) and the stop test (`_left`).

One object owns every factorization on a grid, the grid's `Factors`.  It
picks the back end once, from G: LAPACK's banded Cholesky (dpbtrf) for
bandwidth up to BAND_MAX = 64, which covers the interval and the 2D grids
up to the square n=65, and a multifrontal factor beyond
(`pground.multifrontal`): a nested-dissection tree of the grid's interior
nodes (George, SIAM J. Numer. Anal. 1973), padded so that every box at one
depth has one shape, whose fronts each depth factors as one stacked array.
Both back ends factor the same cell Hessian, summed from one list of its
terms in one order; the back end decides only storage and precision: a
band in double, or the tree's fronts in single precision.  `Factors` keeps
that back end's storage map and the p=2 Laplacian (only until a lagged
factor replaces it), and hands each matrix to `factorized`, the one
factorization site.
The Laplacian has three solvers: the band factor on a banded grid, the
fast Poisson solver (sine transforms, no factor) on a wide-band grid whose
interior nodes fill their box, and the tree's factor in double on the
other wide-band grids.

Within one `inverse_iterate` call, the last eps stage at p != 2 starts on
the cell-Hessian factor the previous outer step ended on, and replaces it
by the rule that weighs every factor (a chord method, Kelley, Iterative
Methods for Linear and Nonlinear Equations, SIAM 1995, ch. 5; `_relag`).
The factor passes from step to step through the `carry` list of
`solve_step_with_stats`, a local of the call, so no solve depends on an
earlier one: the first step of each call, each sweep point and every
solve given no carry start fresh, and so does every eps stage before the
last.

One stopping rule: each eps stage descends to its gradient tolerance (100
tol before the last stage) unless a floor ends it first, and hands its last
iterate on; the solve raises NonConvergence at one place, when the last
stage ends above tol.  A last stage at p != 2 also descends until its
Newton decrement is small, which bounds the iterate's relative error
(`_left`); that test never raises.  The floors are listed with
`_descend`.

Every cell-Hessian factor floors the weights at W_FLOOR = 1e-10 of max(w):
at p > 2 a cell where the iterate is flat has w = 0, and only the floor
keeps H positive definite there.  A floor that low keeps the factor close
to the Hessian where most weights are tiny (large p), and float32 may then
round a factor into one that gives no descent; `_descend` releases such a
factor at once.

A wide-band grid's factor runs in single precision because it is a lagged
model of the Hessian, taken some iterations or an outer step earlier: a
double factor's rounding buys nothing that lag can use, and the fronts'
stacked products and solves, bound by memory bandwidth, run faster on half
the bytes.  This is the mixed-precision pattern of factoring low and keeping
the residual high (Carson & Higham, SIAM J. Sci. Comput. 2018): the
gradient, the direction handed back, the iterate, the objective and every
stopping test stay in double.  Two scales keep float32 in range at any p
(at p=64 a cell gradient of 5 gives the weight 2e43, one of 0.1 gives
1e-62): the Hessian is divided by max(w) and the right-hand side is cast at
sup-norm 1; both are undone in double.  The factor needs no positive pivot,
only nonsingular separator blocks; a Hessian that float32 rounds to one
with a singular block is factored in double from the same float32 entries.
The Laplacian and the banded Hessian stay
in double: the first is exact at p=2, and a single-precision band (spbtrf)
took more iterations and was slower.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import logging
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from scipy import sparse
from scipy.linalg import LinAlgError, lapack

from .calculus import GridFunction, _energy, _nodal_gradient
from .geometry import Grid
from .multifrontal import FrontTree

ARMIJO_C = 1e-4   # sufficient-decrease constant of the line search
BACKTRACK = 0.5   # largest step-length factor per rejected trial
BACKTRACK_MIN = 0.1  # least step-length factor per rejected trial
BAND_MAX = 64     # widest band `Factors` hands to LAPACK's dpbtrf
CLAIM_SLACK = 100  # claims' relative slack, in inner tols at sup|f| = 1
FACTOR_RATE = 4.5  # factor work per iteration work (`Factors.relag_cost`)
W_FLOOR = 1e-10   # least weight over max(w) in a cell-Hessian factor

logger = logging.getLogger(__name__)


class NonConvergence(RuntimeError):
    """Inner solve ended above the gradient tolerance (iteration budget or
    floating-point floor); `best` is the last iterate, which has the lowest
    objective of the last eps stage's monotone descent."""

    def __init__(self, residual: float, tol: float, iterations: int,
                 best=None):
        super().__init__(
            f"inner solve stalled: gradient sup-norm {residual:.3e} > tol "
            f"{tol:.3e} after {iterations} iterations"
        )
        self.residual = residual
        self.tol = tol
        self.iterations = iterations
        self.best = best


MAX_INNER_ITERS = 200_000  # iteration budget of one inner solve, all stages


def _resolved_tol(f_sup: float, tol_grad: float | None) -> float:
    """The absolute stopping threshold on the sup-norm of the objective
    gradient: tol_grad, or when None 1e-10 * max(1, sup|f|), which keeps the
    test invariant under rescaling of the right-hand side."""
    if tol_grad is not None:
        return tol_grad
    return 1e-10 * max(1.0, f_sup)


def _eps_schedule(p: float, h: float) -> tuple:
    """The eps stages of a solve from zero: the single eps = 0 for p >= 2,
    and for p < 2 a quarter-ratio continuation from 16 h^2 down to
    h^2 / 4096.  Stopping the continuation at h^2 leaves a measurable bias
    in the converged Rayleigh quotient (relative 3e-6 at h = 1/32, p = 1.5,
    on the interval and the L-shape); the longer tail removes it."""
    if p >= 2:
        return (0.0,)
    e = h * h
    return tuple(16 * e * 0.25 ** k for k in range(9))


def _signed_power(v: np.ndarray, p: float) -> np.ndarray:
    """Nodewise |v|^(p-2) v, with 0 mapped to 0."""
    if not p > 1:
        raise ValueError(f"p must exceed 1, got {p}")
    a = np.abs(v)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(a > 0, a ** (p - 2) * v, 0.0)


def solve_step_with_stats(grid: Grid, f: np.ndarray, p: float,
                          tol_grad: float | None = None,
                          initial: np.ndarray | None = None,
                          carry: list | None = None):
    """Minimizer of the inner objective for the right-hand side f, on
    interior node vectors (f, the start and the minimizer x), with the total
    inner iteration count, as (x, iterations).  tol_grad is the absolute
    stopping threshold on the gradient sup-norm (`_resolved_tol`).

    A solve from zero (initial None) runs every stage of `_eps_schedule`,
    each from the previous stage's last iterate and with what is left of
    MAX_INNER_ITERS; the continuation is there for a start that far from
    the minimizer.  A solve given a start runs the last eps only: the
    strictly convex problem's minimizer does not depend on the start, and
    the continuation would walk a start close to it away and back.  At
    p >= 2 the schedule is the single eps = 0.  NonConvergence, carrying the
    last iterate as a GridFunction, is raised when the last stage ends above
    the tolerance.

    A last eps stage preconditioned by the cell Hessian also holds its
    Newton decrement to the relative tolerance tau = CLAIM_SLACK
    _resolved_tol(1.0, tol_grad), the slack `check_monotonicity` grants
    (`_left`).

    carry, a list that is empty or holds one factor, is handed to the last
    stage: at p != 2 that stage starts on the factor in it and leaves there
    the factor it ends on (`_descend`).  `inverse_iterate` passes one list
    through the steps of one call; without it every solve starts fresh.

    The solve runs with BLAS on one thread (`_one_blas_thread`), whatever
    the caller's count, which it restores."""
    tol = _resolved_tol(float(np.abs(f).max(initial=0.0)), tol_grad)
    eps_stages = _eps_schedule(p, grid.h)
    if initial is not None:
        eps_stages = eps_stages[-1:]
    fh = f * grid.h ** grid.dim
    x = np.zeros(grid.num_interior) if initial is None else initial
    total_iters = 0
    tau = CLAIM_SLACK * _resolved_tol(1.0, tol_grad)
    with _one_blas_thread():
        for stage, eps in enumerate(eps_stages):
            last = stage == len(eps_stages) - 1
            x, used, residual = _descend(grid, x, fh, p, eps,
                                         tol if last else 100 * tol,
                                         MAX_INNER_ITERS - total_iters,
                                         tau if last else None,
                                         carry if last else None)
            total_iters += used
    if not residual <= tol:
        raise NonConvergence(residual, tol, total_iters,
                             GridFunction.from_interior(grid, x))
    return x, total_iters


@contextlib.contextmanager
def _one_blas_thread():
    """Hold each bundled OpenBLAS (`_blas_thread_controls`) to one thread
    for the body, and restore the count it had after it, on an exception
    too; a library already on one thread is left alone.  The count is
    process-wide, so solves in concurrent threads would share it.

    One thread is what the back ends were calibrated on, and what makes
    results independent of the machine: the fronts' batched matmul and
    NumPy's dot products sum in another order on several threads."""
    restore = []
    try:
        for get, set_ in _blas_thread_controls():
            count = get()
            if count != 1:
                set_(1)
                restore.append((set_, count))
        yield
    finally:
        for set_, count in restore:
            set_(count)


@functools.cache
def _blas_thread_controls() -> tuple:
    """(get, set) of the thread count of each OpenBLAS that SciPy and NumPy
    bundle and have loaded: scipy.libs/libscipy_openblas-*, which serves
    LAPACK, and numpy.libs/libscipy_openblas64_*, which serves numpy.dot and
    numpy.matmul (its symbols carry the suffix 64_).  A library or symbol that
    is absent, as with another BLAS build or platform, is left out, so the
    pin is then a no-op.  Looked up once, on the first solve."""
    controls = []
    for package in ("scipy", "numpy"):
        root = os.path.dirname(os.path.dirname(sys.modules[package].__file__))
        libs = os.path.join(root, package + ".libs")
        try:
            names = sorted(os.listdir(libs))
        except OSError:
            continue
        for name in names:
            if not name.startswith("libscipy_openblas"):
                continue
            try:
                # only a library the process has loaded already
                lib = ctypes.CDLL(os.path.join(libs, name),
                                  mode=getattr(os, "RTLD_NOLOAD", 0))
            except OSError:
                continue
            for suffix in ("", "64_"):
                get = getattr(lib, "scipy_openblas_get_num_threads" + suffix,
                              None)
                set_ = getattr(lib, "scipy_openblas_set_num_threads" + suffix,
                               None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    controls.append((get, set_))
                    break
    return tuple(controls)


class Banded(NamedTuple):
    """A symmetric matrix in LAPACK upper band storage, A[i, j] with i <= j
    at ab[b + i - j, j], b the bandwidth; nnz counts its stored entries in
    both triangles, as a sparse matrix's nnz does."""

    ab: np.ndarray
    nnz: int


def factorized(A):
    """Solve callable for the SPD matrix A, the one factorization site of
    the inner solve.  A `Banded` is factored by LAPACK's banded Cholesky
    (dpbtrf, solves by dpbtrs); a failed factor (A not positive definite)
    raises scipy.linalg.LinAlgError.

    A `Fronts` is factored by the multifrontal factor of its tree
    (`pground.multifrontal`) in its precision, and raises LinAlgError
    where a separator block is singular in it; in single precision its
    solve scales the right-hand side to sup-norm 1.  The solve of any A
    returns float64."""
    if isinstance(A, Banded):
        chol, info = lapack.dpbtrf(A.ab, overwrite_ab=True)
        if info != 0:
            raise LinAlgError(f"banded Cholesky failed (dpbtrf info={info})")

        def solve(rhs):
            return lapack.dpbtrs(chol, rhs)[0]
        return solve
    return A.tree.factor(A)


class Factors:
    """The inner solve's factorizations on one grid, built from its cell
    gradient G alone (dim components per cell) and the shape of its
    interior nodes, and kept in the grid's `solver_state` by `Factors.of`.
    Nothing here refers back to the grid, so reference counting frees it
    with the grid.

    `preconditioner` factors the exact Hessian of the cell energy, up to its
    factor h^d: G^T H G with, per cell, H = w_f I + (p-2) w u u^T, where
    u = c / sqrt(a) and w_f is the weight w floored at W_FLOOR max(w).
    H is positive definite for every p > 1, its eigenvalues being at least
    min(1, p-1) w_f.  The per-cell entries [H_xx, H_xy, H_yy] (H alone in
    1D) reach the matrix as terms G[r, i] H_rs G[s, j], r and s rows of one
    cell.  The cross term H_xy couples the nodes (i+1, j) and (i, j+1),
    which makes the Laplacian's 5-point pattern a 7-point one.

    The back end is fixed once, by the bandwidth b in the grid's natural
    node order of such an operator, which couples the interior nodes of
    each cell, so b is the widest span of one cell's nodes: 1 on the
    interval, the interior nodes per column in 2D.  It decides only how the
    Hessian is stored and in what precision.  Both storage maps are built
    from one list of the Hessian's terms (`_terms`), and each sums them
    into the matrix's entries in one sparse product, in the list's order,
    so that both hold the same matrix to the bit:

    * A `banded` grid (b <= BAND_MAX) maps the terms to LAPACK band storage
      (`_band`) and factors H in double.  The cross term couples nodes one
      closer in the node order than (i, j) and (i+1, j) where all are
      interior, so it adds entries but no width to the band.  The p=2
      Laplacian G^T G is the same map at H = I.
    * The other grids factor H / max(w) in single precision on their
      multifrontal tree (`_fronts`, `pground.multifrontal`), built once
      with its map; the solution is divided by max(w) in double (module
      docstring).  The map places each entry in the front of the node the
      tree eliminates first, where a factor scatters it, one depth at a
      time.  Where a single-precision factor meets a singular separator
      block, the same entries are factored in double (`preconditioner`).

    The Laplacian has three solvers (`laplacian`): the band map on a banded
    grid; on a wide-band grid whose interior nodes fill their box (a
    rectangle, or a mask with every cell inside) the fast Poisson solver,
    since there G^T G is the 5-point Dirichlet Laplacian, diagonal in the
    sine basis (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 1970); and on
    the other grids the tree's factor of the same map at H = I, in double,
    whose padding and off-mask nodes are identity rows.  interior, which
    `Factors.of` reads from the grid, marks the interior nodes over their
    bounding box, the last axis fastest in the node order; a box grid is
    one where it is all true.  A box grid thus factors no Laplacian in any
    solve.  A sine-transform solve costs more than a band solve on the
    small grids, so banded grids keep the band.
    """

    def __init__(self, G: sparse.csr_matrix, dim: int, interior: np.ndarray):
        self._G = G
        self._dim = dim
        self._cells = G.shape[0] // dim
        # each row of G holds its cell's nodes along one axis, in increasing
        # order; a cell spans from its rows' lowest node to their highest
        count = np.diff(G.indptr)
        first = G.indices[np.minimum(G.indptr[:-1], G.nnz - 1)]
        low = np.where(count > 0, first, G.shape[1]).reshape(dim, -1)
        high = np.where(count > 0, G.indices[G.indptr[1:] - 1], -1)
        span = high.reshape(dim, -1).max(axis=0) - low.min(axis=0)
        self._b = int(span.max(initial=0))
        self.banded = self._b <= BAND_MAX
        # (rows, columns) of the stored components of a symmetric cell
        # matrix: xx in 1D; xx, xy, yy in 2D, where [::2] are the diagonal
        self._components = ([0], [0]) if dim == 1 else ([0, 0, 1], [0, 1, 1])
        self._width = len(self._components[0]) * self._cells  # H's length
        self._interior = interior
        # the interior nodes per axis of a wide-band grid whose interior
        # nodes fill their box
        self._box = None if self.banded or not interior.all() else \
            interior.shape

    @classmethod
    def of(cls, grid: Grid) -> Factors:
        """The grid's Factors, built on first use."""
        state = grid.solver_state
        if "factors" not in state:
            nodes = np.nonzero(grid.interior)
            box = tuple(slice(i.min(), i.max() + 1) for i in nodes)
            state["factors"] = cls(grid.G, grid.dim, grid.interior[box])
        return state["factors"]

    def preconditioner(self, c: np.ndarray, w: np.ndarray, p: float,
                       eps: float):
        """Factorized solve with the cell Hessian at the cell gradients c and
        weights w = a^(p/2-1) of one `_energy` call (a = |c|^2 + eps^2).
        None if max(w) is not positive and finite (the start from zero at
        p != 2), or if a wide-band grid's factor meets a singular separator
        block in double as well as in single precision; the caller then
        stands the Laplacian in.  Every solve returns the solution in
        double."""
        wmax = float(w.max()) if w.size else 1.0
        if not (wmax > 0 and math.isfinite(wmax)):
            return None
        # the lagged factors replace the Laplacian that a cold start stood
        # in, so its solver is dropped before the first of them is built
        vars(self).pop("laplacian", None)
        if self.banded:
            return self._band_factor(self._cell_entries(c, w, p, eps))
        # float32 holds the Hessian at max(w) = 1, at any p
        H = self._cell_entries(c, w / wmax, p, eps)
        try:
            solve_s = factorized(self._fronts.matrix(H, np.float32))
        except LinAlgError:
            # rounding left a separator block singular: the same entries,
            # rounded to float32 as that factor took them, so that the
            # direction depends on w's scale no more than there, factored
            # in double
            try:
                solve_s = factorized(self._fronts.matrix(
                    H.astype(np.float32), np.float64))
            except LinAlgError:
                return None

        def solve(rhs):
            x = solve_s(rhs)
            x /= wmax
            return x
        return solve

    def _cell_entries(self, c, w, p, eps):
        """The per-cell entries of H = w_f I + (p-2) w u u^T with w_f =
        max(w, W_FLOOR max(w)): H_xx for all cells, then H_xy and H_yy (H
        alone in 1D), as the columns of `_terms` number them."""
        c = c.reshape(self._dim, -1)
        a = (c * c).sum(axis=0) + eps * eps
        u = np.divide(c, np.sqrt(a), out=np.zeros_like(c), where=a > 0)
        i, j = self._components
        H = ((p - 2) * w * u)[i] * u[j]
        H[::2] += np.maximum(w, W_FLOOR * w.max(initial=0.0))
        return H.ravel()

    def _band_factor(self, H: np.ndarray):
        """Banded factor of G^T H G from the per-cell entries H.  The band
        is built in Fortran order, which dpbtrf factors in place, without a
        copy."""
        to_band, nnz = self._band
        b, n = self._b, self._G.shape[1]
        ab = to_band @ H
        return factorized(Banded(ab.reshape(n, b + 1).T, nnz))

    @functools.cached_property
    def relag_cost(self) -> float:
        """A new cell-Hessian factor's cost in inner iterations, the price
        `_relag` weighs: counted from sizes the grid fixes, never timed, so
        that a solve takes one path on every machine.  A band factor makes
        n b^2 multiply-adds (n nodes, bandwidth b) where an iteration passes
        over the n b band entries and the cells; a tree factor passes over
        its fronts, n_f^2 entries a box, where an iteration passes twice
        over K (n_f k a box, up and down) and over the cells.  One rate,
        FACTOR_RATE, turns both counts into iterations: the band factor's
        multiply-adds take about 1/4.5 of an iteration's time per entry,
        and the tree factor's work per front entry about 4.5 times it.  Both
        also make a fixed number of calls, which is all they cost on the
        smallest grids; there a re-lag costs about two iterations, the least
        this returns.

        That gives 2 on the interval n=63, 3.1 on the squares n=16, 14 on
        the square n=64 and 9-12 on the trees of the squares n=72-256 and
        the L-shape n=72.  Measured with BLAS on one thread, the factor
        alone costs 1.5-1.7, 8.7 and 6.4-7.3 iterations there, and the
        interval's re-lags about two.  A re-lag also restarts the step at
        Newton's, which the line search cuts back more often than a BB step
        (1.41 energy evaluations an iteration on `batch_small`, 1.26 under
        a 20-iteration window), so the counts price that as well."""
        if self.banded:
            n, b = self._G.shape[1], self._b
            return max(2.0, n * b * b / (FACTOR_RATE * (n * b + self._cells)))
        fronts = sum(len(d.nodes) * d.nf * d.nf for d in self._fronts.depths)
        kept = sum(len(d.nodes) * d.nf * d.k for d in self._fronts.depths)
        return max(2.0, FACTOR_RATE * fronts / (2 * kept + self._cells))

    @functools.cached_property
    def laplacian(self):
        """Solve callable for G^T G, the 3/5-point Dirichlet Laplacian the
        quadratic energy induces: the preconditioner at p=2 and the stand-in
        of a cold start.  A banded grid factors it by the band map, a box
        grid solves it by sine transforms (`_dst_solver`), and the other
        wide-band grids factor it on their tree, in double.
        `preconditioner` drops it whenever it builds a lagged factor, so
        that it adds no memory to theirs; the next cold start builds it
        again."""
        if self._box is not None:
            return self._dst_solver()
        H = np.zeros((len(self._components[0]), self._cells))
        H[::2] = 1.0
        if self.banded:
            return self._band_factor(H.ravel())
        return factorized(self._fronts.matrix(H.ravel()))

    def _dst_solver(self):
        """Solve callable for G^T G on a box of m_1 x ... interior nodes,
        the 5-point Dirichlet Laplacian there, by the type-I discrete sine
        transform S along each axis: x = S(inv S(b)), where S is its own
        inverse up to 2/(m+1) per axis and G^T G has the eigenvalues
        lambda_k = (4/h^2) sum over axes of sin^2(pi k / (2 (m+1))) on the
        sine basis, so inv = prod(2/(m+1)) / lambda.  1/h is read from G's
        entries, which are +-1/h, so lambda are those of G^T G itself."""
        box = self._box
        inv_h2 = float(np.abs(self._G.data).max()) ** 2
        lam = np.zeros(box)
        for axis, m in enumerate(box):
            k = np.arange(1, m + 1).reshape([-1 if a == axis else 1
                                             for a in range(len(box))])
            lam += 4.0 * inv_h2 * np.sin(np.pi * k / (2 * (m + 1))) ** 2
        inv = math.prod(2.0 / (m + 1) for m in box) / lam

        def solve(rhs):
            y = rhs.reshape(box)
            for axis in range(len(box)):
                y = _dst(y, axis)
            y = y * inv
            for axis in range(len(box)):
                y = _dst(y, axis)
            return y.reshape(-1)
        return solve

    def _cell_table(self):
        """(node, entry, component), per cell the stored entries of its rows
        of G, the table `_terms` is built from: row e * dim + k holds, for
        every cell, the e-th stored entry of the cell's row along axis k,
        entry its value, node its column and component k.  A cell that
        stores fewer entries than the widest row (nodes off the interior)
        has zero entries at node 0 in their place, so each term they make
        is zero."""
        G, dim, ncell = self._G, self._dim, self._cells
        # row k * ncell + c of G holds component k of cell c
        count = np.diff(G.indptr).reshape(dim, ncell)
        start = G.indptr[:-1].reshape(dim, ncell)
        width = int(count.max(initial=0))
        node = np.zeros((width * dim, ncell), dtype=G.indices.dtype)
        entry = np.zeros((width * dim, ncell))
        for e, k in itertools.product(range(width), range(dim)):
            stored = count[k] > e
            at = start[k, stored] + e
            node[e * dim + k, stored] = G.indices[at]
            entry[e * dim + k, stored] = G.data[at]
        return node, entry, np.tile(np.arange(dim, dtype=np.int32), width)

    def _terms(self) -> tuple:
        """(i, j, column, value): the terms of G^T H G, the one list both
        storage maps are built from.  Each term is the product G[r, i]
        G[s, j] of two stored entries of one cell's rows r and s (`value`),
        times that cell's entry H[column] of the symmetric cell matrix, and
        adds to the matrix entry [i, j], i <= j.  A term with i < j stands
        for [j, i] as well; one with i = j comes once for (r, s) and once
        for (s, r).  The terms run over the ordered pairs of `_cell_table`
        rows, the first row slowest, then over the cells: the order in
        which both maps sum them, so that both back ends hold the same
        matrix to the bit."""
        ncell = self._cells
        node, entry, component = self._cell_table()
        value = entry[:, None] * entry[None, :]
        keep = (node[:, None] <= node[None, :]) & (value != 0)
        i = np.broadcast_to(node[:, None], keep.shape)[keep]
        j = np.broadcast_to(node[None, :], keep.shape)[keep]
        # components (k, m) -> 0, 1, 2 for xx, xy or yx, yy
        pair = component[:, None] + component[None, :]
        column = pair[..., None] * ncell + np.arange(ncell, dtype=np.int32)
        return i, j, column[keep], value[keep]

    @functools.cached_property
    def _band(self):
        """(to_band, nnz): to_band, a sparse matrix, takes the per-cell
        entries H to G^T H G on and above its diagonal in its upper band
        storage, the flat (b + 1) * n array in column-major order.  It adds
        each term of `_terms` at [i, j] to row b + i - j, column j, and its
        product sums them in the order listed.  nnz counts the stored
        entries of G^T H G in both triangles, the 3- or 7-point pattern."""
        b, n = self._b, self._G.shape[1]
        i, j, column, value = self._terms()
        place = j * (b + 1) + b + i - j
        hit = np.bincount(place, minlength=(b + 1) * n) > 0
        nnz = 2 * np.count_nonzero(hit) - np.count_nonzero(hit[b::b + 1])
        to_band = sparse.coo_matrix((value, (place, column)),
                                    shape=((b + 1) * n, self._width))
        return to_band, int(nnz)

    @functools.cached_property
    def _fronts(self) -> FrontTree:
        """The map of a wide-band grid's factors: the nested-dissection tree
        of its interior nodes, the sums of the terms of `_terms` that make
        each entry of the matrix, and the entry's place in the fronts
        (`pground.multifrontal`), built on the first factor."""
        return FrontTree(self._interior, self._terms(), self._width)


def _dst(a: np.ndarray, axis: int) -> np.ndarray:
    """Type-I discrete sine transform of a along axis, y_k = sum over j of
    a_j sin(pi j k / (m+1)) for j, k = 1..m, by the real FFT of the odd
    extension (0, a, 0, -reversed a), whose k-th coefficient is -2i y_k.
    numpy.fft, which numpy loads with itself, keeps scipy.fft off the
    import path."""
    a = np.moveaxis(a, axis, -1)
    m = a.shape[-1]
    z = np.zeros(a.shape[:-1] + (2 * m + 2,))
    z[..., 1:m + 1] = a
    z[..., m + 2:] = -a[..., ::-1]
    return np.moveaxis(np.fft.rfft(z)[..., 1:m + 1].imag * -0.5, -1, axis)


def _backtrack(t: float, slope: float, rise: float) -> float:
    """The next trial step after x - t d failed the Armijo test, where
    slope = g.d > 0 and rise = J(x - t d) - J(x) is finite: the minimizer
    slope t^2 / (2 (rise + slope t)) of the quadratic in s through
    phi(0) = J(x), phi'(0) = -slope and phi(t) = J(x - t d), clipped to
    [BACKTRACK_MIN t, BACKTRACK t] (Dennis & Schnabel, Numerical Methods
    for Unconstrained Optimization, 6.3.2).  A failed Armijo test gives
    rise + slope t > (1 - ARMIJO_C) slope t > 0, so the quadratic is
    convex; a denominator past the float range gives the lower clip."""
    t_min = slope * t * t / (2.0 * (rise + slope * t))
    return min(max(t_min, BACKTRACK_MIN * t), BACKTRACK * t)


def _line_search(grid: Grid, x: np.ndarray, fh: np.ndarray, p: float,
                 eps: float, J: float, d: np.ndarray, slope: float,
                 t: float):
    """The step of `_descend` from x along -d, where J is the objective at
    x and slope = g.d > 0: (t, x - t d, objective, (c, w), gradient) at the
    first of 80 trials that is accepted, or None when none is (the
    numerical floor for this eps).  t is the first trial step.

    A trial point costs one `_energy` call; the gradient is formed from its
    (c, w) only at the accepted trial and at trials below the resolution
    floor, and the accepted trial's (c, w) is handed back for the next
    re-lag.

    A trial step x - t d is accepted by the Armijo test J(x - t d) <= J(x) -
    c t g.d while that decrease is resolvable (above 1e-15 max(1, |J|));
    below it, by nonincrease within that floor together with the derivative
    form of the Armijo condition, phi'(t) <= (2c - 1) phi'(0) for phi(t) =
    J(x - t d), the approximate Wolfe test of Hager & Zhang, which costs
    only the dot product of the trial gradient the step needs anyway and
    is exact for a quadratic.  The objective handed back from it is the
    lower of J(x) and the trial's, so the descent's nonincrease invariant
    holds to within the 1e-14 slack it is stated with.

    A trial that fails the Armijo test is followed by the minimizer of the
    quadratic through phi(0), phi'(0) and phi(t), clipped to [0.1 t, 0.5 t]
    (`_backtrack`).  Two cases keep plain halving: a trial objective that
    is not finite (the energy overflows at large p), where the quadratic has
    no value to go on, and the floor regime, where phi(t) - phi(0) is
    rounding and the quadratic would be fitted to noise."""
    floor = 1e-15 * max(1.0, abs(J))  # resolvable objective decrease
    for _ in range(80):
        trial = x - t * d
        Jt, c, w = _energy(grid, trial, fh, p, eps)
        decrease = ARMIJO_C * t * slope
        if decrease > floor:
            if Jt <= J - decrease:
                return t, trial, Jt, (c, w), _nodal_gradient(grid, c, w, fh)
            t = _backtrack(t, slope, Jt - J) if math.isfinite(Jt) else \
                BACKTRACK * t
        else:
            g = _nodal_gradient(grid, c, w, fh)
            if (Jt <= J + floor and float(np.dot(g, d))
                    >= -(1.0 - 2.0 * ARMIJO_C) * slope):
                return t, trial, min(Jt, J), (c, w), g
            t *= BACKTRACK
    return None


def _relag(seen: list, left: float, cost: float, stand_in: bool) -> bool:
    """Whether `_descend` releases its factor after a step, to build the
    next at the new iterate: when keeping it would take more iterations
    than a new one costs.  seen lists the gradient sup-norm since the
    factor was taken up, left is the e-folds of it the descent still needs
    (`_left`), and cost is a new factor's counted cost in iterations
    (`Factors.relag_cost`).  The rule is the same for a factor built in the
    descent, one carried from the last outer step and the p=2 stencil
    standing in for one.

    Keeping the factor takes left / rate iterations, at the contraction
    rate (e-folds per iteration) over the later half of the iterations
    since it was taken up: the first steps on a factor are Newton steps,
    which cut the residual far more than it does later, and BB steps make
    single steps noisy.  A new factor takes cost, and its own iterations
    are taken as none: it is the Hessian at the iterate, whose Newton steps
    contract the residual quadratically.  Watching the contraction is how a
    simplified Newton method decides when to refresh its Jacobian
    (Deuflhard, Newton Methods for Nonlinear Problems, Springer 2004;
    Kelley 1995, ch. 5).  A factor under which the residual has not fallen
    over that half is released, except the stand-in: at a start from zero
    the gradient first grows with the iterate, and a Hessian factored at so
    small an iterate takes Newton steps that no line search recovers
    from."""
    half = (len(seen) - 1) // 2
    rate = math.log(seen[half] / seen[-1]) / (len(seen) - 1 - half)
    return left > cost * rate if rate > 0 else left > 0 and not stand_in


def _efolds(a: float, b: float) -> float:
    """log(a / b) where a > b (inf where b is 0), else 0."""
    return 0.0 if not a > b else math.log(a / b) if b > 0 else math.inf


def _left(gsup: float, tol: float, p: float, tau: float | None,
          slope: float, hd: float, fh: np.ndarray, x: np.ndarray) -> float:
    """The stop test of `_descend` at x, as the e-folds of the residual by
    which it still fails, 0 where it passes: the gradient sup-norm gsup is
    to be at most tol and, with tau given (the last eps stage on the cell
    Hessian at p != 2), the Newton decrement small too (Boyd &
    Vandenberghe, Convex Optimization, 9.5): p^2 g.d <= (p-1) tau^2 h^d
    |fh.x|, where slope = g.d for the direction d of the descent's next
    step.  g.d is quadratic in the residual, so its e-folds count half.

    The factor is the Hessian over h^d, so g.d / h^d is about |x - x*|^2 in
    the Hessian norm, and at the minimizer that norm of x* itself is (p-1)
    fh.x* (the objective's Euler-Lagrange equation, at eps = 0).  The test
    thus asks a relative error in that norm of at most tau / p, and N =
    c^(-p) multiplies a relative error in the norm c by p, so N is off by at
    most about tau, the relative slack `check_monotonicity` grants (tau =
    CLAIM_SLACK times the inner tolerance for sup|f| = 1).  Unlike
    the sup-norm, the test does not depend on the scale of the grid or of
    f.  It only delays the sup-norm exit, so it never makes a solve fail.
    A lagged or carried factor is read as the Hessian; the p=2 stencil
    standing in for one is not, and is passed tau None."""
    left = _efolds(gsup, tol)
    if tau is not None:
        left = max(left, 0.5 * _efolds(p * p * slope, (p - 1) * tau * tau
                                       * hd * abs(float(np.dot(fh, x)))))
    return left


def _descend(grid: Grid, x: np.ndarray, fh: np.ndarray, p: float,
             eps: float, tol: float, budget: int,
             tau: float | None = None, carry: list | None = None):
    """Monotone preconditioned descent with BB step scaling from the
    interior vector x; fh is f h^d on the interior nodes.  Returns
    (x, iterations, residual) where it stopped, the residual being the
    gradient sup-norm there; it never raises.  Every 1000th iteration logs
    its objective and gradient sup-norm at DEBUG on the `pground.inner`
    logger.

    Each iteration forms the direction d, asks `_left` whether to stop,
    steps by `_line_search` from the BB1 step in the metric of the factor,
    and asks `_relag` whether the next iteration needs a new factor: at
    p != 2, once the factor has run its counted cost in iterations, or one
    iteration if it was carried (at p = 2 the Laplacian is exact and
    stays).  With tau given (the last eps stage) at p != 2 the stop test
    also asks the Newton decrement to be small, which costs the direction's
    solve at the exit and, if one fell due there, a re-lag; every other
    descent stops at residual <= tol before it forms a direction, so p = 2
    keeps the sup-norm exit alone, without that last solve.  The loop also
    ends when the line search finds no acceptable step, at residual = inf,
    once `budget` iterations are spent, and when no iteration of the last
    300 made measurable progress (the gradient sup-norm fell below 0.99 of
    its best or the objective by 1e-12 relative).  All exits but the
    tolerance are floors.

    The direction is the cell Hessian (`Factors.preconditioner`; the p=2
    stencil when p == 2) applied to the gradient.  It is factored at the
    current iterate's cell gradients c and weights w on the first iteration
    and after each re-lag, and so is the p=2 stencil standing in for
    weights without a positive finite max (the start from zero).  After
    each re-lag, and on a carried factor, the first trial step is 1/h^d,
    Newton's step with the Hessian and the exact step at p=2.

    A factor whose direction d gives no descent (g.d not positive and
    finite, which rounding in single precision can bring about where the
    weight floor lets the condition grow) is released at once.  A factor
    lagged from an earlier iterate, or carried, is re-lagged at the current
    one; a factor built at the current iterate gets the p=2 stencil standing
    in for it, until the next re-lag.  Without this the line search would
    fail on such a d and end the eps stage at its floor.

    carry, a list that is empty or holds one factor, hands the cell Hessian
    from one outer step to the next; `solve_step_with_stats` passes it to
    the last eps stage.  A descent the decrement test applies to takes the
    factor out, if there is one, and starts on it in place of a fresh one,
    until `_relag` releases it.  The descent puts the factor it ends on into
    carry (not the p=2 stand-in, and none when `_relag` released it at the
    last step)."""
    hd = grid.h ** grid.dim
    J, c, w = _energy(grid, x, fh, p, eps)
    g = _nodal_gradient(grid, c, w, fh)
    gsup = float(np.abs(g).max())
    factors = Factors.of(grid)
    newton = tau is not None and p != 2
    # a Hessian factor handed on by the last outer step; the list lets go
    # of it, so that the re-lag that replaces it can release it first
    precond = carry.pop() if newton and carry else None
    carried, stand_in, no_descent = precond is not None, False, False
    it = last_gain = lagged_at = 0  # lagged_at: the factor's first iteration
    # the e-folds of the residual that the next outer step, which starts on
    # the factor this descent ends on, needs: taken as this descent's
    ahead = _efolds(gsup, tol) if newton and carry is not None else 0.0
    best_gsup, mark_J = gsup, J
    while ((newton or tol < gsup) and gsup < math.inf and it < budget
           and it - last_gain <= 300):
        if precond is None or it == 0:  # a new factor
            if precond is None:
                # (re-)lag at the current (c, w), or take the p=2 stencil:
                # exact at p=2, a stand-in where the weights give no factor
                precond = (None if p == 2 or no_descent
                           else factors.preconditioner(c, w, p, eps))
                stand_in = precond is None
                if stand_in:
                    precond = factors.laplacian
                carried = no_descent = False
            # a new metric resets BB history, and 1/h^d is the exact first
            # step for p=2 and Newton's with the cell Hessian
            prev = None  # (g, d) of the last accepted step, whose step is t
            t = 1.0 / hd
            lagged_at, seen = it, [gsup]
        d = precond(g)
        slope = float(np.dot(g, d))  # directional derivative along -d
        if not (slope > 0 or stand_in or gsup == 0):
            # no descent direction: a lagged factor is released and re-lagged
            # here, and one built here gets the p=2 stencil standing in
            no_descent = lagged_at == it and not carried
            precond = None
            continue
        # the sup-norm first, which spares the decrement's dot product
        if gsup <= tol and _left(gsup, tol, p, None if stand_in else tau,
                                 slope, hd, fh, x) <= 0:
            break
        if prev is not None:
            g_old, d_old = prev
            s_y = t * float(np.dot(d_old, g_old - g))
            # BB1 in the preconditioned metric: s.P^{-1}s / s.y
            t = t * t * float(np.dot(g_old, d_old)) / s_y if s_y > 0 else 2 * t
        step = _line_search(grid, x, fh, p, eps, J, d, slope, t)
        if step is None:
            break  # at the numerical floor for this eps
        prev = (g, d)
        t, x, J, (c, w), g = step
        gsup = float(np.abs(g).max())
        it += 1
        seen.append(gsup)
        # the last direction's slope stands in for the next one's
        if (p != 2 and gsup > 0 and it - lagged_at >= (
                1 if carried else factors.relag_cost) and _relag(
                    seen, ahead + _left(gsup, tol, p, None if stand_in else
                                        tau, slope, hd, fh, x),
                    factors.relag_cost, stand_in)):
            precond = None  # released now, re-lagged at the loop's top
        if gsup < 0.99 * best_gsup or J < mark_J - 1e-12 * max(1.0, abs(J)):
            last_gain, mark_J = it, J
        best_gsup = min(best_gsup, gsup)
        if it % 1000 == 0:
            logger.debug("    inner iter %d: J=%.12e grad_sup=%.3e", it, J,
                         gsup)
    if newton and carry is not None and precond is not None and not stand_in:
        carry.append(precond)
    return x, it, gsup
