"""Inner variational solve: minimize the strictly convex objective
(1/p) sum over cells of (|grad v|^2 + eps^2)^(p/2) h^d - sum of f v h^d over
the interior node values v by gradient descent (`_descend`), preconditioned by
the exact Hessian of the cell energy taken at an earlier iterate (Nocedal &
Wright, Numerical Optimization, ch. 3 and 6), a chord method (Kelley, Iterative
Methods for Linear and Nonlinear Equations, SIAM 1995, ch. 5).
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
# per entry, an iteration's work over a band factor's multiply-add, and a
# tree factor's work over an iteration's (`Factors.relag_cost`)
FACTOR_RATE = 4.5
# least weight over max(w) in a cell-Hessian factor: at p > 2 a flat cell
# has w = 0, and only the floor keeps H positive definite; this low, it
# keeps the factor near the Hessian where most weights are tiny (large p)
W_FLOOR = 1e-10

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
    """Minimizer x of the inner objective for the right-hand side f, with
    the inner iterations, as (x, iterations); f, the start and x are
    interior node vectors, and tol_grad is the gradient tolerance
    (`_resolved_tol`).  A solve from zero runs every eps stage of
    `_eps_schedule` (to 100 tol, the last to tol), since a start that far
    needs the continuation; a solve given a start runs the last only, as the
    minimizer does not depend on the start.  The last stage also holds the
    Newton decrement to tau = CLAIM_SLACK _resolved_tol(1.0, tol_grad), the
    claims' slack (`_left`), and takes carry (`_descend`).  NonConvergence,
    with the last iterate, is raised when the last stage ends above tol.
    BLAS runs on one thread (`_one_blas_thread`)."""
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
    """Hold each bundled OpenBLAS to one thread for the body and restore its
    count after: the fronts' batched matmul and NumPy's dot products sum in
    another order on several, and BAND_MAX and FACTOR_RATE were set on one.
    The count is process-wide, so concurrent solves would share it."""
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
    bundle and have loaded: LAPACK's, and numpy.dot's and numpy.matmul's
    (symbols with the suffix 64_).  One absent, as with another BLAS build,
    is left out, and the pin is then a no-op.  Looked up once."""
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
    """Solve callable for the SPD matrix A, the inner solve's one
    factorization site: a `Banded` by LAPACK's banded Cholesky (dpbtrf,
    solves by dpbtrs), a `Fronts` by its tree's multifrontal factor in its
    dtype (`FrontTree.factor`).  LinAlgError where the factor fails; the
    solve returns float64."""
    if isinstance(A, Banded):
        chol, info = lapack.dpbtrf(A.ab, overwrite_ab=True)
        if info != 0:
            raise LinAlgError(f"banded Cholesky failed (dpbtrf info={info})")

        def solve(rhs):
            return lapack.dpbtrs(chol, rhs)[0]
        return solve
    return A.tree.factor(A)


class Factors:
    """The factorizations on one grid, built from its cell gradient G (dim rows
    per cell) and interior, its interior nodes over their bounding box, and
    kept in the grid's `solver_state` (`Factors.of`).

    `preconditioner` factors the cell energy's Hessian over h^d, G^T H G with
    H = w_f I + (p-2) w u u^T per cell, u = c / sqrt(a) and w_f = w floored at
    W_FLOOR max(w): positive definite for every p > 1, and 7-point, as H's
    cross term couples (i+1, j) and (i, j+1).  The bandwidth of that pattern
    fixes the back end: up to BAND_MAX, LAPACK band storage in double
    (`_band`); beyond, the multifrontal tree (`_fronts`) in single precision,
    since a lagged model gains nothing from a double factor's rounding and the
    tree's memory-bound products read half the bytes, while the residual and
    every test stay in double (Carson & Higham, SIAM J. Sci. Comput. 2018).
    Both maps sum one list of terms (`_terms`) in its order, so both back ends
    hold the same matrix to the bit.
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
        # a wide-band box grid's interior nodes per axis
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
        weights w = a^(p/2-1) of one `_energy` call (a = |c|^2 + eps^2),
        returning double.  None if max(w) is not positive and finite (the
        start from zero at p != 2), or if a wide-band factor meets a
        singular separator block in double too; the caller then stands the
        Laplacian in."""
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
            # the same entries as rounded to float32, so that the direction
            # depends on w's scale no more than there, factored in double
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
        """A new cell-Hessian factor's cost in inner iterations, counted
        from the grid's sizes and never timed, so that a solve takes one
        path on every machine: a band factor's n b^2 multiply-adds against
        an iteration's n b band entries and cells, or a tree factor's n_f^2
        entries a box against an iteration's two passes over K (n_f k a box)
        and the cells, times FACTOR_RATE.  The floor, two iterations, is a
        factor's fixed calls on the smallest grids.  The counts run above
        the factor's own time, so that they also price the restart at
        Newton's step, which the line search cuts back more often than a BB
        step."""
        if self.banded:
            n, b = self._G.shape[1], self._b
            return max(2.0, n * b * b / (FACTOR_RATE * (n * b + self._cells)))
        fronts = sum(len(d.nodes) * d.nf * d.nf for d in self._fronts.depths)
        kept = sum(len(d.nodes) * d.nf * d.k for d in self._fronts.depths)
        return max(2.0, FACTOR_RATE * fronts / (2 * kept + self._cells))

    @functools.cached_property
    def laplacian(self):
        """Solve callable for G^T G, the 3/5-point Dirichlet Laplacian, the
        exact preconditioner at p=2 and the stand-in of a cold start: by the
        band map on a banded grid, cheaper there than sine transforms; by
        sine transforms on a wide-band box grid (`_dst_solver`); else on the
        tree in double, padding and off-mask nodes as identity rows.
        `preconditioner` drops it when it builds a lagged factor, so that
        the two are never held at once."""
        if self._box is not None:
            return self._dst_solver()
        H = np.zeros((len(self._components[0]), self._cells))
        H[::2] = 1.0
        if self.banded:
            return self._band_factor(H.ravel())
        return factorized(self._fronts.matrix(H.ravel()))

    def _dst_solver(self):
        """Solve callable for G^T G on a box of m_1 x ... interior nodes,
        the 5-point Dirichlet Laplacian, by the fast Poisson solver (Buzbee,
        Golub & Nielson, SIAM J. Numer. Anal. 1970): x = S(inv S(b)) for the
        type-I sine transform S along each axis, its own inverse up to
        2/(m+1) per axis, and inv = prod(2/(m+1)) / lambda for G^T G's
        eigenvalues
        lambda_k = (4/h^2) sum over axes of sin^2(pi k / (2 (m+1))), with
        1/h read from G."""
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
        """(node, entry, component), the table `_terms` is built from: row
        e * dim + k holds, per cell, the e-th stored entry of its row of G
        along axis k (entry its value, node its column) and component k, or
        a zero at node 0 where the row stores fewer (nodes off the
        interior)."""
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
        storage maps sum, in its order.  Each adds value = G[r, i] G[s, j],
        two stored entries of one cell's rows r and s, times that cell's
        H[column] to the entry [i, j], i <= j (for [j, i] as well where
        i < j, and twice where i = j).  They run over the ordered pairs of
        `_cell_table` rows, the first slowest, then over the cells."""
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
        """(to_band, nnz): the sparse matrix that takes the per-cell entries
        H to G^T H G's upper band storage, the flat (b + 1) * n array in
        column-major order, with each term of `_terms` at [i, j] in row
        b + i - j, column j; and the count of G^T H G's stored entries in
        both triangles."""
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
        """The multifrontal tree of a wide-band grid's interior nodes with
        the map of `_terms` to its fronts, built on the first factor."""
        return FrontTree(self._interior, self._terms(), self._width)


def _dst(a: np.ndarray, axis: int) -> np.ndarray:
    """Type-I discrete sine transform of a along axis, y_k = sum over j of
    a_j sin(pi j k / (m+1)) for j, k = 1..m, by the real FFT of the odd
    extension (0, a, 0, -reversed a), whose k-th coefficient is -2i y_k;
    numpy.fft keeps scipy.fft off the import path."""
    a = np.moveaxis(a, axis, -1)
    m = a.shape[-1]
    z = np.zeros(a.shape[:-1] + (2 * m + 2,))
    z[..., 1:m + 1] = a
    z[..., m + 2:] = -a[..., ::-1]
    return np.moveaxis(np.fft.rfft(z)[..., 1:m + 1].imag * -0.5, -1, axis)


def _backtrack(t: float, slope: float, rise: float) -> float:
    """The next trial step after x - t d failed the Armijo test
    (slope = g.d > 0, rise = J(x - t d) - J(x) finite): the minimizer
    slope t^2 / (2 (rise + slope t)) of the quadratic through phi(0) = J(x),
    phi'(0) = -slope and phi(t) = J(x - t d), clipped to
    [BACKTRACK_MIN t, BACKTRACK t] (Dennis & Schnabel, Numerical Methods for
    Unconstrained Optimization, 6.3.2).  The failed test makes the quadratic
    convex; an overflowing denominator gives the lower clip."""
    t_min = slope * t * t / (2.0 * (rise + slope * t))
    return min(max(t_min, BACKTRACK_MIN * t), BACKTRACK * t)


def _line_search(grid: Grid, x: np.ndarray, fh: np.ndarray, p: float,
                 eps: float, J: float, d: np.ndarray, slope: float,
                 t: float):
    """The step of `_descend` from x along -d (J the objective at x,
    slope = g.d > 0, t the first trial step): (t, x - t d, objective,
    (c, w), gradient) at the first of 80 trials accepted, or None (the floor
    of the eps stage).  While the Armijo decrease c t g.d is resolvable
    (above 1e-15 max(1, |J|)) a trial passes the Armijo test or is followed
    by `_backtrack`, halving where the objective overflows.  Below it a
    trial passes by nonincrease within that floor and
    phi'(t) <= (2c - 1) phi'(0) for phi(t) = J(x - t d), the approximate
    Wolfe test of Hager & Zhang (SIAM J. Optim. 2005), exact for a
    quadratic; there a failed trial is halved, as phi(t) - phi(0) is
    rounding."""
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
    """Whether `_descend` releases its factor after a step: when keeping it
    would take more iterations than a new one costs.  seen lists the
    gradient sup-norm since the factor was taken up, left is the e-folds of
    it still needed, and cost a new factor's (`Factors.relag_cost`).
    Keeping takes left / rate iterations, rate the contraction (e-folds per
    iteration) over the later half of seen, past the first Newton steps and
    over single BB steps' noise; a new factor's own iterations count as
    none.  This is how a simplified Newton method decides when to refresh
    its Jacobian (Deuflhard, Newton Methods for Nonlinear Problems, Springer
    2004).  A factor under which the residual has not fallen is released,
    but not the stand-in: from zero the gradient first grows, and a Hessian
    at so small an iterate takes Newton steps no line search recovers from."""
    half = (len(seen) - 1) // 2
    rate = math.log(seen[half] / seen[-1]) / (len(seen) - 1 - half)
    return left > cost * rate if rate > 0 else left > 0 and not stand_in


def _efolds(a: float, b: float) -> float:
    """log(a / b) where a > b (inf where b is 0), else 0."""
    return 0.0 if not a > b else math.log(a / b) if b > 0 else math.inf


def _left(gsup: float, tol: float, p: float, tau: float | None,
          slope: float, hd: float, fh: np.ndarray, x: np.ndarray) -> float:
    """The e-folds of the residual by which the stop test of `_descend`
    still fails at x (0 where it passes): gsup at most tol and, with tau
    given, the Newton decrement test p^2 g.d <= (p-1) tau^2 h^d |fh.x| (Boyd
    & Vandenberghe, Convex Optimization, 9.5), whose e-folds count half, as
    g.d is quadratic in the residual.  With the factor the Hessian over h^d,
    g.d / h^d is about |x - x*|^2 in the Hessian norm, and that norm of x*
    is (p-1) fh.x* (the Euler-Lagrange equation at eps = 0), so the test
    asks a relative error of tau / p in that norm, and N = c^(-p) is off by
    about tau, the slack `check_monotonicity` grants.  It is scale-free and
    only delays the sup-norm exit, so no solve fails by it."""
    left = _efolds(gsup, tol)
    if tau is not None:
        left = max(left, 0.5 * _efolds(p * p * slope, (p - 1) * tau * tau
                                       * hd * abs(float(np.dot(fh, x)))))
    return left


def _descend(grid: Grid, x: np.ndarray, fh: np.ndarray, p: float,
             eps: float, tol: float, budget: int,
             tau: float | None = None, carry: list | None = None):
    """Monotone preconditioned descent from the interior vector x
    (fh = f h^d): (x, iterations, residual) where it stops, the residual its
    gradient sup-norm; it never raises, and logs every 1000th iteration at
    DEBUG.  Each iteration forms d, the factor applied to the gradient, asks
    `_left` whether to stop, steps by `_line_search` from the BB1 step in
    the factor's metric, or from Newton's step 1/h^d on a new factor, and
    asks `_relag` whether to release the factor, at p != 2 once one built
    here has run its cost in iterations or a carried one one iteration.  A
    new factor is the Hessian at the current (c, w), or the p=2 stencil,
    exact at p = 2 and the stand-in where the weights give none.  Short of
    the stop test, the loop ends at a floor: no acceptable step, an infinite
    residual, the budget spent, or 300 iterations without the sup-norm below
    0.99 of its best or the objective down by 1e-12 relative.  A factor
    whose d gives no descent (float32 rounding where the weight floor lets
    the condition grow) is released at once, and one built here gets the
    stencil.  carry, empty or holding one factor, hands the Hessian from one
    outer step's last stage to the next's."""
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
                precond = (None if p == 2 or no_descent
                           else factors.preconditioner(c, w, p, eps))
                stand_in = precond is None
                if stand_in:
                    precond = factors.laplacian
                carried = no_descent = False
            # a new metric resets the BB history
            prev = None  # (g, d) of the last accepted step, whose step is t
            t = 1.0 / hd
            lagged_at, seen = it, [gsup]
        d = precond(g)
        slope = float(np.dot(g, d))  # directional derivative along -d
        if not (slope > 0 or stand_in or gsup == 0):
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
