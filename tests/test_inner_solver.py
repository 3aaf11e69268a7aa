import functools
import gc
import logging
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import sparse
from scipy.linalg import LinAlgError
from scipy.sparse.linalg import splu, spsolve

from pground import inner, multifrontal
from pground.calculus import GridFunction, _energy, _nodal_gradient
from pground.geometry import DomainError, Interval, MaskDomain, Rectangle, \
    _count_components, _gradient_operators, build_grid, shared_grid
from pground.infinity import sweep
from pground.inner import (NonConvergence, _eps_schedule, _resolved_tol,
                           _signed_power, solve_step_with_stats)
from pground.iteration import (Custom, PositiveConstant, inverse_iterate,
                               verify)
from pground.oracles import dirichlet_laplacian_matrix

from conftest import loop_gradient_field, loop_objective


@pytest.fixture
def small_interval():
    return build_grid(Interval(0.0, 1.0), 15)


def cell_grad_sq(grid, v):
    """Squared cell gradient norms of the node array v on the domain's
    cells, by the loop reference, in G's cell order."""
    cells = loop_gradient_field(grid, v).reshape(grid.cell_mask.shape + (-1,))
    return (cells * cells).sum(-1)[grid.cell_mask]


def solve_stats(f, p, tol_grad=None, initial=None):
    """`solve_step_with_stats` on the interior values of f and of the start
    (None for zero), its minimizer as a GridFunction."""
    g = f.grid
    x, iters = solve_step_with_stats(
        g, f.values[g.interior], p, tol_grad,
        initial=None if initial is None else initial.values[g.interior])
    return GridFunction.from_interior(g, x), iters


def cell_hessian(grid, x, p, eps=0.0):
    """(c, w, M): the cell gradients and weights of `_energy` at the
    interior vector x, and the Hessian G^T H G of the cell energy without
    its factor h^d, H = w_f I + (p-2) (w/a) c c^T per cell with w_f the
    weight floored at W_FLOOR max(w), as a CSC matrix from sparse products
    of the per-axis operators."""
    _, c, w = _energy(grid, x, 0 * x, p, eps)
    cells = c.reshape(grid.dim, -1)
    a = (cells * cells).sum(axis=0) + eps * eps
    w_f = np.maximum(w, inner.W_FLOOR * w.max())
    rank_one = (p - 2) * np.divide(w, a, out=np.zeros_like(w), where=a > 0)
    ops = _gradient_operators(grid)
    M = sum(Gk.T @ sparse.diags(w_f * (k == m) + rank_one * cells[k] * cells[m])
            @ Gm for k, Gk in enumerate(ops) for m, Gm in enumerate(ops))
    return c, w, M.tocsc()


def front_matrix(tree, H, dtype=np.float64):
    """G^T H G from the per-cell entries H as the fronts of a multifrontal
    tree (`pground.multifrontal.FrontTree`) hold it, cast to dtype: each
    depth's sums at the places its terms reach, on and below the diagonal,
    mapped back to the grid's nodes and mirrored, as a CSC matrix with
    sorted indices.  The identity rows of padding and off-mask nodes are
    left out."""
    rows, cols, values = [], [], []
    entries = tree._map @ H
    for dep in tree.depths:
        hit = np.zeros(len(dep.nodes) * dep.nf * dep.k, dtype=bool)
        hit[dep.place] = True
        hit = hit.reshape(len(dep.nodes), dep.nf, dep.k)
        box, row, col = np.nonzero(hit)
        rows.append(dep.nodes[box, row])
        cols.append(dep.sep[box, col])
        A = multifrontal._fill(np.empty(hit.shape), dep, entries)
        values.append(A.astype(dtype)[box, row, col])
    rows, cols, values = map(np.concatenate, (rows, cols, values))
    assert rows.max() < tree.n and cols.max() < tree.n
    off = rows != cols
    M = sparse.csc_matrix((np.concatenate([values, values[off]]).astype(
        np.float64), (np.concatenate([rows, cols[off]]),
                      np.concatenate([cols, rows[off]]))),
        shape=(tree.n,) * 2)
    M.sort_indices()
    return M


def random_rhs(grid, seed, nonneg=False):
    rng = np.random.default_rng(seed)
    z = rng.uniform(0.0 if nonneg else -1.0, 1.0, grid.num_interior)
    return GridFunction.from_interior(grid, z)


class TestSignedPower:
    def test_values(self, small_interval):
        u = random_rhs(small_interval, 0)
        out = _signed_power(u.values, 3.0)
        expect = np.abs(u.values) * u.values
        assert np.allclose(out, expect)

    def test_zero_safe_below_two(self, small_interval):
        vals = np.zeros(small_interval.shape)
        vals[small_interval.interior] = 1.0
        vals[3] = 0.0
        # |0|^(p-2) diverges for p < 2; the map must still send 0 to 0
        out = _signed_power(vals, 1.5)
        assert out[3] == 0.0
        assert np.all(np.isfinite(out))

    def test_odd(self, small_interval):
        u = random_rhs(small_interval, 1)
        a = _signed_power(u.scaled(-1.0).values, 2.5)
        b = _signed_power(u.values, 2.5)
        assert np.array_equal(a, -b)


class TestSolverConfig:
    """A solve's settings: p and tol_grad, which `inverse_iterate` checks,
    and the default gradient tolerance and eps schedule."""

    SPEC = Interval(0.0, 1.0)

    def test_rejects_bad_p(self):
        for p in (1.0, 0.5, math.nan):
            with pytest.raises(ValueError, match="p must"):
                inverse_iterate(self.SPEC, 15, p, PositiveConstant())

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0, 0.0])
    def test_rejects_non_finite_tolerance(self, tol):
        # tol_grad=inf ended every descent before its first iteration
        with pytest.raises(ValueError, match="tol_grad"):
            inverse_iterate(self.SPEC, 15, 3.0, PositiveConstant(),
                            tol_grad=tol)

    def test_rejects_infinite_p(self):
        with pytest.raises(ValueError, match="p must"):
            inverse_iterate(self.SPEC, 15, math.inf, PositiveConstant())

    def test_default_tol_scales_with_rhs(self):
        assert _resolved_tol(0.5, None) == pytest.approx(1e-10)
        assert _resolved_tol(100.0, None) == pytest.approx(1e-8)
        assert _resolved_tol(100.0, 1e-6) == 1e-6

    def test_default_eps_schedule(self):
        h = 0.1
        assert _eps_schedule(3.0, h) == (0.0,)
        sched = _eps_schedule(1.5, h)
        assert sched[0] == pytest.approx(16 * h * h)
        assert sched[-1] == pytest.approx(h * h / 4096)
        ratios = [a / b for a, b in zip(sched, sched[1:])]
        assert ratios == pytest.approx([4.0] * len(ratios))


class TestLaplacianMatrix:
    def test_symmetric(self, square_grid):
        A = dirichlet_laplacian_matrix(square_grid)
        assert abs(A - A.T).max() == 0.0

    def test_interval_smallest_eigenvalue(self, interval_grid):
        # closed form for the 3-point stencil: (2 - 2 cos(pi h)) / h^2
        A = dirichlet_laplacian_matrix(interval_grid).toarray()
        h = interval_grid.h
        expect = (2.0 - 2.0 * math.cos(math.pi * h)) / h ** 2
        assert np.linalg.eigvalsh(A)[0] == pytest.approx(expect, rel=1e-12)

    def test_square_smallest_eigenvalue(self, square_grid):
        A = dirichlet_laplacian_matrix(square_grid).toarray()
        h = square_grid.h
        expect = 2.0 * (2.0 - 2.0 * math.cos(math.pi * h)) / h ** 2
        assert np.linalg.eigvalsh(A)[0] == pytest.approx(expect, rel=1e-12)


class TestQuadraticCase:
    @pytest.mark.parametrize("two_d", [False, True])
    def test_matches_direct_solve(self, two_d):
        spec = Rectangle(0.0, 1.0, 0.0, 1.0) if two_d else Interval(0.0, 1.0)
        g = build_grid(spec, 15)
        f = random_rhs(g, 42)
        v, _ = solve_stats(f, 2.0)
        A = dirichlet_laplacian_matrix(g)
        direct = spsolve(A.tocsr(), f.values[g.interior])
        assert np.allclose(v.values[g.interior], direct, rtol=1e-9, atol=1e-12)


class TestWeightedPreconditioner:
    @pytest.mark.parametrize("kind", ["interval", "square", "l_shape"])
    def test_matches_direct_solve(self, kind, l_mask):
        # on these banded grids the preconditioner is the cell Hessian
        spec, n = {"interval": (Interval(0.0, 1.0), 63),
                   "square": (Rectangle(0.0, 1.0, 0.0, 1.0), 16),
                   "l_shape": (l_mask, 16)}[kind]
        g = build_grid(spec, n)
        rng = np.random.default_rng(17)
        v = np.zeros(g.shape)
        v[g.interior] = rng.uniform(-1.0, 1.0, g.num_interior)
        v[: g.shape[0] // 2] = 0.0  # flat half: zero weights, floored
        p = 3.0
        w = cell_grad_sq(g, v) ** (p / 2 - 1)
        floor = inner.W_FLOOR * w.max()
        assert np.any(w < floor)
        A = cell_hessian(g, v[g.interior], p)[2]
        b = rng.uniform(-1.0, 1.0, g.num_interior)
        x = self._preconditioner(g, v, p)(b)
        direct = spsolve(A, b)
        assert np.linalg.norm(x - direct) <= 1e-10 * np.linalg.norm(direct)

    @staticmethod
    def _preconditioner(grid, v, p):
        # the solve's own path: `_energy` gradients and weights of the node
        # array v
        x = v[grid.interior]
        _, c, w = _energy(grid, x, 0 * x, p, 0.0)
        return inner.Factors.of(grid).preconditioner(c, w, p, 0.0)

    # the grids the multifrontal tree serves (`_wide_grid`): padded boxes,
    # masks, and the unpadded square n=128, whose 3x3 leaves are n=256's
    WIDE = ["square66", "square72", "rectangle72", "l_shape72", "hole70",
            "square128"]

    @staticmethod
    def _grid(kind, l_mask):
        if kind in TestWeightedPreconditioner.WIDE:
            return _wide_grid(kind)
        spec, n = {"interval": (Interval(0.0, 1.0), 63),
                   "square": (Rectangle(0.0, 1.0, 0.0, 1.0), 16),
                   "l_shape": (l_mask, 16),
                   "rectangle": (Rectangle(0.0, 2.0, 0.0, 1.0), 16)}[kind]
        return build_grid(spec, n)

    @staticmethod
    def _assembled(grid, H):
        # the multifrontal map's sums of the per-cell entries H, listed as
        # [H_xx, H_xy, H_yy] (H in 1D), before any cast to single precision,
        # in the grid's node order; any grid, banded or not, has the map
        return front_matrix(inner.Factors.of(grid)._fronts, H.ravel())

    @staticmethod
    def _cell_entries(grid, seed):
        # random symmetric positive definite cell matrices, half of them
        # 1e-10 times smaller, as the floor leaves them
        rng = np.random.default_rng(seed)
        ncell = int(np.count_nonzero(grid.cell_mask))
        H = rng.uniform(1.0, 2.0, (2 * grid.dim - 1, ncell))
        if grid.dim == 2:
            H[1] -= 1.5  # |H_xy| < 1 <= H_xx, H_yy
        H[:, : ncell // 2] *= 1e-10
        return H

    @pytest.mark.parametrize("kind", ["interval", "square", "l_shape",
                                      "rectangle"] + WIDE)
    def test_scatter_matches_products(self, kind, l_mask):
        # G^T H G = sum over axes k, m of G_k^T diag(H_km) G_m
        g = self._grid(kind, l_mask)
        H = self._cell_entries(g, 23)
        comp = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 2}
        ops = _gradient_operators(g)
        ref = sparse.csc_matrix(sum(Gk.T @ sparse.diags(H[comp[k, m]]) @ Gm
                                    for k, Gk in enumerate(ops)
                                    for m, Gm in enumerate(ops)))
        ref.sort_indices()
        A = self._assembled(g, H)
        assert A.has_sorted_indices
        assert abs(A - ref).max() <= 1e-15 * abs(ref).max()
        # the 3-point pattern in 1D, 7 points in 2D
        assert A.nnz == ref.count_nonzero()

    @pytest.mark.parametrize("kind", ["interval", "square", "l_shape",
                                      "rectangle"] + WIDE)
    def test_unit_weights_give_laplacian(self, kind, l_mask):
        # at H = I the map gives the 3/5-point Laplacian, slot for slot once
        # the cross term's zeros are dropped; the values agree to rounding
        # of 1/h^2 against (1/h)^2
        g = self._grid(kind, l_mask)
        H = np.zeros((2 * g.dim - 1, int(np.count_nonzero(g.cell_mask))))
        H[::2] = 1.0
        A = self._assembled(g, H)
        L = sparse.csc_matrix(dirichlet_laplacian_matrix(g))
        L.sort_indices()
        assert A.nnz == L.nnz if g.dim == 1 else A.nnz > L.nnz
        A.eliminate_zeros()
        assert np.array_equal(A.indices, L.indices)
        assert np.array_equal(A.indptr, L.indptr)
        assert np.abs(A.data - L.data).max() <= 1e-15 * np.abs(L.data).max()

    def test_assembly_peak_memory(self):
        # the multifrontal map's build, and each factor from it (assembly
        # included), hold at most a small multiple of what they keep: the
        # map, and the factor's [S; W] blocks (2.9x and 2.3x measured)
        g = build_grid(Rectangle(0.0, 1.0, 0.0, 1.0), 64)
        H = self._cell_entries(g, 37).ravel()
        interior = g.interior[1:-1, 1:-1]
        warm = inner.Factors(g.G, g.dim, interior)._fronts  # first call
        warm.factor(warm.matrix(H))
        factors = inner.Factors(g.G, g.dim, interior)
        for build in (lambda: factors._fronts,
                      lambda: factors._fronts.factor(
                          factors._fronts.matrix(H))):
            tracemalloc.start()
            try:
                kept_arrays = build()
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert kept > 0
            assert peak <= 3.5 * kept

    def test_pattern_built_once_per_grid(self):
        # the banded grid's map of the cell entries to band storage
        g = build_grid(Rectangle(0.0, 1.0, 0.0, 1.0), 16)
        rng = np.random.default_rng(29)
        b = rng.uniform(-1.0, 1.0, g.num_interior)
        entries = []
        for _ in range(2):
            v = np.zeros(g.shape)
            v[g.interior] = rng.uniform(-1.0, 1.0, g.num_interior)
            x = self._preconditioner(g, v, 3.0)(b)
            entries.append(inner.Factors.of(g)._band[0])
            direct = spsolve(cell_hessian(g, v[g.interior], 3.0)[2], b)
            assert np.linalg.norm(x - direct) <= \
                1e-10 * np.linalg.norm(direct)
        assert entries[0] is entries[1]
        # a wide-band grid's map of the cell entries to its fronts
        g = build_grid(Rectangle(0.0, 1.0, 0.0, 1.0), 72)
        factors = inner.Factors.of(g)
        assert not factors.banded
        maps = []
        for _ in range(2):
            v = np.zeros(g.shape)
            v[g.interior] = rng.uniform(-1.0, 1.0, g.num_interior)
            b = rng.uniform(-1.0, 1.0, g.num_interior)
            x = self._preconditioner(g, v, 3.0)(b)
            maps.append(factors._fronts)
            A = cell_hessian(g, v[g.interior], 3.0)[2]
            direct = spsolve(A, b)
            assert np.linalg.norm(x - direct) <= \
                1e-4 * np.linalg.norm(direct)
        assert maps[0] is maps[1]
        assert "_band" not in vars(factors)


class TestFactorized:
    """The grid's `Factors` on both back ends: LAPACK's banded Cholesky
    for bandwidth <= BAND_MAX, the multifrontal factor beyond."""

    @staticmethod
    def _operator(spec, n, seed=41, p=3.0):
        # (the grid's Factors, the cell gradients c and weights w of a
        # random interior vector, and the cell Hessian its preconditioner
        # factors at (c, w), as a CSC matrix from sparse products)
        g = build_grid(spec, n)
        x = np.random.default_rng(seed).uniform(-1.0, 1.0, g.num_interior)
        return (inner.Factors.of(g), *cell_hessian(g, x, p))

    @staticmethod
    def _bandwidth(A):
        coo = A.tocoo()
        return int(np.abs(coo.row - coo.col).max())

    @staticmethod
    def _splu_solve(A):
        return splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    panel_size=1, relax=1,
                    options={"SymmetricMode": True}).solve

    @pytest.mark.parametrize("kind, n, band", [
        ("interval", 63, 1), ("square", 16, 15), ("l_shape", 16, 15)])
    def test_banded_matches_superlu(self, kind, n, band, l_mask):
        spec = {"interval": Interval(0.0, 1.0),
                "square": Rectangle(0.0, 1.0, 0.0, 1.0),
                "l_shape": l_mask}[kind]
        # the cell Hessian's cross term adds no band: it couples the nodes
        # (i+1, j) and (i, j+1), one closer than (i, j) and (i+1, j)
        factors, c, w, A = self._operator(spec, n)
        assert self._bandwidth(A) == band <= inner.BAND_MAX
        assert factors.banded
        b = np.random.default_rng(43).uniform(-1.0, 1.0, A.shape[0])
        x = factors.preconditioner(c, w, 3.0, 0.0)(b)
        direct = self._splu_solve(A)(b)
        assert np.linalg.norm(x - direct) <= 1e-12 * np.linalg.norm(direct)

    def test_wide_band_factors_by_fronts(self):
        # `factorized` takes a wide-band grid's matrix as its fronts, and
        # in double solves it as SuperLU and spsolve do
        factors, c, w, A = self._operator(Rectangle(0.0, 1.0, 0.0, 1.0), 72)
        assert self._bandwidth(A) == 71 > inner.BAND_MAX
        assert not factors.banded
        H = factors._cell_entries(c, w, 3.0, 0.0)
        b = np.random.default_rng(47).uniform(-1.0, 1.0, A.shape[0])
        x = inner.factorized(factors._fronts.matrix(H))(b)
        assert x.dtype == np.float64
        assert np.linalg.norm(x - self._splu_solve(A)(b)) <= \
            1e-12 * np.linalg.norm(x)
        direct = spsolve(A, b)
        assert np.linalg.norm(x - direct) <= 1e-12 * np.linalg.norm(direct)

    @pytest.mark.parametrize("kind, n, band", [
        ("square", 72, 71), ("l_shape", 72, 71), ("rectangle", 72, 71)])
    def test_superlu_grid_solves(self, kind, n, band, l_mask, monkeypatch):
        # on a wide-band grid (bandwidth above BAND_MAX, once factored by
        # SuperLU) each lagged factor is the cell Hessian over max(w), its
        # weights floored at W_FLOOR, on the grid's one front tree, in
        # single precision, rounded once from double; its solve returns
        # double directions in the grid's node order with a normwise
        # backward error of a few float32 units u, so a forward error of at
        # most kappa(A) times that
        spec = {"square": Rectangle(0.0, 1.0, 0.0, 1.0), "l_shape": l_mask,
                "rectangle": Rectangle(0.0, 2.0, 0.0, 1.0)}[kind]
        factors, c, w, A = self._operator(spec, n, seed=59)
        assert self._bandwidth(A) == band > inner.BAND_MAX
        assert not factors.banded
        built = []
        factorized = inner.factorized

        def recorded(M):
            built.append(M)
            return factorized(M)

        monkeypatch.setattr(inner, "factorized", recorded)
        first = factors.preconditioner(c, w, 3.0, 0.0)
        second = factors.preconditioner(c, w, 3.0, 0.0)
        assert [M.dtype for M in built] == [np.float32] * 2
        assert built[0].tree is built[1].tree is factors._fronts
        u = np.finfo(np.float32).eps / 2
        ref = A / w.max()
        for M in built:
            stored = front_matrix(M.tree, M.H, M.dtype)
            assert stored.nnz == M.nnz == np.count_nonzero(ref.toarray())
            assert abs(stored - ref).max() <= 2 * u * abs(ref).max()
        b = np.random.default_rng(61).uniform(-1.0, 1.0, A.shape[0])
        direct = spsolve(A, b)
        for solve in (first, second):
            x = solve(b)
            assert x.dtype == np.float64
            assert np.linalg.norm(A @ x - b) <= \
                8 * u * sparse.linalg.norm(A, 1) * np.linalg.norm(x)
            assert np.linalg.norm(x - direct) <= 1e-4 * np.linalg.norm(direct)
        G = factors._G
        direct = spsolve((G.T @ G).tocsc(), b)
        assert np.linalg.norm(factors.laplacian(b) - direct) <= \
            1e-12 * np.linalg.norm(direct)

    def test_one_ordering_per_grid(self, monkeypatch):
        # over one whole solve on a fresh box grid the front tree is built
        # once, and each lagged factor is a single-precision matrix on it;
        # the Laplacian of the cold start is no factor (a sine-transform
        # solve); the factors are carried across the outer steps
        trees, factored = [], []
        tree_class, factor = inner.FrontTree, inner.FrontTree.factor

        def counting_tree(*args):
            trees.append(tree_class(*args))
            return trees[-1]

        def counting_factor(tree, M):
            factored.append((tree, M.dtype))
            return factor(tree, M)

        monkeypatch.setattr(inner, "FrontTree", counting_tree)
        monkeypatch.setattr(tree_class, "factor", counting_factor)
        spec = Rectangle(0.0, 1.0, 0.0, 1.0)
        grid = shared_grid(spec, 72)
        assert not inner.Factors.of(grid).banded  # bandwidth 71
        inverse_iterate(spec, 72, 3.0, PositiveConstant())
        assert len(trees) == 1
        assert factored == [(trees[0], np.float32)] * 3

    def test_warm_start_keeps_no_order_factor(self, l_mask, monkeypatch):
        # a Custom-init solve on a fresh wide-band grid factors no Laplacian,
        # and a Laplacian factored before the solve is dropped by its first
        # lagged factor and changes nothing: both grids give the same trace
        spec = l_mask
        ground = Custom(inverse_iterate(spec, 72, 3.0,
                                        PositiveConstant()).final)
        factorized, built, traces = inner.factorized, [], []
        for keep_laplacian in (False, True):
            shared_grid.cache_clear()  # a new grid for each solve
            if keep_laplacian:
                inner.Factors.of(shared_grid(spec, 72)).laplacian
            monkeypatch.setattr(inner, "factorized",
                                lambda A: built.append(A.dtype)
                                or factorized(A))
            traces.append(inverse_iterate(spec, 72, 3.0, ground))
            monkeypatch.setattr(inner, "factorized", factorized)
        assert set(built) == {np.dtype(np.float32)}  # no Laplacian factor
        fresh, kept = (inner.Factors.of(tr.final.grid) for tr in traces)
        assert "laplacian" not in vars(fresh)
        assert "laplacian" not in vars(kept)
        assert repr(traces[0].steps) == repr(traces[1].steps)
        assert repr(traces[0].lambda_R) == repr(traces[1].lambda_R)
        assert repr(traces[0].lambda_Q) == repr(traces[1].lambda_Q)

    def test_long_interval(self):
        g = build_grid(Interval(0.0, 1.0), 20000)
        factors = inner.Factors.of(g)
        assert factors.banded
        rng = np.random.default_rng(53)
        # increments of 0.01 h to h: every weight |c| lies in [0.01, 1]
        c, w, A = cell_hessian(
            g, g.h * np.cumsum(rng.uniform(0.01, 1.0, g.num_interior)), 3.0)
        b = rng.uniform(-1.0, 1.0, A.shape[0])
        x = factors.preconditioner(c, w, 3.0, 0.0)(b)
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_indefinite_raises(self):
        # symmetric tridiagonal with 1 on the diagonal and 2 beside it, in
        # upper band storage; eigenvalues 1 + 4 cos(k pi / 9) of both signs
        ab = np.array([[0.0] + [2.0] * 7, [1.0] * 8])
        with pytest.raises(LinAlgError):
            inner.factorized(inner.Banded(ab, 22))


@functools.cache
def _wide_grid(kind):
    """The grids of `TestMultifrontalFactor`: squares whose 65 and 71
    interior nodes a side pad to 79 and whose 95 and 127 need none, 2x1
    rectangles (95 x 47 nodes, no padding; 143 x 71, padded to 159 x 79),
    the L-shape, and a 5x5 mask without its centre cell."""
    hole = np.ones((5, 5), dtype=bool)
    hole[2, 2] = False
    spec, n = {
        "square66": (Rectangle(0.0, 1.0, 0.0, 1.0), 66),
        "square72": (Rectangle(0.0, 1.0, 0.0, 1.0), 72),
        "square96": (Rectangle(0.0, 1.0, 0.0, 1.0), 96),
        "square128": (Rectangle(0.0, 1.0, 0.0, 1.0), 128),
        "rectangle48": (Rectangle(0.0, 2.0, 0.0, 1.0), 48),
        "rectangle72": (Rectangle(0.0, 2.0, 0.0, 1.0), 72),
        "l_shape72": (MaskDomain(2, 2, np.array([[True, True],
                                                 [True, False]]), 0.5), 72),
        "hole70": (MaskDomain(5, 5, hole, 0.2), 70)}[kind]
    return build_grid(spec, n)


class TestMultifrontalFactor:
    """The multifrontal factor of a grid against spsolve, on random
    symmetric positive definite cell Hessians H = w I + (p-2) w u u^T (w > 0,
    u of unit length): the solve returns the interior nodes alone, never a
    padding or off-mask slot of the tree.  The factor is a block LDL^T one,
    so it solves -A as well, and a singular separator block raises
    LinAlgError from an explicit pivot test, not a RuntimeWarning from a
    division by zero."""

    KINDS = ["square66", "square72", "square96", "rectangle48",
             "rectangle72", "l_shape72", "hole70"]

    def test_padding_and_mask_slots(self):
        # separator slots without a node, padding's or off a mask's, on
        # every grid whose sides are no (s+1) 2^j - 1 or that is no box
        for kind in self.KINDS:
            tree = inner.Factors.of(_wide_grid(kind))._fronts
            empty = any(np.any(dep.sep == tree.n) for dep in tree.depths)
            assert empty == (kind not in ("square96", "rectangle48"))

    @settings(max_examples=25, deadline=None)
    @given(kind=st.sampled_from(KINDS), p=st.sampled_from([1.5, 3.0, 64.0]),
           seed=st.integers(0, 2 ** 16))
    def test_solve_matches_spsolve(self, kind, p, seed):
        self._solve_matches_spsolve(kind, p, seed)

    @pytest.mark.parametrize("p", [3.0, 64.0])
    def test_unpadded_solve_matches_spsolve(self, p):
        # the square n=128, no padding and n=256's 3x3 leaves, at fixed
        # draws, out of the draw above for its time
        self._solve_matches_spsolve("square128", p, 128)

    @staticmethod
    def _solve_matches_spsolve(kind, p, seed):
        g = _wide_grid(kind)
        factors = inner.Factors.of(g)
        tree = factors._fronts
        rng = np.random.default_rng(seed)
        ncell = g.G.shape[0] // 2
        c = rng.uniform(-1.0, 1.0, 2 * ncell)
        w = rng.uniform(0.5, 2.0, ncell) * 10.0 ** rng.uniform(-3, 3)
        H = factors._cell_entries(c, w, p, 0.0)
        comp = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 2}
        ops = _gradient_operators(g)
        A = sparse.csc_matrix(sum(
            Gk.T @ sparse.diags(H.reshape(3, -1)[comp[k, m]]) @ Gm
            for k, Gk in enumerate(ops) for m, Gm in enumerate(ops)))
        b = rng.uniform(-1.0, 1.0, g.num_interior)
        direct = spsolve(A, b)
        solve = inner.factorized(tree.matrix(H))
        x = solve(b)
        assert x.shape == (g.num_interior,) and x.dtype == np.float64
        assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)
        assert np.linalg.norm(x - direct) <= 1e-10 * np.linalg.norm(direct)
        # a factor's solve buffers carry nothing from one solve to the next
        other = rng.uniform(-1.0, 1.0, g.num_interior)
        solve(other)
        assert np.array_equal(solve(b), x)
        # single precision, after the division by max(w)
        solve = inner.factorized(tree.matrix(H / w.max(), np.float32))
        x = solve(b)
        assert x.shape == (g.num_interior,) and x.dtype == np.float64
        assert np.linalg.norm(A @ x / w.max() - b) <= \
            1e-4 * np.linalg.norm(b)
        solve(other)
        assert np.array_equal(solve(b), x)
        # the factor needs no positive pivot: -A is solved as well, and
        # only a singular block raises
        x = inner.factorized(tree.matrix(-H))(b)
        assert np.linalg.norm(A @ x + b) <= 1e-12 * np.linalg.norm(b)
        for dtype in (np.float64, np.float32):
            with pytest.raises(LinAlgError):
                inner.factorized(tree.matrix(0 * H, dtype))


    def test_live_solves_keep_their_arrays(self):
        # a factor writes into the arrays of a dropped solve of its tree,
        # never into those of one still held
        g = _wide_grid("square72")
        factors = inner.Factors.of(g)
        tree = factors._fronts
        rng = np.random.default_rng(41)
        ncell = g.G.shape[0] // 2
        M = [tree.matrix(factors._cell_entries(
            rng.uniform(-1.0, 1.0, 2 * ncell), rng.uniform(0.5, 2.0, ncell),
            3.0, 0.0), np.float32) for _ in range(3)]
        b = rng.uniform(-1.0, 1.0, g.num_interior)
        first = inner.factorized(M[0])
        x = first(b)
        second = inner.factorized(M[1])
        y = second(b)
        assert np.array_equal(first(b), x)
        del first
        third = inner.factorized(M[2])
        assert np.array_equal(second(b), y)
        for solve, m in ((second, M[1]), (third, M[2])):
            A = front_matrix(tree, m.H)
            assert np.linalg.norm(A @ solve(b) - b) <= \
                1e-4 * np.linalg.norm(b)


class TestSinglePrecisionFactor:
    """A wide-band grid factors the cell Hessian in single precision, after
    scaling it by max(w) and the right-hand side by its sup-norm, so that
    no range of weights leaves float32's range."""

    def test_extreme_weight_scales(self):
        # p=64 weights reach 1e115 here, far past float32's 3.4e38; scaled
        # by 1e30 and 1e-30 they give the same direction, scaled back
        g = build_grid(Rectangle(0.0, 1.0, 0.0, 1.0), 72)
        factors = inner.Factors.of(g)
        assert not factors.banded
        x = np.random.default_rng(89).uniform(-1.0, 1.0, g.num_interior)
        _, c, w = _energy(g, x, 0 * x, 64.0, 0.0)
        assert w.max() > 1e100
        b = np.random.default_rng(97).uniform(-1.0, 1.0, g.num_interior)
        d = factors.preconditioner(c, w, 64.0, 0.0)(b)
        assert np.all(np.isfinite(d)) and np.dot(b, d) > 0
        u = np.finfo(np.float32).eps / 2
        for scale in (1e30, 1e-30):
            ds = factors.preconditioner(scale * c, scale * w, 64.0, 0.0)(b)
            assert np.all(np.isfinite(ds))
            assert np.linalg.norm(scale * ds - d) <= u * np.linalg.norm(d)

    def test_singular_single_block_factored_in_double(self, monkeypatch):
        # the iterate above: float32 rounds its Hessian, floored at
        # W_FLOOR max(w), to one with a singular separator block, so the
        # preconditioner factors the same float32 entries in double, whose
        # solve gives a descent direction and meets that matrix, of
        # condition 4e14, within 1e-3 (spsolve's residual is 2e-5, this
        # factor's 2e-4)
        g = build_grid(Rectangle(0.0, 1.0, 0.0, 1.0), 72)
        factors = inner.Factors.of(g)
        tree = factors._fronts
        x = np.random.default_rng(89).uniform(-1.0, 1.0, g.num_interior)
        _, c, w = _energy(g, x, 0 * x, 64.0, 0.0)
        H = factors._cell_entries(c, w / w.max(), 64.0, 0.0)
        with pytest.raises(LinAlgError):
            tree.factor(tree.matrix(H, np.float32))
        dtypes = []
        real = inner.FrontTree.factor
        monkeypatch.setattr(inner.FrontTree, "factor", lambda self, M: (
            dtypes.append(M.dtype), real(self, M))[1])
        b = np.random.default_rng(97).uniform(-1.0, 1.0, g.num_interior)
        d = factors.preconditioner(c, w, 64.0, 0.0)(b)
        assert dtypes == [np.float32, np.float64]
        assert np.all(np.isfinite(d)) and np.dot(b, d) > 0
        A = front_matrix(tree, H.astype(np.float32).astype(np.float64),
                         np.float64)
        assert np.linalg.norm(A @ d * w.max() - b) <= \
            1e-3 * np.linalg.norm(b)

    def test_l_shape_large_p_passes_verify(self, l_mask):
        # a mask that is no box, at the widest weight range of the sweeps
        tr = inverse_iterate(l_mask, 72, 64.0, PositiveConstant())
        assert tr.converged
        report = verify(tr)
        assert report.all_passed, str(report)


class TestBoxLaplacian:
    """A wide-band grid whose interior nodes fill their box solves its
    Laplacian G^T G by sine transforms, and factors no Laplacian in any
    solve; the other wide-band grids factor it on their front tree, in
    double."""

    BOXES = {"square": Rectangle(0.0, 1.0, 0.0, 1.0),
             "rectangle": Rectangle(0.0, 2.0, 0.0, 1.0),
             "full_mask": MaskDomain(2, 2, np.ones((2, 2), dtype=bool), 0.5)}

    @pytest.mark.parametrize("kind", list(BOXES))
    def test_dst_matches_direct_solve(self, kind, monkeypatch):
        g = build_grid(self.BOXES[kind], 72)
        factors = inner.Factors.of(g)
        assert not factors.banded
        calls = []
        monkeypatch.setattr(inner, "factorized",
                            lambda *args, **kwargs: calls.append(args))
        solve = factors.laplacian
        assert calls == []
        b = np.random.default_rng(79).uniform(-1.0, 1.0, g.num_interior)
        direct = spsolve((g.G.T @ g.G).tocsc(), b)
        assert np.linalg.norm(solve(b) - direct) <= \
            1e-12 * np.linalg.norm(direct)

    def test_l_shape_factors_its_laplacian(self, l_mask, monkeypatch):
        # the Laplacian of a grid that is no box: the fronts of the unit
        # cell matrices, factored in double, the off-mask quadrant's nodes
        # identity rows of the tree
        g = build_grid(l_mask, 72)
        factors = inner.Factors.of(g)
        assert not factors.banded
        built, factorized = [], inner.factorized
        monkeypatch.setattr(inner, "factorized",
                            lambda A: built.append(A) or factorized(A))
        solve = factors.laplacian
        (A,) = built
        assert A.dtype == np.float64 and A.tree is factors._fronts
        L = (g.G.T @ g.G).tocsc()
        assert abs(front_matrix(A.tree, A.H) - L).max() <= \
            1e-15 * abs(L).max()
        b = np.random.default_rng(83).uniform(-1.0, 1.0, g.num_interior)
        direct = spsolve(L, b)
        assert np.linalg.norm(solve(b) - direct) <= \
            1e-12 * np.linalg.norm(direct)

    def test_no_laplacian_factor_in_solves(self, monkeypatch):
        # p=2, a cold start at p=3 and a Custom warm start on fresh grids:
        # no factor is the Laplacian; every factor is the single-precision
        # Hessian, of the 7-point pattern
        spec = self.BOXES["square"]
        ground = Custom(inverse_iterate(spec, 72, 3.0,
                                        PositiveConstant()).final)
        factorized = inner.factorized
        for p, init in ((2.0, PositiveConstant()), (3.0, PositiveConstant()),
                        (3.0, ground)):
            shared_grid.cache_clear()  # a new grid for each solve
            built = []

            def capture(A):
                built.append(A)
                return factorized(A)

            monkeypatch.setattr(inner, "factorized", capture)
            grid = inverse_iterate(spec, 72, p, init).final.grid
            monkeypatch.setattr(inner, "factorized", factorized)
            assert (len(built) > 0) == (p != 2)
            L = grid.G.T @ grid.G
            for A in built:
                M = front_matrix(A.tree, A.H, A.dtype)
                assert abs(M - L).max() > 0
                assert A.dtype == np.float32 and M.nnz > L.nnz


class TestDissectionOrder:
    """A wide-band grid factors its cell Hessian on one nested-dissection
    tree of its interior nodes (`pground.multifrontal.FrontTree`), built
    with its map."""

    GRIDS = {"square": (Rectangle(0.0, 1.0, 0.0, 1.0), 72),
             "rectangle": (Rectangle(0.0, 2.0, 0.0, 1.0), 72)}

    def _grid(self, kind, l_mask):
        spec, n = self.GRIDS.get(kind, (l_mask, 72))
        grid = build_grid(spec, n)
        assert not inner.Factors.of(grid).banded
        return grid

    @pytest.mark.parametrize("kind", ["square", "rectangle", "l_shape"])
    def test_permutation_of_interior(self, kind, l_mask):
        # the separators list every interior node once, and the other
        # separator slots (padding, off-mask nodes) hold none
        grid = self._grid(kind, l_mask)
        tree = inner.Factors.of(grid)._fronts
        order = np.concatenate([dep.sep.ravel() for dep in tree.depths])
        order = order[order < tree.n]
        assert np.array_equal(np.sort(order), np.arange(grid.num_interior))

    @pytest.mark.parametrize("kind", ["square", "rectangle", "l_shape"])
    def test_top_separator_splits_pattern(self, kind, l_mask):
        # the first cut is the middle line across the longest side of the
        # interior nodes' box, padded to (s+1) 2^j - 1 nodes; the first
        # child's subtree holds the nodes below it, the second's those
        # above it, and no entry of the 7-point pattern couples the two
        grid = self._grid(kind, l_mask)
        tree = inner.Factors.of(grid)._fronts
        coords = np.nonzero(grid.interior)
        padded = [(s + 1) * 2 ** j - 1 for s, j in (
            multifrontal._padded(int(i.max() - i.min()) + 1) for i in coords)]
        axis = padded.index(max(padded))
        at = coords[axis] - coords[axis].min() - (max(padded) - 1) // 2
        low, high, line = (np.nonzero(part)[0]
                           for part in (at < 0, at > 0, at == 0))
        assert low.size and high.size and line.size
        root = tree.depths[0].sep.ravel()
        assert np.array_equal(root[root < tree.n], line)
        for child, part in enumerate((low, high)):
            # the root's child in this slot and its descendants, down the
            # links from each depth's boxes to the next depth's
            mine, below = None, []
            for up, dep in zip(tree.depths, tree.depths[1:]):
                kids = np.arange(2 * len(up.sep)) if up.kids is None else \
                    up.kids
                mine = kids % 2 == child if mine is None else mine[kids // 2]
                below.append(dep.sep[mine].ravel())
            below = np.concatenate(below)
            assert np.array_equal(np.sort(below[below < tree.n]), part)
        x = np.random.default_rng(101).uniform(-1.0, 1.0, grid.num_interior)
        A = cell_hessian(grid, x, 3.0)[2]
        assert np.count_nonzero(A.toarray()) > 5 * grid.num_interior
        assert A[low][:, high].nnz == 0

    @pytest.mark.parametrize("kind", ["square", "rectangle", "l_shape"])
    def test_children_share_no_boundary_slot(self, kind, l_mask):
        # the two children of a box reach disjoint slots of its boundary,
        # so that each entry of a depth's update gets one child's block at
        # most (`FrontTree._factor`); they share separator slots
        tree = inner.Factors.of(self._grid(kind, l_mask))._fronts
        for dep in tree.depths[:-1]:
            up = dep.down.reshape(2, -1)[:, :-1]
            slots = [u[(u >= dep.k) & (u < dep.nf)] for u in up]
            assert not np.intersect1d(*slots).size
            assert np.intersect1d(*(u[u < dep.k] for u in up)).size

    @pytest.mark.parametrize("spec, n", [(Rectangle(0.0, 1.0, 0.0, 1.0), 128),
                                         (Rectangle(0.0, 2.0, 0.0, 1.0), 96)])
    def test_fill_below_minimum_degree(self, spec, n):
        # the values the factor keeps, K = [A11^-1; A21 A11^-1] per front,
        # against nnz(L + U) of SuperLU's factor of the single-precision
        # Hessian in its minimum-degree order (759,035 against 1,045,770 on
        # the square n=128; 751,547 against 1,130,148 on the 2x1 rectangle
        # n=96)
        grid = build_grid(spec, n)
        factors = inner.Factors.of(grid)
        x = np.random.default_rng(103).uniform(-1.0, 1.0, grid.num_interior)
        _, c, w = _energy(grid, x, 0 * x, 3.0, 0.0)
        tree = factors._fronts
        A = front_matrix(tree, factors._cell_entries(c, w / w.max(), 3.0,
                                                     0.0)).astype(np.float32)
        lu = splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  panel_size=1, relax=1, options={"SymmetricMode": True})
        kept = sum(len(dep.sep) * dep.nf * dep.k for dep in tree.depths)
        assert kept < lu.L.nnz + lu.U.nnz


class TestGridKernels:
    """The grid's G and G^T products and its banded grids' map to LAPACK
    band storage, against SciPy's products and the assembled operator."""

    @staticmethod
    def _grid(kind, l_mask):
        spec, n = {"interval": (Interval(0.0, 1.0), 38),
                   "square": (Rectangle(0.0, 1.0, 0.0, 1.0), 16),
                   "l_shape": (l_mask, 16),
                   "rectangle": (Rectangle(0.0, 2.0, 0.0, 1.0), 20),
                   "square64": (Rectangle(0.0, 1.0, 0.0, 1.0), 64)}[kind]
        return build_grid(spec, n)

    @pytest.mark.parametrize(
        "kind", ["interval", "square", "l_shape", "rectangle", "square64"])
    def test_products_equal_scipy(self, kind, l_mask):
        g = self._grid(kind, l_mask)
        rng = np.random.default_rng(67)
        x = rng.uniform(-1.0, 1.0, g.G.shape[1])
        y = rng.uniform(-1.0, 1.0, g.G.shape[0])
        assert np.array_equal(g.apply_G(x), g.G @ x)
        assert np.array_equal(g.apply_GT(y), g.G.T @ y)

    @pytest.mark.parametrize("kind", ["interval", "square", "l_shape"])
    def test_band_scatter_gives_upper_band(self, kind, l_mask, monkeypatch):
        # random symmetric positive definite cell matrices H, listed as
        # [H_xx, H_xy, H_yy] (H in 1D), against G^T H G from sparse products
        g = self._grid(kind, l_mask)
        factors = inner.Factors.of(g)
        b = factors._b
        assert factors.banded and b <= inner.BAND_MAX
        rng = np.random.default_rng(71)
        ncell = int(np.count_nonzero(g.cell_mask))
        H = rng.uniform(1.0, 2.0, (2 * g.dim - 1, ncell))
        if g.dim == 2:
            H[1] -= 1.5  # |H_xy| < 1 <= H_xx, H_yy
        ops = _gradient_operators(g)
        comp = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 2}
        A = sum(Gk.T @ sparse.diags(H[comp[k, m]]) @ Gm
                for k, Gk in enumerate(ops)
                for m, Gm in enumerate(ops)).toarray()
        ref = np.zeros((b + 1, g.num_interior))
        for i, j in zip(*np.nonzero(np.triu(A))):
            ref[b + i - j, j] = A[i, j]
        banded = []
        factorized = inner.factorized

        def capture(M, **kwargs):
            banded.append(M._replace(ab=M.ab.copy()))
            return factorized(M, **kwargs)

        monkeypatch.setattr(inner, "factorized", capture)
        solve = factors._band_factor(H.ravel())
        (M,) = banded
        assert np.abs(M.ab - ref).max() <= 1e-15 * np.abs(ref).max()
        # 3 points in 1D; 7 in 2D, where H_xy couples (i+1, j) and (i, j+1)
        assert M.nnz == np.count_nonzero(A)
        L = dirichlet_laplacian_matrix(g)
        assert M.nnz == L.nnz if g.dim == 1 else M.nnz > L.nnz
        rhs = rng.uniform(-1.0, 1.0, g.num_interior)
        direct = spsolve(sparse.csc_matrix(A), rhs)
        assert np.linalg.norm(solve(rhs) - direct) <= \
            1e-12 * np.linalg.norm(direct)


class TestCellHessian:
    """Both back ends factor the exact Hessian of the cell energy, G^T H G
    with H = w_f I + (p-2) (w/a) c c^T per cell and one weight floor, and a
    banded grid its p=2 Laplacian through the same band map at H = I."""

    @staticmethod
    def _captured(monkeypatch):
        # the Banded matrices handed to `factorized`, as they were given
        banded = []
        factorized = inner.factorized

        def capture(M, **kwargs):
            banded.append(M._replace(ab=M.ab.copy()))
            return factorized(M, **kwargs)

        monkeypatch.setattr(inner, "factorized", capture)
        return banded

    @staticmethod
    def _dense(M):
        # the symmetric matrix of a Banded
        b, n = M.ab.shape[0] - 1, M.ab.shape[1]
        A = np.zeros((n, n))
        for d in range(b + 1):
            j = np.arange(b - d, n)
            A[j - (b - d), j] = A[j, j - (b - d)] = M.ab[d, b - d:]
        return A

    @pytest.mark.parametrize("p", [1.5, 3.0, 16.0])
    @pytest.mark.parametrize("kind", ["interval", "square", "l_shape"])
    def test_factor_is_cell_hessian(self, kind, p, l_mask, monkeypatch):
        g = TestWeightedPreconditioner._grid(kind, l_mask)
        rng = np.random.default_rng(73)
        v = np.zeros(g.shape)
        v[g.interior] = rng.uniform(-1.0, 1.0, g.num_interior)
        v[: g.shape[0] // 2] = 0.0  # flat cells: a = eps^2
        x = v[g.interior]
        # p < 2 needs eps > 0, or the flat cells' weights are infinite;
        # above 2 the flat cells have w = 0 and only the floor keeps H > 0
        eps = g.h ** 2 if p < 2 else 0.0
        c, w, A = cell_hessian(g, x, p, eps)
        assert p < 2 or np.any(w == 0.0)
        banded = self._captured(monkeypatch)
        solve = inner.Factors.of(g).preconditioner(c, w, p, eps)
        (M,) = banded
        A = A.toarray()
        assert np.abs(self._dense(M) - A).max() <= 1e-13 * np.abs(A).max()
        b = rng.uniform(-1.0, 1.0, g.num_interior)
        y = solve(b)
        # normwise backward error of a stable factor; its forward error
        # grows with the floor's condition number
        norm = np.linalg.norm
        assert norm(A @ y - b) <= 1e-13 * (norm(A, 2) * norm(y) + norm(b))

    @pytest.mark.parametrize("n", [16, 72])
    def test_back_ends_factor_one_floored_hessian(self, n, monkeypatch):
        # p=16 with a block of flat cells, where w = 0 and only the floor
        # keeps H > 0: the band (square n=16) and the float32 fronts
        # (square n=72), multiplied back by max(w), are the same Hessian,
        # each entry to rounding in double and in float32 respectively
        g = build_grid(Rectangle(0.0, 1.0, 0.0, 1.0), n)
        factors = inner.Factors.of(g)
        assert factors.banded == (n == 16)
        v = np.zeros(g.shape)
        v[g.interior] = np.random.default_rng(107).uniform(
            -1.0, 1.0, g.num_interior)
        v[: g.shape[0] // 2] = 0.0
        c, w, A = cell_hessian(g, v[g.interior], 16.0)
        assert np.any(w == 0.0)
        captured = []
        factorized = inner.factorized

        def capture(M):
            captured.append(M._replace(ab=M.ab.copy()) if factors.banded
                            else front_matrix(M.tree, M.H, M.dtype)
                            * w.max())
            return factorized(M)

        monkeypatch.setattr(inner, "factorized", capture)
        factors.preconditioner(c, w, 16.0, 0.0)
        (M,) = captured
        if factors.banded:
            M, rel = sparse.csc_matrix(self._dense(M)), 1e-13
        else:
            rel = np.finfo(np.float32).eps
        assert (abs(M - A) - rel * abs(A)).max() <= 1e-15 * abs(A).max()

    @pytest.mark.parametrize("kind", ["interval", "square", "l_shape",
                                      "rectangle"])
    def test_back_ends_sum_one_matrix(self, kind, l_mask, monkeypatch):
        # one list of terms, summed in one order: the band's double
        # Hessian and the tree's (its map's sums, before any cast) are
        # equal to the bit, with one pattern
        spec, n = {"interval": (Interval(0.0, 1.0), 63),
                   "square": (Rectangle(0.0, 1.0, 0.0, 1.0), 16),
                   "l_shape": (l_mask, 16),
                   "rectangle": (Rectangle(0.0, 2.0, 0.0, 1.0), 12)}[kind]
        g = build_grid(spec, n)
        factors = inner.Factors.of(g)
        assert factors.banded
        rng = np.random.default_rng(109)
        c = rng.uniform(-1.0, 1.0, g.G.shape[0])
        w = rng.uniform(0.5, 2.0, factors._cells)
        banded = self._captured(monkeypatch)
        factors.preconditioner(c, w, 3.0, 0.0)
        (M,) = banded
        tree = factors._fronts
        A = front_matrix(tree, factors._cell_entries(c, w, 3.0, 0.0))
        assert np.array_equal(self._dense(M), A.toarray())
        assert M.nnz == tree.nnz == A.nnz

    @pytest.mark.parametrize("p", [1.5, 3.0, 16.0])
    @pytest.mark.parametrize("kind", ["square", "l_shape"])
    def test_back_ends_give_one_eigenvalue(self, kind, p, l_mask,
                                           monkeypatch):
        # the same solve on the band and, with BAND_MAX at 0, on the tree
        # in single precision; the grids the tree ran on leave the shared
        # ones with the test
        spec = l_mask if kind == "l_shape" else Rectangle(0.0, 1.0, 0.0, 1.0)
        band = inverse_iterate(spec, 16, p, PositiveConstant())
        assert inner.Factors.of(band.final.grid).banded
        shared_grid.cache_clear()
        monkeypatch.setattr(inner, "BAND_MAX", 0)
        try:
            tree = inverse_iterate(spec, 16, p, PositiveConstant())
            assert not inner.Factors.of(tree.final.grid).banded
        finally:
            shared_grid.cache_clear()
        assert tree.converged and band.converged
        assert abs(tree.lambda_R - band.lambda_R) <= 1e-12 * band.lambda_R

    @settings(max_examples=20, deadline=None)
    @given(width=st.integers(1, 3), height=st.integers(1, 3),
           bits=st.lists(st.booleans(), min_size=9, max_size=9),
           n=st.integers(3, 12), p=st.sampled_from([1.5, 3.0, 16.0]))
    def test_back_ends_give_one_eigenvalue_on_drawn_masks(
            self, width, height, bits, n, p):
        # the fixed cases above over drawn 4-connected masks of up to 3x3
        # cells, on grids with a band to leave (one interior node gives
        # bandwidth 0, which BAND_MAX = 0 keeps banded, and a grid with
        # none is refused); a solve may end at K_max unconverged (p=16
        # contracts slowly on long masks), and then both back ends end on
        # the same step
        cells = np.array(bits[:width * height]).reshape(width, height)
        assume(cells.any() and _count_components(cells) == 1)
        spec = MaskDomain(width, height, cells, 1.0)
        try:
            grid = build_grid(spec, n)
        except DomainError as exc:
            assert f"n={n} has no interior node" in str(exc)
            assume(False)
        assume(inner.Factors.of(grid)._b > 0)
        try:
            shared_grid.cache_clear()
            band = inverse_iterate(spec, n, p, PositiveConstant())
            assert inner.Factors.of(band.final.grid).banded
            shared_grid.cache_clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(inner, "BAND_MAX", 0)
                tree = inverse_iterate(spec, n, p, PositiveConstant())
            assert not inner.Factors.of(tree.final.grid).banded
        finally:
            shared_grid.cache_clear()
        assert abs(tree.lambda_R - band.lambda_R) <= 1e-10 * band.lambda_R

    def test_band_spans_cross_term(self, monkeypatch):
        # a 3x3 mask without two opposite corner cells, one node per cell
        # side: no row of G holds two interior nodes, and only the centre
        # cell's cross term couples its interior nodes (2, 1) and (1, 2)
        cells = np.ones((3, 3), dtype=bool)
        cells[0, 0] = cells[2, 2] = False
        g = build_grid(MaskDomain(3, 3, cells, 1.0), 3)
        assert g.num_interior == 2
        assert np.all(np.diff(g.G.indptr) <= 1)
        factors = inner.Factors.of(g)
        assert factors._b == 1
        c, w, A = cell_hessian(g, np.array([0.3, -0.7]), 3.0)
        banded = self._captured(monkeypatch)
        factors.preconditioner(c, w, 3.0, 0.0)
        (M,) = banded
        A = A.toarray()
        assert A[0, 1] != 0.0
        assert np.abs(self._dense(M) - A).max() <= 1e-15 * np.abs(A).max()

    @pytest.mark.parametrize("kind", ["interval", "square", "l_shape"])
    def test_p2_map_gives_laplacian(self, kind, l_mask, monkeypatch):
        g = TestWeightedPreconditioner._grid(kind, l_mask)
        banded = self._captured(monkeypatch)
        inner.Factors.of(g).laplacian
        (M,) = banded
        L = sum(G.T @ G for G in _gradient_operators(g)).toarray()
        assert np.abs(self._dense(M) - L).max() <= 1e-15 * np.abs(L).max()
        # the band map's 7-point pattern in 2D, with zeros at H_xy
        assert M.nnz >= np.count_nonzero(L)


class TestEnergyKernel:
    """The calculus kernel shared by the descent and the public functionals,
    against an explicit loop over cells."""

    @staticmethod
    def _state(kind, l_mask, p, seed=31):
        # h = 1/39 on the interval: the grid operator's (1/h) v1 - (1/h) v0
        # and the loop's (v1 - v0) / h then round differently
        g = (build_grid(Interval(0.0, 1.0), 38) if kind == "interval"
             else TestWeightedPreconditioner._grid(kind, l_mask))
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1.0, 1.0, g.num_interior)
        f = rng.uniform(-1.0, 1.0, g.num_interior)
        eps = g.h ** 2 if p < 2 else 0.0
        return g, x, f, eps

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 64.0])
    @pytest.mark.parametrize("kind",
                             ["interval", "square", "l_shape", "rectangle"])
    def test_matches_calculus(self, kind, p, l_mask):
        g, x, f, eps = self._state(kind, l_mask, p)
        fh = f * g.h ** g.dim
        J, c, w = _energy(g, x, fh, p, eps)
        grad = _nodal_gradient(g, c, w, fh)
        v = GridFunction.from_interior(g, x)
        fg = GridFunction.from_interior(g, f)
        J_ref, grad_ref = loop_objective(g, v.values, fg.values, p, eps)
        grad_ref = grad_ref[g.interior]
        assert abs(J - J_ref) <= 1e-13 * abs(J_ref)
        assert np.abs(grad - grad_ref).max() <= 1e-13 * np.abs(grad_ref).max()
        # G x lists the domain's cells in the order of cell_mask, one
        # component after the other
        cells_ref = loop_gradient_field(g, v.values).reshape(
            g.cell_mask.shape + (-1,))[g.cell_mask]
        assert np.abs(c.reshape(g.dim, -1).T - cells_ref).max() <= \
            1e-15 * np.abs(cells_ref).max()

    @pytest.mark.parametrize("p", [1.5, 3.0, 64.0])
    @pytest.mark.parametrize("kind", ["interval", "square", "l_shape"])
    def test_gradient_odd(self, kind, p, l_mask):
        g, x, f, eps = self._state(kind, l_mask, p)
        fh = f * g.h ** g.dim
        _, c, w = _energy(g, x, fh, p, eps)
        _, cn, wn = _energy(g, -x, -fh, p, eps)
        assert np.array_equal(_nodal_gradient(g, cn, wn, -fh),
                              -_nodal_gradient(g, c, w, fh))

    def test_overflow_is_infinite(self, l_mask):
        g, x, f, _ = self._state("square", l_mask, 64.0)
        with np.errstate(over="ignore"):
            J, _, _ = _energy(g, 1e6 * x, f * g.h ** 2, 64.0, 0.0)
        assert J == math.inf


class TestSolverCaches:
    def test_entries_leave_with_their_grid(self):
        # the grid owns its Factors, and nothing in them refers back to the
        # grid, so reference counting alone frees both: the cyclic GC is off
        spec = Rectangle(0.0, 1.0, 0.0, 1.0)
        refs = []
        gc.collect()
        gc.disable()
        try:
            for k in range(30):
                shared_grid.cache_clear()  # a new grid for each solve
                grid = inverse_iterate(spec, 16, 2.0 if k % 2 else 3.0,
                                       PositiveConstant()).final.grid
                factors = inner.Factors.of(grid)
                # a banded grid maps the cell matrices straight to band
                # storage, the p=2 Laplacian's identity too; it keeps the
                # Laplacian factor at p=2 and drops the one the p=3 cold
                # start stood in once the first lagged factor is built
                assert factors.banded
                assert "_band" in vars(factors)
                assert ("laplacian" in vars(factors)) == (k % 2 == 1)
                refs += [weakref.ref(grid), weakref.ref(grid.G),
                         weakref.ref(factors), weakref.ref(factors._band[0])]
            # a wide-band grid keeps its map to the fronts, and drops the
            # Laplacian the cold start stood in
            for _ in range(3):
                shared_grid.cache_clear()
                grid = inverse_iterate(spec, 72, 3.0,
                                       PositiveConstant()).final.grid
                factors = inner.Factors.of(grid)
                assert not factors.banded
                assert "_fronts" in vars(factors)
                assert "laplacian" not in vars(factors)
                refs += [weakref.ref(grid), weakref.ref(factors),
                         weakref.ref(factors._fronts)]
            shared_grid.cache_clear()
            del grid, factors
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()


class TestRelag:
    """Factorizations per descent under the one re-lag rule (`_relag`), on
    both back ends: a factor taken up in a descent runs its counted cost in
    iterations (`Factors.relag_cost`) before it is weighed, one carried from
    the last outer step one iteration, and it is kept while its contraction
    still pays for it.  A band factor at n=16 costs about three iterations,
    a tree factor at n=72 about nine."""

    @staticmethod
    def _descents(monkeypatch, n, p):
        # (iterations, factorizations) of each descent of one solve
        factors = [0]
        factorized, descend = inner.factorized, inner._descend

        def counting_factorized(A, **kwargs):
            factors[0] += 1
            return factorized(A, **kwargs)

        def counting_descend(*args, **kwargs):
            before = factors[0]
            out = descend(*args, **kwargs)
            runs.append((out[1], factors[0] - before))
            return out

        runs = []
        monkeypatch.setattr(inner, "factorized", counting_factorized)
        monkeypatch.setattr(inner, "_descend", counting_descend)
        spec = Rectangle(0.0, 1.0, 0.0, 1.0)
        tr = inverse_iterate(spec, n, p, PositiveConstant())
        return inner.Factors.of(tr.final.grid), runs

    def test_tree_factor_runs_its_cost(self, monkeypatch):
        back, runs = self._descents(monkeypatch, 72, 16.0)
        assert back._b == 71 and not back.banded and back.relag_cost > 8
        # the first descent starts from zero on the sine-transform stand-in,
        # no factorization, and re-lags the Hessian more than once
        assert runs[0][1] >= 2
        # no descent takes a factor per fewer iterations than one costs, and
        # a later one, on a carried factor, ends on it
        assert all(factors <= iters / back.relag_cost + 1
                   for iters, factors in runs)
        assert any(factors == 0 < iters for iters, factors in runs[1:])

    def test_band_factor_replaced_on_poor_contraction(self, monkeypatch):
        back, runs = self._descents(monkeypatch, 16, 16.0)
        assert back._b == 15 and back.banded and back.relag_cost < 4
        # the first descent, the Laplacian stand-in and the Hessian factors
        # that replace it, re-lags the cheap factor more often than once
        # per 20 iterations (39 iterations on 9 factors)
        iters, factors = runs[0]
        assert factors > math.ceil(iters / 20)
        assert all(factors <= iters / back.relag_cost + 1
                   for iters, factors in runs)
        # the carried factor is kept where it contracts well enough
        assert any(factors == 0 < iters for iters, factors in runs[1:])

    def test_tree_not_eager(self, monkeypatch):
        # the square n=72 (bandwidth 71, the tree) at p=64 from the
        # constant: 45 factorizations in 860 inner iterations under the
        # 20-iteration window, 59 in 586 under the rule, which is the faster
        # of the two there and is pinned.  A contraction re-lag that ignores
        # the factor's cost took the L-shape n=72 sweep to p=128 from 94 to
        # 1,489 factorizations
        back, runs = self._descents(monkeypatch, 72, 64.0)
        assert not back.banded
        assert sum(factors for _, factors in runs) <= 59

    def test_counted_not_timed(self):
        # the cost the rule reads is counted from the grid: the same on the
        # process's shared grid and on a new one, and neither module that
        # factors reads a clock
        for spec, n in ((Rectangle(0.0, 1.0, 0.0, 1.0), 16),
                        (Rectangle(0.0, 1.0, 0.0, 1.0), 72),
                        (MaskDomain(2, 2, np.array([[True, True],
                                                    [True, False]]), 0.5),
                         72)):
            costs = [inner.Factors.of(g).relag_cost
                     for g in (shared_grid(spec, n), build_grid(spec, n))]
            assert costs[0] == costs[1] > 0
        for module in (inner, multifrontal):
            with open(module.__file__) as f:
                source = f.read()
            assert "import time" not in source
            assert "from time" not in source
            assert "time" not in vars(module)
        # so two solves, each on a new grid, take one path
        traces = []
        for _ in range(2):
            shared_grid.cache_clear()
            traces.append(inverse_iterate(Rectangle(0.0, 1.0, 0.0, 1.0), 72,
                                          6.0, PositiveConstant()))
        a, b = traces
        assert a.final.grid is not b.final.grid
        assert repr(a.steps) == repr(b.steps)
        assert repr(a.lambda_R) == repr(b.lambda_R)


class TestCarriedFactor:
    """The banded Hessian factor an outer step ends on is the next step's
    first factor, within one `inverse_iterate` call only."""

    SPEC = Rectangle(0.0, 1.0, 0.0, 1.0)

    def test_repeated_iterate_on_one_grid_identical(self):
        a, b = (inverse_iterate(self.SPEC, 16, 16.0, PositiveConstant())
                for _ in range(2))
        assert a.final.grid is b.final.grid
        assert repr(a.steps) == repr(b.steps)
        assert repr(a.lambda_R) == repr(b.lambda_R)
        assert repr(a.lambda_Q) == repr(b.lambda_Q)
        assert np.array_equal(a.final.values, b.final.values)

    def test_solve_step_after_iterate_equals_fresh_grid(self):
        used = inverse_iterate(self.SPEC, 16, 16.0,
                               PositiveConstant()).final.grid
        u, v = (solve_stats(random_rhs(g, 73, nonneg=True), 16.0)[0]
                for g in (used, build_grid(self.SPEC, 16)))
        assert np.array_equal(u.values, v.values)

    @pytest.mark.parametrize("p", [3.0, 16.0])
    def test_poor_carried_factor_replaced(self, p):
        g = build_grid(self.SPEC, 16)
        f = random_rhs(g, 71, nonneg=True).values[g.interior]
        x0, _ = solve_step_with_stats(g, f, p)
        start = x0 * np.random.default_rng(5).uniform(0.8, 1.2, x0.size)
        # the p=2 Laplacian is far from the cell Hessian at p=16
        laplacian = inner.Factors.of(g).laplacian
        calls = [0]

        def poor(rhs):
            calls[0] += 1
            return laplacian(rhs)

        carry = [poor]
        x, iters = solve_step_with_stats(g, f, p, initial=start,
                                         carry=carry)
        assert 0 < calls[0] < iters
        assert len(carry) == 1 and carry[0] is not poor
        hd = g.h ** g.dim
        fh = f * hd
        _, c, w = _energy(g, x, fh, p, 0.0)
        grad = _nodal_gradient(g, c, w, fh)
        assert np.abs(grad).max() <= _resolved_tol(float(f.max()), None)
        # the decrement in the metric of the exact Hessian at the result
        tau = 100 * _resolved_tol(1.0, None)
        hessian = inner.Factors.of(g).preconditioner(c, w, p, 0.0)
        slope = float(np.dot(grad, hessian(grad)))
        assert p * p * slope <= (p - 1) * tau * tau * hd * abs(float(fh @ x))

    @pytest.mark.parametrize("budget, held", [
        (0, "poor"), (1, "none"), (2, "new"), (3, "new")])
    def test_carry_at_budget_stop(self, monkeypatch, budget, held):
        # the start and the poor factor of the test above at p=16: the first
        # step on the poor factor contracts the residual too little to pay
        # for keeping it, so the rule releases it, and the second runs on a
        # factor built at the iterate; a descent stopped by its budget hands
        # on what it holds
        g = build_grid(self.SPEC, 16)
        f = random_rhs(g, 71, nonneg=True).values[g.interior]
        x0, _ = solve_step_with_stats(g, f, 16.0)
        start = x0 * np.random.default_rng(5).uniform(0.8, 1.2, x0.size)
        laplacian = inner.Factors.of(g).laplacian
        built, preconditioner = [], inner.Factors.preconditioner

        def recorded(self, *args):
            built.append(preconditioner(self, *args))
            return built[-1]

        def poor(rhs):
            return laplacian(rhs)

        monkeypatch.setattr(inner.Factors, "preconditioner", recorded)
        carry = [poor]
        _, iters, _ = inner._descend(
            g, start, f * g.h ** g.dim, 16.0, 0.0,
            _resolved_tol(float(f.max()), None), budget,
            100 * _resolved_tol(1.0, None), carry)
        assert iters == budget
        assert carry == {"poor": [poor], "none": [], "new": built}[held]
        assert len(built) == (held == "new")

    def test_one_factor_alive(self, monkeypatch):
        # the factor a re-lag replaces, carried or not, is released before
        # the next is built
        factorized = inner.factorized
        built, alive = [], []

        def counting_factorized(A, **kwargs):
            alive.append(sum(ref() is not None for ref in built))
            solve = factorized(A, **kwargs)
            built.append(weakref.ref(solve))
            return solve

        monkeypatch.setattr(inner, "factorized", counting_factorized)
        inverse_iterate(self.SPEC, 16, 16.0, PositiveConstant())
        assert len(alive) > 1 and max(alive) == 0


class TestNoDescentDirection:
    """A factor whose direction gives no descent (g.d not positive and
    finite) is released at its first such direction: a lagged one is
    re-lagged at the current iterate, and one built there gets the p=2
    stencil standing in."""

    @pytest.mark.parametrize("bad, first_bad", [
        ("negated", 1), ("negated", 0), ("nan", 0)])
    def test_solve_recovers(self, monkeypatch, bad, first_bad):
        # the first Hessian factor of the square n=72 at p=3 gives bad
        # directions from its solve number first_bad on: 1 is a lagged
        # factor going bad, 0 a factor bad where it was built
        spec = Rectangle(0.0, 1.0, 0.0, 1.0)
        factorized, dst_solver = inner.factorized, inner.Factors._dst_solver
        calls, bad_calls, laplacians = [], [], []

        def flipping(A, **kwargs):
            solve = factorized(A, **kwargs)
            if calls:
                return solve
            calls.append(0)

            def flipped(rhs):
                calls[0] += 1
                if calls[0] <= first_bad:
                    return solve(rhs)
                bad_calls.append(1)
                return -solve(rhs) if bad == "negated" else rhs * np.nan
            return flipped

        def counting_dst(self):
            laplacians.append(1)
            return dst_solver(self)

        monkeypatch.setattr(inner, "factorized", flipping)
        monkeypatch.setattr(inner.Factors, "_dst_solver", counting_dst)
        tr = inverse_iterate(spec, 72, 3.0, PositiveConstant())
        assert tr.converged
        report = verify(tr)
        assert report.all_passed, str(report)
        assert len(bad_calls) == 1
        # the cold start's stand-in, and one more where the factor built at
        # the iterate gave no descent
        assert len(laplacians) == (2 if first_bad == 0 else 1)


class TestFactorizeBoundary:
    """`factorized` is the one site at which the solve factors: the
    benchmark's tracer times `inner.factorize` there and sums each
    argument's nnz, so a factorization that bypassed it would read 0."""

    @pytest.mark.parametrize("n, banded", [(16, True), (72, False)])
    def test_every_factorization_goes_through_factorized(self, monkeypatch,
                                                          n, banded):
        calls = {"factorized": 0, "backend": 0}
        nnz = []
        factorized, factor, dpbtrf = (inner.factorized,
                                      inner.FrontTree.factor,
                                      inner.lapack.dpbtrf)

        def counting_factorized(A):
            calls["factorized"] += 1
            nnz.append(A.nnz)
            return factorized(A)

        def counting(backend):
            def call(*args, **kwargs):
                calls["backend"] += 1
                return backend(*args, **kwargs)
            return call

        monkeypatch.setattr(inner, "factorized", counting_factorized)
        monkeypatch.setattr(inner.FrontTree, "factor", counting(factor))
        monkeypatch.setattr(inner.lapack, "dpbtrf", counting(dpbtrf))
        spec = Rectangle(0.0, 1.0, 0.0, 1.0)
        grid = shared_grid(spec, n)
        assert inner.Factors.of(grid).banded is banded
        inverse_iterate(spec, n, 3.0, PositiveConstant())
        assert calls["factorized"] == calls["backend"] > 0
        assert all(isinstance(k, (int, np.integer)) and k > 0 for k in nnz)


class TestNewtonDecrementStop:
    """The last eps stage of a descent preconditioned by the cell Hessian
    (p != 2, on either back end) ends when the gradient sup-norm is at most
    tol and the Newton decrement is small too: p^2 g.d <= (p-1) tau^2 h^d
    |fh.x|, with d the preconditioned gradient and tau = 100 tol_grad.
    p = 2 stops on the sup-norm alone."""

    @staticmethod
    def _solve(monkeypatch, spec, n, p):
        # one solve from zero for a positive right-hand side; returns the
        # grid, f, the minimizer x, its iterations, the solve callable
        # of each cell-Hessian factor in the order they were built, and the
        # number of triangular solves made with any factor
        built, count = [], [0]
        factorized = inner.factorized
        preconditioner = inner.Factors.preconditioner

        def counting_factorized(A, **kwargs):
            solve = factorized(A, **kwargs)

            @functools.wraps(solve)
            def counted(rhs):
                count[0] += 1
                return solve(rhs)
            return counted

        def recorded(self, *args):
            built.append(preconditioner(self, *args))
            return built[-1]

        monkeypatch.setattr(inner, "factorized", counting_factorized)
        monkeypatch.setattr(inner.Factors, "preconditioner", recorded)
        g = build_grid(spec, n)
        f = random_rhs(g, 71, nonneg=True).values[g.interior]
        x, iters = solve_step_with_stats(g, f, p)
        return g, f, x, iters, built, count[0]

    @pytest.mark.parametrize("p", [3.0, 64.0])
    def test_newton_iterate_meets_decrement_bound(self, monkeypatch, p):
        g, f, x, iters, built, solves = self._solve(
            monkeypatch, Rectangle(0.0, 1.0, 0.0, 1.0), 16, p)
        assert inner.Factors.of(g).banded
        self._check_decrement(g, f, x, iters, built, solves, p)

    @pytest.mark.parametrize("p", [3.0, 64.0])
    def test_superlu_iterate_meets_decrement_bound(self, monkeypatch, p,
                                                   l_mask):
        # the L-shape, whose cold start stands a double multifrontal factor
        # in for the Laplacian; the last factor is the single-precision
        # Hessian
        g, f, x, iters, built, solves = self._solve(
            monkeypatch, l_mask, 72, p)
        assert not inner.Factors.of(g).banded
        self._check_decrement(g, f, x, iters, built, solves, p)

    @staticmethod
    def _check_decrement(g, f, x, iters, built, solves, p):
        hd = g.h ** g.dim
        fh = f * hd
        _, c, w = _energy(g, x, fh, p, 0.0)
        grad = _nodal_gradient(g, c, w, fh)
        assert np.abs(grad).max() <= _resolved_tol(float(f.max()), None)
        # the decrement in the metric of the last factor, the cell Hessian
        # the descent ended on
        tau = 100 * _resolved_tol(1.0, None)
        slope = float(np.dot(grad, built[-1](grad)))
        assert p * p * slope <= (p - 1) * tau * tau * hd * abs(float(fh @ x))
        assert solves == iters + 1  # the decrement's solve at the exit

    @pytest.mark.parametrize("spec, n, p", [
        # the L-shape, whose p=2 Laplacian is a multifrontal factor, so that
        # every solve goes through `factorized`
        (MaskDomain(2, 2, np.array([[True, True], [True, False]]), 0.5), 72,
         2.0),
        (Rectangle(0.0, 1.0, 0.0, 1.0), 16, 2.0),
        (Interval(0.0, 1.0), 63, 2.0)], ids=["superlu", "square-p2",
                                             "interval-p2"])
    def test_gradient_stop_unchanged(self, monkeypatch, spec, n, p):
        # one triangular solve per iteration, none at the exit, and the
        # same iterate as a descent without the decrement test
        g, f, x, iters, _, solves = self._solve(monkeypatch, spec, n, p)
        assert p == 2 or not inner.Factors.of(g).banded
        assert solves == iters
        descend = inner._descend
        monkeypatch.setattr(inner, "_descend",
                            lambda *args: descend(*args[:7]))
        x0, iters0 = solve_step_with_stats(g, f, p)
        assert iters0 == iters
        assert np.array_equal(x0, x)


class TestGeneralP:
    @pytest.mark.parametrize("p", [1.5, 3.0, 6.0])
    def test_residual_below_tolerance(self, small_interval, p):
        f = random_rhs(small_interval, 5)
        v, iters = solve_stats(f, p)
        tol = _resolved_tol(float(np.abs(f.values).max()), None)
        # for p < 2 the solve targets the final regularized objective
        eps = _eps_schedule(p, small_interval.h)[-1]
        fh = f.values[small_interval.interior] * small_interval.h
        _, c, w = _energy(small_interval, v.values[small_interval.interior],
                          fh, p, eps)
        res = _nodal_gradient(small_interval, c, w, fh)
        assert float(np.abs(res).max()) <= 10 * tol
        assert iters > 0

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_weak_form_single_node(self, small_interval, p):
        """Pair the solution against every one-node test function; the weak
        residual is exactly the objective gradient entry at that node."""
        f = random_rhs(small_interval, 6)
        v, _ = solve_stats(f, p)
        tol = _resolved_tol(float(np.abs(f.values).max()), None)
        eps = _eps_schedule(p, small_interval.h)[-1]
        fh = f.values[small_interval.interior] * small_interval.h
        _, c, w = _energy(small_interval, v.values[small_interval.interior],
                          fh, p, eps)
        for r in _nodal_gradient(small_interval, c, w, fh):
            assert abs(r) <= 10 * tol

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_comparison_nonnegative_rhs(self, small_interval, p):
        f = random_rhs(small_interval, 7, nonneg=True)
        v, _ = solve_stats(f, p)
        tol = _resolved_tol(float(np.abs(f.values).max()), None)
        assert float(v.values.min()) >= -10 * tol

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_unique_minimizer(self, small_interval, p):
        """Strict convexity: the solve lands at the same point from the zero
        start and from a random warm start."""
        f = random_rhs(small_interval, 8)
        v0, _ = solve_stats(f, p)
        warm = random_rhs(small_interval, 9).scaled(5.0)
        v1, _ = solve_stats(f, p, initial=warm)
        tol = _resolved_tol(float(np.abs(f.values).max()), None)
        assert float(np.abs(v0.values - v1.values).max()) <= 100 * tol

    @settings(max_examples=15, deadline=None)
    @given(p=st.floats(2.0, 6.0), c=st.floats(0.5, 2.0),
           seed=st.integers(0, 1000))
    def test_step_map_homogeneous(self, p, c, seed):
        """Scaling the right-hand side by c^(p-1) scales the minimizer by c.

        Restricted to p >= 2 (below 2 the regularized final stage is
        deliberately not scale invariant) and to moderate c: the property is
        exact only for exact minimizers, and the gradient tolerance allows
        iterate errors that grow along the flat directions the large-p
        objective develops under extreme rescaling."""
        g = build_grid(Interval(0.0, 1.0), 9)
        f = random_rhs(g, seed)
        v, _ = solve_stats(f, p)
        f_scaled = GridFunction(g, c ** (p - 1) * f.values)
        v_scaled, _ = solve_stats(f_scaled, p)
        assert np.allclose(v_scaled.values, c * v.values,
                           rtol=1e-5, atol=1e-8)

    def test_solve_solves_equation_2d(self, square_grid):
        f = random_rhs(square_grid, 10)
        v, _ = solve_stats(f, 3.0)
        tol = _resolved_tol(float(np.abs(f.values).max()), None)
        g = square_grid
        fh = f.values[g.interior] * g.h ** 2
        _, c, w = _energy(g, v.values[g.interior], fh, 3.0, 0.0)
        res = _nodal_gradient(g, c, w, fh)
        assert float(np.abs(res).max()) <= 10 * tol


class TestFailureModes:
    def test_budget_exhausted_raises(self, small_interval, monkeypatch):
        f = random_rhs(small_interval, 11)
        monkeypatch.setattr(inner, "MAX_INNER_ITERS", 2)
        with pytest.raises(NonConvergence) as exc_info:
            solve_stats(f, 3.0)
        exc = exc_info.value
        assert exc.best is not None
        assert exc.residual > exc.tol

    def test_unreachable_tolerance_raises(self, small_interval):
        f = random_rhs(small_interval, 12)
        with pytest.raises(NonConvergence) as exc_info:
            solve_stats(f, 3.0, tol_grad=1e-30)
        # the 300-iteration no-progress floor ends it, not the 200,000 cap
        assert exc_info.value.iterations <= 1000

    def test_nan_gradient_raises(self):
        # from the zero start every cell is flat, so at p < 2 and eps = 0
        # the weights 0^(p/2-1) are infinite and the gradient is NaN
        # (the continuation from a positive eps avoids it)
        g = build_grid(Rectangle(0.0, 1.0, 0.0, 1.0), 8)
        f = GridFunction.constant(g, 1.0)
        fh = f.values[g.interior] * g.h ** 2
        tol = _resolved_tol(1.0, None)
        with np.errstate(divide="ignore", invalid="ignore"):
            _, iters, residual = inner._descend(
                g, np.zeros(g.num_interior), fh, 1.5, 0.0, tol,
                inner.MAX_INNER_ITERS)
            assert iters == 0
            assert not residual <= tol
            v, iters = solve_stats(f, 1.5)
        eps = _eps_schedule(1.5, g.h)[-1]
        _, c, w = _energy(g, v.values[g.interior], fh, 1.5, eps)
        res = _nodal_gradient(g, c, w, fh)
        assert iters > 0
        assert float(np.abs(res).max()) <= 10 * tol

    def test_budget_exhausted_before_last_stage(self, monkeypatch):
        # p < 2 runs an eps continuation; the budget runs out in its first
        # stage, the later stages only evaluate their start, and the solve
        # reports the last iterate on its grid against the target tolerance
        g = build_grid(Interval(0.0, 1.0), 15)
        monkeypatch.setattr(inner, "MAX_INNER_ITERS", 3)
        with pytest.raises(NonConvergence) as exc_info:
            solve_stats(GridFunction.constant(g, 1.0), 1.5)
        exc = exc_info.value
        assert isinstance(exc.best, GridFunction) and exc.best.grid is g
        assert exc.iterations == 3
        assert exc.tol == _resolved_tol(1.0, None)
        assert exc.tol < exc.residual < math.inf


class TestProgressLog:
    def test_every_thousandth_iteration_logged(self, caplog):
        # a descent to a zero tolerance at p=1.2 spends its whole budget
        # of 2000 iterations and logs a DEBUG line at 1000 and 2000
        caplog.set_level(logging.DEBUG, logger="pground")
        g = build_grid(Rectangle(0.0, 1.0, 0.0, 1.0), 16)
        fh = np.full(g.num_interior, g.h ** 2)
        _, iters, _ = inner._descend(g, np.zeros(g.num_interior), fh, 1.2,
                                     1e-30, 0.0, 2000)
        assert iters == 2000
        records = [r for r in caplog.records if r.name == "pground.inner"]
        assert [r.levelno for r in records] == [logging.DEBUG] * 2
        assert [r.getMessage()[:22] for r in records] == [
            "    inner iter 1000: J", "    inner iter 2000: J"]
        assert all(" grad_sup=" in r.getMessage() for r in records)


class TestLineSearch:
    """A rejected Armijo trial is followed by the minimizer of the
    quadratic through phi(0), phi'(0) and phi(t), clipped to [0.1 t,
    0.5 t]; the step is halved where phi(t) is not finite and in the floor
    regime."""

    @given(t=st.floats(1e-8, 1e8), slope=st.floats(1e-12, 1e12),
           excess=st.floats(1e-12, 1e300))
    @settings(max_examples=200, deadline=None)
    def test_step_within_safeguard(self, t, slope, excess):
        # any rise the Armijo test rejects: above -c t slope
        rise = -inner.ARMIJO_C * t * slope + excess
        step = inner._backtrack(t, slope, rise)
        assert 0.1 * t <= step <= 0.5 * t

    @pytest.mark.parametrize("ratio", [0.05, 0.101, 0.25, 1 / 3, 0.499])
    def test_quadratic_minimizer(self, ratio):
        # phi(s) = J - slope s + a s^2 with its minimizer at ratio t
        t, slope, J = 3.7, 2.5, -1.25
        a = slope / (2 * ratio * t)
        rise = (J - slope * t + a * t * t) - J
        step = inner._backtrack(t, slope, rise)
        assert step == pytest.approx(max(ratio, 0.1) * t, rel=1e-12)

    @staticmethod
    def _steps(monkeypatch, scale, first_trial=None, laplacian_factor=1.0):
        # one p=2 descent from zero on the square n=16 for f of sup-norm
        # scale, the preconditioner the Laplacian times laplacian_factor;
        # returns the trial steps t over 1/h^d (trial = -t d from zero, so
        # each is exact up to one rounding), the Armijo decrease c t g.d of
        # the first trial, the iterate and the exact minimizer.  first_trial maps the first
        # trial's objective J to the value the line search sees.
        g = build_grid(Rectangle(0.0, 1.0, 0.0, 1.0), 16)
        hd = g.h ** g.dim
        fh = scale * random_rhs(g, 79).values[g.interior] * hd
        factors = inner.Factors.of(g)
        exact = factors.laplacian(fh) / hd
        laplacian = factors.laplacian
        vars(factors)["laplacian"] = (
            lambda rhs: laplacian_factor * laplacian(rhs))
        d = factors.laplacian(-fh)  # the gradient at zero is -fh
        trials, energy = [], inner._energy

        def recording(grid, x, *args):
            J, c, w = energy(grid, x, *args)
            if np.any(x):
                trials.append(float(np.dot(-x, d) / np.dot(d, d)) * hd)
                if len(trials) == 1 and first_trial is not None:
                    J = first_trial(J)
            return J, c, w

        monkeypatch.setattr(inner, "_energy", recording)
        x, iters, _ = inner._descend(g, np.zeros(g.num_interior), fh, 2.0,
                                     0.0, 0.0, 1)
        assert iters == 1
        return trials, inner.ARMIJO_C * float(np.dot(-fh, d)) / hd, x, exact

    def test_exact_step_on_quadratic(self, monkeypatch):
        # p=2 is quadratic: three times the Newton direction overshoots
        # at the first trial, and the interpolated step lands on the
        # minimizer, where halving would accept t/2 and stop short of it
        trials, _, x, exact = self._steps(monkeypatch, 1.0,
                                          laplacian_factor=3.0)
        assert trials[0] == pytest.approx(1.0, rel=1e-14)
        assert trials[1] == pytest.approx(1 / 3, rel=1e-12)
        assert len(trials) == 2
        np.testing.assert_allclose(x, exact, rtol=1e-10,
                                   atol=1e-12 * np.abs(exact).max())

    def test_interpolates_after_finite_rejection(self, monkeypatch):
        # a rise far above the quadratic model gives the lower clip
        trials, *_ = self._steps(monkeypatch, 1.0, lambda J: J + 1.0)
        assert trials[1] / trials[0] == pytest.approx(0.1, rel=1e-12)

    def test_halves_after_overflow(self, monkeypatch):
        trials, *_ = self._steps(monkeypatch, 1.0, lambda J: math.inf)
        assert trials[1] / trials[0] == pytest.approx(0.5, rel=1e-12)

    def test_halves_in_floor_regime(self, monkeypatch):
        # f of sup-norm 1e-8: the Armijo decrease c t g.d at the first
        # trial is below the floor 1e-15 max(1, |J|) = 1e-15 (J = 0 at
        # zero), so the derivative-form test decides and a rejected trial,
        # finite as it is, is halved
        trials, decrease, *_ = self._steps(monkeypatch, 1e-8,
                                           lambda J: J + 1.0)
        assert decrease <= 1e-15
        assert trials[1] / trials[0] == pytest.approx(0.5, rel=1e-12)

    @staticmethod
    def _search(monkeypatch, scale, seen):
        # one `_line_search` from zero at p=2 on the square n=16 along the
        # Laplacian's Newton direction, for f of sup-norm scale, whose first
        # trial 1/h^d is the minimizer; seen(J, k) is the objective the
        # search sees at its k-th trial, whose energy is J.  Returns the
        # search's result, the trial steps times h^d, the Armijo decrease
        # c t g.d of the first trial, the grid and fh
        g = build_grid(Rectangle(0.0, 1.0, 0.0, 1.0), 16)
        hd = g.h ** g.dim
        fh = scale * random_rhs(g, 79).values[g.interior] * hd
        x = np.zeros(g.num_interior)
        J, c, w = _energy(g, x, fh, 2.0, 0.0)
        grad = _nodal_gradient(g, c, w, fh)
        d = inner.Factors.of(g).laplacian(grad)
        slope = float(np.dot(grad, d))
        trials, energy = [], inner._energy

        def recording(grid, trial, *args):
            Jt, ct, wt = energy(grid, trial, *args)
            trials.append(float(np.dot(-trial, d) / np.dot(d, d)) * hd)
            return seen(Jt, len(trials)), ct, wt

        monkeypatch.setattr(inner, "_energy", recording)
        step = inner._line_search(g, x, fh, 2.0, 0.0, J, d, slope, 1.0 / hd)
        return step, trials, inner.ARMIJO_C * slope / hd, g, fh

    def test_accepts_by_derivative_below_floor(self, monkeypatch):
        # f of sup-norm 1e-8: J = 0 at zero, and the decrease c t g.d of
        # the first trial is below the floor 1e-15 max(1, |J|).  Seen half
        # a floor above J, the trial fails the Armijo test but passes the
        # derivative test at the minimizer, and J stays the objective
        step, trials, decrease, g, fh = self._search(
            monkeypatch, 1e-8, lambda J, k: 5e-16)
        assert decrease <= 1e-15
        assert trials == [pytest.approx(1.0, rel=1e-14)]
        t, x, J, (c, w), grad = step
        assert t == 1.0 / g.h ** g.dim and J == 0.0
        assert np.array_equal(grad, _nodal_gradient(g, c, w, fh))
        assert np.abs(grad).max() <= 1e-6 * np.abs(fh).max()

    @pytest.mark.parametrize("first, ratio", [
        (math.inf, 0.5), (math.nan, 0.5), (1.0, 0.1)])
    def test_halves_on_non_finite_energy(self, monkeypatch, first, ratio):
        # a first trial seen at a non-finite objective is halved; a finite
        # one far above the quadratic model takes the lower clip.  The
        # second trial passes the Armijo test
        step, trials, _, g, _ = self._search(
            monkeypatch, 1.0, lambda J, k: first if k == 1 else J)
        assert len(trials) == 2
        assert trials[1] / trials[0] == pytest.approx(ratio, rel=1e-12)
        assert step[0] * g.h ** g.dim == pytest.approx(ratio, rel=1e-12)

    def test_none_after_80_rejections(self, monkeypatch):
        # every trial seen far above J: the search gives up after 80
        step, trials, *_ = self._search(monkeypatch, 1.0,
                                        lambda J, k: J + 1.0)
        assert step is None and len(trials) == 80

    def test_square_sweep_energy_count(self, monkeypatch):
        # the square n=64 sweep over p = 4..64 made 1,389 trial energies
        # with halving alone, 907 with the interpolated step and 592 with
        # the predicted start as well
        calls, energy = [0], inner._energy

        def counting(*args):
            calls[0] += 1
            return energy(*args)

        monkeypatch.setattr(inner, "_energy", counting)
        result = sweep(Rectangle(0.0, 1.0, 0.0, 1.0), 64,
                       (4.0, 8.0, 16.0, 32.0, 64.0))
        assert all(e.converged for e in result.entries)
        assert calls[0] <= 1000

    def test_square_sweep_inner_iterations(self):
        # the square n=64 sweep over p = 4..64 made 601 inner iterations
        # starting each point from the last final, 426 with the guarded
        # prediction in 1/p (`infinity._continued_start`)
        result = sweep(Rectangle(0.0, 1.0, 0.0, 1.0), 64,
                       (4.0, 8.0, 16.0, 32.0, 64.0))
        assert all(e.converged for e in result.entries)
        assert sum(s.inner_iters for tr in result.traces
                   for s in tr.steps) <= 450


class TestBlasThreads:
    """`solve_step_with_stats` holds each bundled OpenBLAS to one thread
    and restores the caller's count, on an exception too."""

    @pytest.fixture
    def two_threads(self):
        controls = inner._blas_thread_controls()
        if not controls:
            pytest.skip("no bundled OpenBLAS with thread controls")
        saved = [get() for get, _ in controls]
        for _, set_ in controls:
            set_(2)
        try:
            yield controls
        finally:
            for (_, set_), count in zip(controls, saved):
                set_(count)

    @staticmethod
    def _solve(p=3.0):
        g = build_grid(Rectangle(0.0, 1.0, 0.0, 1.0), 16)
        return solve_step_with_stats(g, random_rhs(g, 83).values[g.interior],
                                     p)[0]

    def test_one_thread_inside_caller_count_after(self, monkeypatch,
                                                  two_threads):
        seen, factorized = [], inner.factorized

        def recording(A, **kwargs):
            seen.append([get() for get, _ in two_threads])
            return factorized(A, **kwargs)

        monkeypatch.setattr(inner, "factorized", recording)
        self._solve()
        assert seen and all(counts == [1] * len(two_threads)
                            for counts in seen)
        assert [get() for get, _ in two_threads] == [2] * len(two_threads)

    def test_count_restored_on_exception(self, monkeypatch, two_threads):
        def failing(A, **kwargs):
            raise LinAlgError("factor failed")

        monkeypatch.setattr(inner, "factorized", failing)
        with pytest.raises(LinAlgError):
            self._solve()
        assert [get() for get, _ in two_threads] == [2] * len(two_threads)

    def test_set_only_where_not_one(self, monkeypatch):
        calls = []

        def control(name, count):
            return (lambda: count,
                    lambda n: calls.append((name, n)))

        monkeypatch.setattr(inner, "_blas_thread_controls", lambda: (
            control("one", 1), control("four", 4)))
        self._solve()
        assert calls == [("four", 1), ("four", 4)]

    def test_absent_symbols_leave_solve_unchanged(self, monkeypatch):
        class NoSymbols:
            def __init__(self, *args, **kwargs):
                pass

        pinned = self._solve()
        with monkeypatch.context() as m:
            m.setattr(inner.ctypes, "CDLL", NoSymbols)
            controls = inner._blas_thread_controls.__wrapped__()
        assert controls == ()
        monkeypatch.setattr(inner, "_blas_thread_controls", lambda: controls)
        assert np.array_equal(self._solve(), pinned)

    def test_absent_libraries_give_no_controls(self, monkeypatch):
        def missing(path):
            raise FileNotFoundError(path)

        monkeypatch.setattr(inner.os, "listdir", missing)
        assert inner._blas_thread_controls.__wrapped__() == ()
