import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.sparse.linalg import spsolve

from pground import inner
from pground.calculus import (GridFunction, _cell_grad_sq, _energy,
                              _nodal_gradient, functional_gradient,
                              functional_value, gradient_field)
from pground.geometry import Interval, Rectangle, _gradient_operators, \
    build_grid
from pground.inner import (NonConvergence, SolverConfig, signed_power,
                           solve_step, solve_step_with_stats)
from pground.iteration import PositiveConstant, inverse_iterate
from pground.oracles import dirichlet_laplacian_matrix

from conftest import loop_gradient_field, loop_objective


@pytest.fixture
def small_interval():
    return build_grid(Interval(0.0, 1.0), 15)


def random_rhs(grid, seed, nonneg=False):
    rng = np.random.default_rng(seed)
    z = rng.uniform(0.0 if nonneg else -1.0, 1.0, grid.num_interior)
    return GridFunction.from_interior(grid, z)


class TestSignedPower:
    def test_values(self, small_interval):
        u = random_rhs(small_interval, 0)
        out = signed_power(u, 3.0)
        expect = np.abs(u.values) * u.values
        assert np.allclose(out.values, expect)

    def test_zero_safe_below_two(self, small_interval):
        vals = np.zeros(small_interval.shape)
        vals[small_interval.interior] = 1.0
        vals[3] = 0.0
        # |0|^(p-2) diverges for p < 2; the map must still send 0 to 0
        out = signed_power(GridFunction(small_interval, vals), 1.5)
        assert out.values[3] == 0.0
        assert np.all(np.isfinite(out.values))

    def test_odd(self, small_interval):
        u = random_rhs(small_interval, 1)
        a = signed_power(u.scaled(-1.0), 2.5).values
        b = signed_power(u, 2.5).values
        assert np.array_equal(a, -b)


class TestSolverConfig:
    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            SolverConfig(p=1.0)

    def test_rejects_increasing_eps(self):
        with pytest.raises(ValueError):
            SolverConfig(p=1.5, eps_schedule=(1e-4, 1e-2))

    @pytest.mark.parametrize("iters", [0, -5])
    def test_rejects_empty_budget(self, iters):
        # no iteration would ever evaluate the start against the tolerance
        with pytest.raises(ValueError):
            SolverConfig(p=3.0, max_inner_iters=iters)

    def test_rejects_empty_eps_schedule(self):
        # a solve with no stage would have no residual to decide on
        with pytest.raises(ValueError):
            SolverConfig(p=3.0, eps_schedule=())

    def test_default_tol_scales_with_rhs(self):
        cfg = SolverConfig(p=3.0)
        assert cfg.resolved_tol(0.5) == pytest.approx(1e-10)
        assert cfg.resolved_tol(100.0) == pytest.approx(1e-8)

    def test_default_eps_schedule(self):
        h = 0.1
        assert SolverConfig(p=3.0).resolved_eps(h) == (0.0,)
        sched = SolverConfig(p=1.5).resolved_eps(h)
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
        v = solve_step(f, SolverConfig(p=2.0))
        A = dirichlet_laplacian_matrix(g)
        direct = spsolve(A.tocsr(), f.values[g.interior])
        assert np.allclose(v.values[g.interior], direct, rtol=1e-9, atol=1e-12)


class TestWeightedPreconditioner:
    @pytest.mark.parametrize("kind", ["interval", "square", "l_shape"])
    def test_matches_direct_solve(self, kind, l_mask):
        spec, n = {"interval": (Interval(0.0, 1.0), 63),
                   "square": (Rectangle(0.0, 1.0, 0.0, 1.0), 16),
                   "l_shape": (l_mask, 16)}[kind]
        g = build_grid(spec, n)
        rng = np.random.default_rng(17)
        v = np.zeros(g.shape)
        v[g.interior] = rng.uniform(-1.0, 1.0, g.num_interior)
        v[: g.shape[0] // 2] = 0.0  # flat half: zero weights, floored
        p = 3.0
        w = _cell_grad_sq(GridFunction(g, v))[g.cell_mask] ** (p / 2 - 1)
        floor = 1e-10 * w.max()
        assert np.any(w < floor)
        W = sparse.diags(np.maximum(w, floor))
        A = sum(G.T @ W @ G for G in _gradient_operators(g))
        b = rng.uniform(-1.0, 1.0, g.num_interior)
        x = self._lagged(g, v, p)(b)
        direct = spsolve(A.tocsc(), b)
        assert np.linalg.norm(x - direct) <= 1e-10 * np.linalg.norm(direct)

    @staticmethod
    def _lagged(grid, v, p):
        # the solve's own path: `_energy` weights of the node array v
        x = v[grid.interior]
        return inner._lagged_solver(grid, _energy(grid, x, 0 * x, p, 0.0)[2])

    @staticmethod
    def _grid(kind, l_mask):
        spec, n = {"interval": (Interval(0.0, 1.0), 63),
                   "square": (Rectangle(0.0, 1.0, 0.0, 1.0), 16),
                   "l_shape": (l_mask, 16),
                   "rectangle": (Rectangle(0.0, 2.0, 0.0, 1.0), 16)}[kind]
        return build_grid(spec, n)

    @staticmethod
    def _assembled(grid, w):
        S, indices, indptr = grid.weighted_assembly
        n = grid.num_interior
        return sparse.csc_matrix((S @ w, indices, indptr), shape=(n, n))

    @pytest.mark.parametrize("kind",
                             ["interval", "square", "l_shape", "rectangle"])
    def test_scatter_matches_products(self, kind, l_mask):
        g = self._grid(kind, l_mask)
        rng = np.random.default_rng(23)
        w = rng.uniform(0.0, 1.0, int(np.count_nonzero(g.cell_mask)))
        w[: w.size // 2] = 0.0
        w = np.maximum(w, 1e-10 * w.max())  # half the weights at the floor
        ref = sum(G.T @ sparse.diags(w) @ G for G in _gradient_operators(g))
        A = self._assembled(g, w)
        assert abs(A - ref).max() <= 1e-15 * abs(ref).max()

    @pytest.mark.parametrize("kind",
                             ["interval", "square", "l_shape", "rectangle"])
    def test_unit_weights_give_laplacian(self, kind, l_mask):
        # at p = 2 the lagged operator is the 3/5-point Laplacian, slot for
        # slot; the values agree to rounding of 1/h^2 against (1/h)^2
        g = self._grid(kind, l_mask)
        A = self._assembled(g, np.ones(int(np.count_nonzero(g.cell_mask))))
        L = dirichlet_laplacian_matrix(g)
        assert np.array_equal(A.indices, L.indices)
        assert np.array_equal(A.indptr, L.indptr)
        assert np.abs(A.data - L.data).max() <= 1e-15 * np.abs(L.data).max()

    def test_pattern_built_once_per_grid(self):
        g = build_grid(Rectangle(0.0, 1.0, 0.0, 1.0), 16)
        rng = np.random.default_rng(29)
        b = rng.uniform(-1.0, 1.0, g.num_interior)
        entries = []
        for _ in range(2):
            v = np.zeros(g.shape)
            v[g.interior] = rng.uniform(-1.0, 1.0, g.num_interior)
            x = self._lagged(g, v, 3.0)(b)
            entries.append(g.weighted_assembly)
            w = _cell_grad_sq(GridFunction(g, v))[g.cell_mask] ** 0.5
            w = np.maximum(w, 1e-10 * w.max())
            A = sum(G.T @ sparse.diags(w) @ G for G in _gradient_operators(g))
            direct = spsolve(A.tocsc(), b)
            assert np.linalg.norm(x - direct) <= \
                1e-10 * np.linalg.norm(direct)
        assert entries[0] is entries[1]


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
        for val in (J, functional_value(v, fg, p, eps)):
            assert abs(val - J_ref) <= 1e-13 * abs(J_ref)
        grad_pub = functional_gradient(v, fg, p, eps).values[g.interior]
        for vec in (grad, grad_pub):
            assert np.abs(vec - grad_ref).max() <= \
                1e-13 * np.abs(grad_ref).max()
        cells_ref = loop_gradient_field(g, v.values)
        assert np.abs(gradient_field(v) - cells_ref).max() <= \
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
        # the grid owns its operators, so they are freed with it
        spec = Rectangle(0.0, 1.0, 0.0, 1.0)
        refs = []
        for k in range(30):
            grid = build_grid(spec, 16)
            inverse_iterate(spec, 16, 2.0 if k % 2 else 3.0,
                            PositiveConstant(), grid=grid)
            built = "laplacian_solve" if k % 2 else "weighted_assembly"
            assert built in vars(grid)
            refs += [weakref.ref(grid), weakref.ref(grid.G)]
        del grid
        gc.collect()
        assert all(ref() is None for ref in refs)


class TestGeneralP:
    @pytest.mark.parametrize("p", [1.5, 3.0, 6.0])
    def test_residual_below_tolerance(self, small_interval, p):
        f = random_rhs(small_interval, 5)
        cfg = SolverConfig(p=p)
        v, iters = solve_step_with_stats(f, cfg)
        tol = cfg.resolved_tol(float(np.abs(f.values).max()))
        # for p < 2 the solve targets the final regularized objective
        eps = cfg.resolved_eps(small_interval.h)[-1]
        res = functional_gradient(v, f, p, eps).values
        assert float(np.abs(res).max()) <= 10 * tol
        assert iters > 0

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_weak_form_single_node(self, small_interval, p):
        """Pair the solution against every one-node test function; the weak
        residual is exactly the objective gradient entry at that node."""
        f = random_rhs(small_interval, 6)
        cfg = SolverConfig(p=p)
        v = solve_step(f, cfg)
        tol = cfg.resolved_tol(float(np.abs(f.values).max()))
        eps = cfg.resolved_eps(small_interval.h)[-1]
        res = functional_gradient(v, f, p, eps).values
        for i in np.nonzero(small_interval.interior)[0]:
            assert abs(res[i]) <= 10 * tol

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_comparison_nonnegative_rhs(self, small_interval, p):
        f = random_rhs(small_interval, 7, nonneg=True)
        cfg = SolverConfig(p=p)
        v = solve_step(f, cfg)
        tol = cfg.resolved_tol(float(np.abs(f.values).max()))
        assert float(v.values.min()) >= -10 * tol

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_unique_minimizer(self, small_interval, p):
        """Strict convexity: the solve lands at the same point from the zero
        start and from a random warm start."""
        f = random_rhs(small_interval, 8)
        cfg = SolverConfig(p=p)
        v0 = solve_step(f, cfg)
        warm = random_rhs(small_interval, 9).scaled(5.0)
        v1 = solve_step(f, cfg, initial=warm)
        tol = cfg.resolved_tol(float(np.abs(f.values).max()))
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
        cfg = SolverConfig(p=p)
        v = solve_step(f, cfg)
        f_scaled = GridFunction(g, c ** (p - 1) * f.values)
        v_scaled = solve_step(f_scaled, cfg)
        assert np.allclose(v_scaled.values, c * v.values,
                           rtol=1e-5, atol=1e-8)

    def test_solve_solves_equation_2d(self, square_grid):
        f = random_rhs(square_grid, 10)
        cfg = SolverConfig(p=3.0)
        v = solve_step(f, cfg)
        tol = cfg.resolved_tol(float(np.abs(f.values).max()))
        res = functional_gradient(v, f, 3.0).values
        assert float(np.abs(res).max()) <= 10 * tol


class TestFailureModes:
    def test_budget_exhausted_raises(self, small_interval):
        f = random_rhs(small_interval, 11)
        cfg = SolverConfig(p=3.0, max_inner_iters=2)
        with pytest.raises(NonConvergence) as exc_info:
            solve_step(f, cfg)
        exc = exc_info.value
        assert exc.best is not None
        assert exc.residual > exc.tol

    def test_unreachable_tolerance_raises(self, small_interval):
        f = random_rhs(small_interval, 12)
        cfg = SolverConfig(p=3.0, tol_grad=1e-30)
        with pytest.raises(NonConvergence) as exc_info:
            solve_step(f, cfg)
        # the 300-iteration no-progress floor ends it, not the 200,000 cap
        assert exc_info.value.iterations <= 1000

    def test_nan_gradient_raises(self):
        # from the zero start every cell is flat, so at p < 2 and eps = 0
        # the weights 0^(p/2-1) are infinite and the gradient is NaN
        g = build_grid(Rectangle(0.0, 1.0, 0.0, 1.0), 8)
        f = GridFunction.constant(g, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(NonConvergence) as exc_info:
                solve_step_with_stats(
                    f, SolverConfig(p=1.5, eps_schedule=(0.0,)))
            assert exc_info.value.iterations == 0
            for schedule in [(0.01, 0.0), None]:
                cfg = SolverConfig(p=1.5, eps_schedule=schedule)
                v, iters = solve_step_with_stats(f, cfg)
                eps = cfg.resolved_eps(g.h)[-1]
                res = functional_gradient(v, f, 1.5, eps).values
                assert iters > 0
                assert float(np.abs(res).max()) <= 10 * cfg.resolved_tol(1.0)

    def test_budget_exhausted_before_last_stage(self):
        # p < 2 runs an eps continuation; the budget runs out in its first
        # stage, the later stages only evaluate their start, and the solve
        # reports the last iterate on its grid against the target tolerance
        g = build_grid(Interval(0.0, 1.0), 15)
        cfg = SolverConfig(p=1.5, max_inner_iters=3)
        with pytest.raises(NonConvergence) as exc_info:
            solve_step_with_stats(GridFunction.constant(g, 1.0), cfg)
        exc = exc_info.value
        assert isinstance(exc.best, GridFunction) and exc.best.grid is g
        assert exc.iterations == 3
        assert exc.tol == cfg.resolved_tol(1.0)
        assert exc.tol < exc.residual < math.inf
