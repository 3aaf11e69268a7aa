import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pground.calculus import (DegenerateFunction, GridFunction, _energy,
                              _nodal_gradient, _quotient, _report_logs,
                              p_norm_pow, rayleigh_quotient)
from pground.geometry import Interval, Rectangle, build_grid
from pground.oracles import dirichlet_laplacian_matrix

from conftest import hat_function


class TestGridFunction:
    def test_rejects_wrong_shape(self, interval_grid):
        with pytest.raises(ValueError):
            GridFunction(interval_grid, np.zeros(5))

    def test_rejects_boundary_values(self, interval_grid):
        vals = np.zeros(interval_grid.shape)
        vals[0] = 1.0
        with pytest.raises(ValueError):
            GridFunction(interval_grid, vals)

    def test_rejects_nan(self, interval_grid):
        vals = np.zeros(interval_grid.shape)
        vals[5] = math.nan
        with pytest.raises(ValueError):
            GridFunction(interval_grid, vals)

    def test_values_read_only(self, interval_grid):
        u = GridFunction.constant(interval_grid, 2.0)
        with pytest.raises(ValueError):
            u.values[3] = 7.0

    def test_from_interior_round_trip(self, square_grid):
        z = np.arange(square_grid.num_interior, dtype=float)
        u = GridFunction.from_interior(square_grid, z)
        assert np.array_equal(u.values[square_grid.interior], z)
        assert np.all(u.values[~square_grid.interior] == 0.0)

    def test_scaled(self, interval_grid):
        u = hat_function(interval_grid)
        assert np.allclose(u.scaled(-3.0).values, -3.0 * u.values)


class TestHatClosedForms:
    """The piecewise-linear peak is exactly representable, so its cell
    gradients are exactly +-2 and the p-Dirichlet energy is exactly 2^p."""

    def test_gradient_values(self, interval_grid):
        u = hat_function(interval_grid)
        c = interval_grid.apply_G(u.values[interval_grid.interior])
        assert np.allclose(np.abs(c), 2.0)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 6.0, 64.0])
    def test_dirichlet_energy(self, interval_grid, p):
        x = hat_function(interval_grid).values[interval_grid.interior]
        report = _report_logs(interval_grid, x, p)[0]
        assert report.dirichlet_p == pytest.approx(2.0 ** p, rel=1e-13)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 6.0])
    def test_p_norm_refinement(self, p):
        # integral of the hat to the p-th power is 1/(p+1)
        exact = (1.0 / (p + 1.0)) ** (1.0 / p)
        errs = []
        for n in (31, 63, 127):
            g = build_grid(Interval(0.0, 1.0), n)
            errs.append(abs(p_norm_pow(hat_function(g), p) ** (1.0 / p)
                            - exact))
        assert errs[0] < 0.01
        assert errs[2] < errs[0]

    def test_rayleigh_refinement_p2(self):
        # continuum quotient of the hat: 4 / (1/3) = 12
        errs = []
        for n in (31, 63, 127):
            g = build_grid(Interval(0.0, 1.0), n)
            errs.append(abs(rayleigh_quotient(hat_function(g), 2.0) - 12.0))
        assert errs[0] < 0.2
        assert errs[2] < errs[0]

    def test_sup_norms(self, interval_grid):
        x = hat_function(interval_grid).values[interval_grid.interior]
        report = _report_logs(interval_grid, x, 2.0)[0]
        assert report.sup_norm == pytest.approx(1.0)
        assert report.grad_sup == pytest.approx(2.0)


class TestScaleBehavior:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000),
           p=st.floats(1.1, 12.0),
           c=st.floats(1e-4, 1e4))
    def test_homogeneity(self, seed, p, c):
        g = build_grid(Interval(0.0, 1.0), 15)
        rng = np.random.default_rng(seed)
        u = GridFunction.from_interior(g, rng.standard_normal(g.num_interior))
        R = rayleigh_quotient(u, p)
        Rc = rayleigh_quotient(u.scaled(c), p)
        assert abs(Rc - R) <= 1e-12 * abs(R)
        x = u.values[g.interior]
        assert _report_logs(g, c * x, p)[0].dirichlet_p == pytest.approx(
            c ** p * _report_logs(g, x, p)[0].dirichlet_p, rel=1e-10)
        assert p_norm_pow(u.scaled(c), p) == pytest.approx(
            c ** p * p_norm_pow(u, p), rel=1e-10)

    def test_sign_flip_exact(self, interval_grid):
        rng = np.random.default_rng(3)
        u = GridFunction.from_interior(
            interval_grid, rng.standard_normal(interval_grid.num_interior))
        for p in (1.5, 2.0, 6.0):
            assert rayleigh_quotient(u.scaled(-1.0), p) == \
                rayleigh_quotient(u, p)

    def test_zero_function_degenerate(self, interval_grid):
        zero = GridFunction(interval_grid, np.zeros(interval_grid.shape))
        with pytest.raises(DegenerateFunction):
            rayleigh_quotient(zero, 2.0)

    def test_large_p_stays_finite(self, interval_grid):
        u = hat_function(interval_grid).scaled(10.0)
        R = rayleigh_quotient(u, 200.0)
        assert math.isfinite(R) and R > 0
        # sup of the gradient is 20, sup of the values is 10; for huge p the
        # quotient approaches (20/10)^200 in the leading factor, way past
        # double range for the raw sums but fine for the quotient
        assert math.log(R) == pytest.approx(200.0 * math.log(2.0), rel=0.05)

    @pytest.mark.parametrize("p", [1.5, 3.0, 64.0, 200.0])
    def test_report_and_quotient_share_one_gradient(self, square_grid, p):
        # one log-sum per p-integral serves the report and the quotient,
        # bit for bit, from the interior vector
        rng = np.random.default_rng(5)
        x = rng.standard_normal(square_grid.num_interior)
        u = GridFunction.from_interior(square_grid, x)
        report, *logs = _report_logs(square_grid, x, p)
        R = _quotient(*logs)
        assert repr(R) == repr(rayleigh_quotient(u, p))
        c = square_grid.apply_G(x).reshape(2, -1)
        assert report.grad_sup == np.sqrt((c * c).sum(0).max())
        assert report.sup_norm == np.abs(u.values).max()
        if p < 64:
            assert R == pytest.approx(report.dirichlet_p / report.norm_p,
                                      rel=1e-13)
        zero = np.zeros(square_grid.num_interior)
        with pytest.raises(DegenerateFunction):
            _quotient(*_report_logs(square_grid, zero, p)[1:])

    def test_report_and_quotient_steep(self, square_grid):
        # the energy is past double range, the quotient is not
        rng = np.random.default_rng(7)
        x = 1e5 * rng.standard_normal(square_grid.num_interior)
        u = GridFunction.from_interior(square_grid, x)
        report, *logs = _report_logs(square_grid, x, 64.0)
        R = _quotient(*logs)
        assert repr(R) == repr(rayleigh_quotient(u, 64.0))
        assert report.dirichlet_p == math.inf and math.isfinite(R)

    def test_p_at_most_one_rejected(self, interval_grid):
        u = hat_function(interval_grid)
        with pytest.raises(ValueError):
            _report_logs(interval_grid, u.values[interval_grid.interior], 1.0)
        with pytest.raises(ValueError):
            rayleigh_quotient(u, 0.5)


class TestObjective:
    def test_quadratic_gradient_matches_stencil(self, square_grid):
        """At p = 2 the objective gradient is h^d (A v - f) with A the
        standard 5-point Dirichlet Laplacian."""
        g = square_grid
        rng = np.random.default_rng(7)
        x = rng.standard_normal(g.num_interior)
        f = rng.standard_normal(g.num_interior)
        A = dirichlet_laplacian_matrix(g)
        expected = (A @ x - f) * g.h ** 2
        fh = f * g.h ** 2
        _, c, w = _energy(g, x, fh, 2.0, 0.0)
        got = _nodal_gradient(g, c, w, fh)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), p=st.floats(1.5, 6.0),
           two_d=st.booleans())
    def test_gradient_matches_finite_differences(self, seed, p, two_d):
        spec = Rectangle(0.0, 1.0, 0.0, 1.0) if two_d else Interval(0.0, 1.0)
        g = build_grid(spec, 5)
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, g.num_interior)
        fh = rng.uniform(-1, 1, g.num_interior) * g.h ** g.dim
        eps = 0.05 if p < 2 else 0.0
        _, c, w = _energy(g, x, fh, p, eps)
        grad = _nodal_gradient(g, c, w, fh)
        step = 1e-6
        for i in range(g.num_interior):
            xp = x.copy()
            xm = x.copy()
            xp[i] += step
            xm[i] -= step
            fd = (_energy(g, xp, fh, p, eps)[0]
                  - _energy(g, xm, fh, p, eps)[0]) / (2 * step)
            assert abs(grad[i] - fd) <= 1e-5 * max(1.0, abs(fd))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), p=st.floats(1.5, 8.0),
           theta=st.floats(0.0, 1.0))
    def test_objective_convex(self, seed, p, theta):
        g = build_grid(Interval(0.0, 1.0), 9)
        rng = np.random.default_rng(seed)
        a = rng.uniform(-2, 2, g.num_interior)
        b = rng.uniform(-2, 2, g.num_interior)
        fh = rng.uniform(-1, 1, g.num_interior) * g.h
        eps = g.h ** 2 if p < 2 else 0.0
        lhs = _energy(g, theta * a + (1 - theta) * b, fh, p, eps)[0]
        rhs = (theta * _energy(g, a, fh, p, eps)[0]
               + (1 - theta) * _energy(g, b, fh, p, eps)[0])
        assert lhs <= rhs + 1e-12 * max(1.0, abs(rhs))

    def test_discrete_poincare(self, interval_grid):
        """On the unit interval the discrete quotient at p = 2 is bounded
        below by the smallest stencil eigenvalue, which exceeds 8."""
        rng = np.random.default_rng(11)
        for _ in range(20):
            u = GridFunction.from_interior(
                interval_grid,
                rng.standard_normal(interval_grid.num_interior))
            assert rayleigh_quotient(u, 2.0) > 8.0
