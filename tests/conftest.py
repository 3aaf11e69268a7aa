import numpy as np
import pytest

from pground.geometry import (Interval, MaskDomain, Rectangle, build_grid,
                              shared_grid)


@pytest.fixture(autouse=True)
def no_shared_grids():
    """Each test starts without the grids that the solver entry points
    share per (spec, n), so that a test counting factorizations or
    sine-transform builds sees a new grid, whichever tests ran before."""
    shared_grid.cache_clear()


@pytest.fixture
def interval_grid():
    return build_grid(Interval(0.0, 1.0), 31)


@pytest.fixture
def square_grid():
    return build_grid(Rectangle(0.0, 1.0, 0.0, 1.0), 16)


# `l_mask` in the mask-file format: the top file row is the top of the
# domain
L_MASK_TEXT = "2 2 0.5\n#.\n##\n"


@pytest.fixture
def l_mask():
    """Unit square minus its upper-right quadrant, 2x2 coarse cells."""
    cells = np.array([[True, True], [True, False]])
    return MaskDomain(width=2, height=2, cells=cells, cell_size=0.5)


def hat_function(grid):
    """Piecewise-linear peak of height 1 at the midpoint of (0, 1)."""
    from pground.calculus import GridFunction
    x = grid.node_coords()
    vals = np.maximum(0.0, 1.0 - 2.0 * np.abs(x - 0.5))
    vals[~grid.interior] = 0.0
    return GridFunction(grid, vals)


def loop_gradient_field(grid, values):
    """Per-cell gradient by an explicit loop over the domain's cells, laid
    out on the full cell grid: the forward difference (v[i+1] - v[i]) / h
    in 1D, the forward differences along the two edges at the cell's
    lower-left corner in 2D, as the last axis; zero on cells outside the
    domain."""
    out = np.zeros(grid.cell_mask.shape + ((2,) if grid.dim == 2 else ()))
    for cell in zip(*np.nonzero(grid.cell_mask)):
        for k in range(grid.dim):
            nb = tuple(i + (d == k) for d, i in enumerate(cell))
            out[cell + ((k,) if grid.dim == 2 else ())] = \
                (values[nb] - values[cell]) / grid.h
    return out


def loop_objective(grid, values, f, p, eps):
    """(J, gradient) of the inner objective
    sum over cells of (1/p)(|grad v|^2 + eps^2)^(p/2) h^d - sum of f v h^d,
    by an explicit loop over cells; the gradient is a node array, zero off
    the interior."""
    hd = grid.h ** grid.dim
    J = -float(np.sum(f * values)) * hd
    grad = -f * hd
    cells = loop_gradient_field(grid, values)
    for cell in zip(*np.nonzero(grid.cell_mask)):
        c = np.atleast_1d(cells[cell])
        a = float(c @ c) + eps * eps
        J += a ** (p / 2) / p * hd
        # component k is (v[nb] - v[cell]) / h, so it pulls on both nodes
        flux = a ** (p / 2 - 1) * c * hd / grid.h
        for k in range(grid.dim):
            nb = tuple(i + (d == k) for d, i in enumerate(cell))
            grad[cell] -= flux[k]
            grad[nb] += flux[k]
    grad[~grid.interior] = 0.0
    return J, grad
