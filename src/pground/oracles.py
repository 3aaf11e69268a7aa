"""Independent reference computations used to validate the iteration.

Three routes, each avoiding the inverse-iteration code path:
  * smallest eigenpair of the linear (p=2) stencil by shift-invert Lanczos
    (ARPACK about the shift 0), dense-checked on small grids;
  * a 1D shooting method for general p, bisecting the eigenvalue until the
    first zero of the ODE solution lands on the right endpoint;
  * brute-force multistart minimization of the discrete Rayleigh quotient on
    tiny grids.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import eigsh

from .calculus import (GridFunction, _energy, _nodal_gradient, p_norm_pow,
                       rayleigh_quotient)
from .geometry import DomainSpec, Grid, build_grid


class SizeExceeded(ValueError):
    """Grid too large for the requested dense/direct code path."""


class BracketFailure(RuntimeError):
    """The shooting oracle found no bracket of the first eigenvalue."""


def dirichlet_laplacian_matrix(grid: Grid) -> sparse.csc_matrix:
    """Standard 3/5-point Dirichlet Laplacian (divided by h^2) on the interior
    nodes: the operator G^T G the quadratic (p=2) energy induces, built here
    from the stencil alone as an independent reference for it."""
    idx = -np.ones(grid.shape, dtype=np.int64)
    n = grid.num_interior
    idx[grid.interior] = np.arange(n)
    h2 = grid.h * grid.h
    rows, cols, vals = [], [], []
    rows.append(np.arange(n))
    cols.append(np.arange(n))
    vals.append(np.full(n, 2 * grid.dim / h2))
    if grid.dim == 1:
        shifts = [(1,), (-1,)]
    else:
        shifts = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    for sh in shifts:
        here = idx[grid.interior]
        nb = np.roll(idx, [-s for s in sh], axis=tuple(range(grid.dim)))
        nb = nb[grid.interior]
        ok = nb >= 0
        rows.append(here[ok])
        cols.append(nb[ok])
        vals.append(np.full(int(ok.sum()), -1.0 / h2))
    A = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    return A.tocsc()


def lambda2_reference(spec: DomainSpec, n: int) -> tuple[float, GridFunction]:
    """Smallest eigenvalue and (positive, unit L^2) eigenvector of the
    discrete Dirichlet Laplacian on a new grid for (spec, n)."""
    grid = build_grid(spec, n)
    m = grid.num_interior
    if m > 20_000:
        raise SizeExceeded(f"{m} interior nodes exceeds the dense-path cap")
    A = dirichlet_laplacian_matrix(grid)

    # shift-invert about 0 finds the smallest: A is positive definite
    v0 = np.random.default_rng(12345).standard_normal(m)
    vals, vecs = eigsh(A, k=1, sigma=0.0, v0=v0)
    lam, x = float(vals[0]), vecs[:, 0]
    if m <= 400:
        dense_vals = np.linalg.eigvalsh(A.toarray())
        if abs(dense_vals[0] - lam) > 1e-9 * max(1.0, abs(lam)):
            raise AssertionError(
                f"shift-invert {lam} disagrees with dense {dense_vals[0]}")
    if x.sum() < 0:
        x = -x
    vec = GridFunction.from_interior(grid, x)
    vec = vec.scaled(1.0 / p_norm_pow(vec, 2.0) ** 0.5)
    return lam, vec


def _first_zero(p: float, lam: float, x_end: float = 3.0):
    """Location of the first positive zero of the 1D eigenfunction ODE started
    with unit conjugate variable, or None if no zero before x_end.

    The system is integrated in (u, s) with s the (p-1)-power of u'; s is
    smooth through critical points of u even for p < 2.
    """
    # loaded here, off the solve path: `import pground` leaves
    # scipy.integrate out
    from scipy.integrate import solve_ivp
    q = p / (p - 1)

    def rhs(x, z):
        u, s = z
        du = math.copysign(abs(s) ** (q - 1), s) if s != 0 else 0.0
        ds = -lam * (math.copysign(abs(u) ** (p - 1), u) if u != 0 else 0.0)
        return [du, ds]

    def hit_zero(x, z):
        return z[0]
    hit_zero.terminal = True
    hit_zero.direction = -1

    sol = solve_ivp(rhs, (0.0, x_end), [0.0, 1.0], events=hit_zero,
                    rtol=1e-12, atol=1e-14, dense_output=True, max_step=0.01)
    if sol.t_events[0].size:
        return float(sol.t_events[0][0]), sol
    return None, sol


def lambda_p_shooting_1d(p: float, tol: float = 1e-10) -> float:
    """First Dirichlet eigenvalue of the 1D p-Laplacian on (0, 1) by shooting
    and bisection on the eigenvalue."""
    if not 1 < p < math.inf:
        raise ValueError(f"p must be finite and exceed 1, got {p}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    lo, hi = None, None
    # lambda_p = (p - 1) pi_p^p with pi_p > 2 falling to 2, so 2^p starts
    # the doubling below lambda_p and within a few steps of it at large p
    # (doubling from pi^2 failed to bracket lambda_200 = 3.2e62 in 200
    # steps); below p = 3.3, pi^2 is the larger start
    try:
        lam = max(math.pi ** 2, 2.0 ** p)
    except OverflowError:
        lam = math.inf
    for _ in range(200):
        if not lam < math.inf:
            raise BracketFailure(f"shooting failed to bracket the first "
                                 f"eigenvalue at p={p}: it exceeds the "
                                 f"float range")
        z, _ = _first_zero(p, lam)
        if z is None or z > 1.0:
            lo = lam
            if hi is not None:
                break
            lam *= 2.0
        else:
            hi = lam
            if lo is not None:
                break
            lam *= 0.5
    if lo is None or hi is None:
        raise BracketFailure(f"shooting failed to bracket the first "
                             f"eigenvalue at p={p}")
    while (hi - lo) > tol * lo:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # adjacent doubles: a tol below their spacing
            break
        z, _ = _first_zero(p, mid)
        if z is None or z > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def rayleigh_bruteforce(spec: DomainSpec, n: int, p: float,
                        restarts: int = 64, seed: int = 0) -> float:
    """Global minimum of the discrete Rayleigh quotient on a tiny grid by
    multistart local minimization over random sign patterns."""
    if not restarts >= 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    # loaded here, off the solve path: `import pground` leaves
    # scipy.optimize out
    from scipy.optimize import minimize
    grid = build_grid(spec, n)
    m = grid.num_interior
    if m > 12:
        raise SizeExceeded(f"{m} interior nodes exceeds the brute-force cap")
    hd = grid.h ** grid.dim
    zero_rhs = np.zeros(m)

    def quotient_and_grad(z):
        u = GridFunction.from_interior(grid, z)
        E = rayleigh_quotient(u, p)  # raises on the zero function
        Np = p_norm_pow(u, p)
        # dE_total = p * gradient of (1/p) Dirichlet energy
        _, c, w = _energy(grid, z, zero_rhs, p, 0.0)
        dE = p * _nodal_gradient(grid, c, w, zero_rhs)
        dNp = p * np.abs(z) ** (p - 2) * z * hd
        dR = (dE - E * dNp) / Np
        return E, dR

    rng = np.random.default_rng(seed)
    best = math.inf
    for _ in range(restarts):
        z0 = rng.standard_normal(m)
        z0 *= rng.choice([-1.0, 1.0])
        res = minimize(quotient_and_grad, z0, jac=True, method="L-BFGS-B",
                       options={"maxiter": 2000, "ftol": 1e-16, "gtol": 1e-12})
        if res.fun < best:
            best = float(res.fun)
    return best
