"""Inner variational solve: minimize the strictly convex objective
(1/p) integral (|grad v|^2 + eps^2)^(p/2) - integral f v over zero-trace
functions.

Method: spectral (Barzilai-Borwein stepped) gradient descent with Armijo
backtracking on the interior node values, preconditioned by the
lagged-diffusivity operator G^T diag(w) G (Huang, Li & Liu, J. Sci. Comput.
2007).  The grid owns G, the operator's sparse pattern and scatter, and the
factored p=2 operator G^T G, each built once per grid and collected with it.
One calculus kernel per trial point, `_energy`, returns the objective with
the cell gradients and weights it was computed from, which the gradient
(`_nodal_gradient`) and the next re-lag reuse.
Below the objective's floating-point resolution a step is accepted by the
derivative form of the Armijo condition (Hager & Zhang, SIAM J. Optim.
2005).  Both SPD preconditioners, this one and the p=2 Laplacian, are
factored by SuperLU with a minimum-degree ordering of A^T + A and no
pivoting (X. S. Li, ACM TOMS 2005).  For p < 2 the integrand is regularized
and eps is driven down a short continuation schedule so the final solve
sees the target smoothness h^2.

One stopping rule: each eps stage descends to its gradient tolerance (100
tol before the last stage) unless a floor ends it first, and hands its last
iterate on; the solve raises NonConvergence at one place, when the last
stage ends above tol.  The floors are listed with `_descend`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from scipy import sparse
from scipy.sparse.linalg import splu

from .calculus import GridFunction, _energy, _nodal_gradient
from .geometry import Grid


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


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for one inner solve.

    tol_grad is the absolute stopping threshold on the sup-norm of the
    objective gradient; when None it defaults to 1e-10 * max(1, sup|f|),
    which keeps the test invariant under rescaling of the right-hand side.
    eps_schedule None means: no regularization for p >= 2, and a quarter-ratio
    continuation from 16 h^2 down to h^2 / 4096 for p < 2.  Stopping the
    continuation at h^2 leaves a measurable bias in the converged Rayleigh
    quotient (relative 4e-5 at h = 1/32, p = 1.5); the longer tail removes it
    and the late stages are cheap because each starts at the previous
    minimizer.
    """

    p: float
    tol_grad: float | None = None
    max_inner_iters: int = 200_000
    eps_schedule: tuple | None = None
    armijo_c: float = 1e-4
    backtrack: float = 0.5

    def __post_init__(self):
        if not self.p > 1:
            raise ValueError(f"p must exceed 1, got {self.p}")
        if self.tol_grad is not None and not self.tol_grad > 0:
            raise ValueError("tol_grad must be positive")
        if not self.max_inner_iters >= 1:
            raise ValueError(
                f"max_inner_iters must be at least 1, got "
                f"{self.max_inner_iters}")
        if self.eps_schedule is not None:
            sched = tuple(float(e) for e in self.eps_schedule)
            if not sched:
                raise ValueError("eps schedule must not be empty")
            if any(e < 0 for e in sched):
                raise ValueError("eps entries must be nonnegative")
            if any(a < b for a, b in zip(sched, sched[1:])):
                raise ValueError("eps schedule must be nonincreasing")
            object.__setattr__(self, "eps_schedule", sched)

    def resolved_tol(self, f_sup: float) -> float:
        if self.tol_grad is not None:
            return self.tol_grad
        return 1e-10 * max(1.0, f_sup)

    def resolved_eps(self, h: float) -> tuple:
        if self.eps_schedule is not None:
            return self.eps_schedule
        if self.p >= 2:
            return (0.0,)
        e = h * h
        return tuple(16 * e * 0.25 ** k for k in range(9))


def signed_power(u: GridFunction, p: float) -> GridFunction:
    """Nodewise |u|^(p-2) u, with 0 mapped to 0."""
    if not p > 1:
        raise ValueError(f"p must exceed 1, got {p}")
    a = np.abs(u.values)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(a > 0, a ** (p - 2) * u.values, 0.0)
    return GridFunction(u.grid, out)


def solve_step(f: GridFunction, cfg: SolverConfig,
               initial: GridFunction | None = None,
               verbose: bool = False) -> GridFunction:
    """Minimizer of the inner objective for right-hand side f."""
    v, _ = solve_step_with_stats(f, cfg, initial=initial, verbose=verbose)
    return v


def solve_step_with_stats(f: GridFunction, cfg: SolverConfig,
                          initial: GridFunction | None = None,
                          verbose: bool = False):
    """Like solve_step but also returns the total inner iteration count.

    Every eps stage runs, each from the previous stage's last iterate and
    with what is left of max_inner_iters; NonConvergence, carrying the last
    iterate, is raised when the last stage ends above the tolerance."""
    grid = f.grid
    f_sup = float(np.abs(f.values).max(initial=0.0))
    tol = cfg.resolved_tol(f_sup)
    eps_stages = cfg.resolved_eps(grid.h)
    fh = f.values[grid.interior] * grid.h ** grid.dim
    x = (np.zeros(grid.num_interior) if initial is None
         else initial.values[grid.interior])
    total_iters = 0
    for stage, eps in enumerate(eps_stages):
        stage_tol = tol if stage == len(eps_stages) - 1 else 100 * tol
        x, used, residual = _descend(grid, x, fh, cfg, eps, stage_tol,
                                     cfg.max_inner_iters - total_iters,
                                     verbose)
        total_iters += used
    v = GridFunction.from_interior(grid, x)
    if not residual <= tol:
        raise NonConvergence(residual, tol, total_iters, v)
    return v, total_iters


def factorized(A):
    """Solve callable for the sparse SPD matrix A (the p=2 Laplacian or the
    lagged-diffusivity operator G^T diag(w) G with w > 0).

    SuperLU with a minimum-degree ordering of A^T + A and the diagonal taken
    as pivot throughout, as SuperLU recommends for a symmetric pattern with a
    stable diagonal (X. S. Li, ACM TOMS 2005).  A is symmetric positive
    definite, so symmetrically permuted LU without pivoting is stable, and
    the symmetric ordering keeps about half the fill of the general-matrix
    COLAMD ordering."""
    return splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True}).solve


def _lagged_solver(grid: Grid, w: np.ndarray):
    """Factorized solve with the lagged-diffusivity operator G^T diag(w) G,
    w floored at 1e-10 max(w) to keep it positive definite where the gradient
    vanishes (the p=2 stencil if max(w) is not finite)."""
    wmax = float(w.max()) if w.size else 1.0
    if not (wmax > 0 and math.isfinite(wmax)):
        return grid.laplacian_solve
    S, indices, indptr = grid.weighted_assembly
    A = sparse.csc_matrix((S @ np.maximum(w, 1e-10 * wmax), indices, indptr),
                          shape=(indptr.size - 1,) * 2)
    return factorized(A)


def _descend(grid: Grid, x: np.ndarray, fh: np.ndarray, cfg: SolverConfig,
             eps: float, tol: float, budget: int, verbose: bool):
    """Monotone preconditioned descent with BB step scaling from the
    interior vector x; fh is f h^d on the interior nodes.  Returns
    (x, iterations, residual) where it stopped, the residual being the
    gradient sup-norm there; it never raises.

    The loop runs while tol < residual < inf, fewer than `budget`
    iterations are spent and some iteration of the last 300 made
    measurable progress (the gradient sup-norm fell below 0.99 of its best
    or the objective by 1e-12 relative); it also stops when the line search
    finds no acceptable step.  All exits but the tolerance are floors.

    The direction is the inverse lagged-diffusivity operator (the p=2
    stencil when p == 2) applied to the gradient, factored at the current
    iterate's weights on the first iteration and every 20 after.  A trial
    point costs one `_energy` call; the gradient is formed from its (c, w)
    only at the accepted trial and at trials below the resolution floor.

    A trial step x - t d is accepted by the Armijo test J(x - t d) <= J(x) -
    c t g.d while that decrease is resolvable (above 1e-15 |J|); below it,
    by nonincrease within that floor together with the derivative form of
    the Armijo condition, phi'(t) <= (2c - 1) phi'(0) for phi(t) =
    J(x - t d), the approximate Wolfe test of Hager & Zhang, which costs
    only the dot product of the trial gradient the step needs anyway."""
    p = cfg.p
    hd = grid.h ** grid.dim
    J, c, w = _energy(grid, x, fh, p, eps)
    g = _nodal_gradient(grid, c, w, fh)
    gsup = float(np.abs(g).max())
    precond = None
    it = last_gain = since_refresh = 0
    best_gsup, mark_J = gsup, J
    while tol < gsup < math.inf and it < budget and it - last_gain <= 300:
        if precond is None or (p != 2 and since_refresh >= 20):
            # (re-)lag at the current weights (the old factor is released
            # first so two never coexist); the new metric resets BB history,
            # and 1/h^d is the exact first step for p=2
            precond = None
            precond = grid.laplacian_solve if p == 2 \
                else _lagged_solver(grid, w)
            prev = None  # (t, g, d) of the last accepted step
            t = 1.0 / hd
            since_refresh = 0
        d = precond(g)
        if prev is not None:
            t_old, g_old, d_old = prev
            s_y = t_old * float(np.dot(d_old, g_old - g))
            if s_y > 0:
                # BB1 in the preconditioned metric: s.P^{-1}s / s.y
                t = t_old * t_old * float(np.dot(g_old, d_old)) / s_y
            else:
                t = 2.0 * t_old
        slope = float(np.dot(g, d))  # directional derivative along -d
        floor = 1e-15 * max(1.0, abs(J))  # resolvable objective decrease
        accepted = False
        trial_g = None
        for _ in range(80):
            trial = x - t * d
            Jt, ct, wt = _energy(grid, trial, fh, p, eps)
            decrease = cfg.armijo_c * t * slope
            if decrease > floor:
                if Jt <= J - decrease:
                    accepted = True
                    break
            else:
                # objective differences are below floating-point resolution;
                # test the Armijo condition in its derivative form instead
                # (Hager & Zhang's approximate Wolfe test, exact for a
                # quadratic); the nonincrease invariant holds to within the
                # 1e-14 slack it is stated with
                trial_g = _nodal_gradient(grid, ct, wt, fh)
                if (Jt <= J + floor and float(np.dot(trial_g, d))
                        >= -(1.0 - 2.0 * cfg.armijo_c) * slope):
                    accepted = True
                    break
            t *= cfg.backtrack
        if not accepted:
            break  # at the numerical floor for this eps
        prev = (t, g, d)
        x, J, w = trial, min(Jt, J), wt
        g = _nodal_gradient(grid, ct, wt, fh) if trial_g is None else trial_g
        gsup = float(np.abs(g).max())
        it += 1
        since_refresh += 1
        if gsup < 0.99 * best_gsup or J < mark_J - 1e-12 * max(1.0, abs(J)):
            last_gain, mark_J = it, J
        best_gsup = min(best_gsup, gsup)
        if verbose and it % 1000 == 0:
            print(f"    inner iter {it}: J={J:.12e} grad_sup={gsup:.3e}",
                  file=sys.stderr)
    return x, it, gsup
