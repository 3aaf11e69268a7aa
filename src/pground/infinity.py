"""Large-p diagnostics: the p-th root of the smallest Rayleigh quotient
against the reciprocal inradius, and the sup-norm ratio sequences that
characterize the infinity-Laplacian ground-state limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import GridFunction, _report_logs
from .geometry import DomainSpec, inradius, shared_grid
from .inner import NonConvergence
from .iteration import (Custom, IterationTrace, PositiveConstant,
                        inverse_iterate)


@dataclass(frozen=True)
class SweepEntry:
    p: float
    lambda_R: float
    lambda_root: float              # lambda_R ** (1/p)
    final_ratio: float              # grad_sup / sup_norm at the last step
    converged: bool
    predicted: bool                 # started from the extrapolation in 1/p


@dataclass(frozen=True)
class SweepResult:
    entries: tuple
    inradius_reciprocal: float
    traces: tuple = field(repr=False, default=())


def sweep(spec: DomainSpec, n: int, p_list, K_max: int = 200,
          tol_outer: float = 1e-8) -> SweepResult:
    """Run the inverse iteration for each exponent in p_list and collect
    the limit diagnostics.  Every exponent must satisfy 2 < p < inf, and
    the list must be strictly increasing (ValueError before any solve
    otherwise).  The first exponent starts from the positive constant, each
    later one (continuation in p) from the final iterate of the last
    exponent that converged, or, from the third on, from the extrapolation
    in 1/p of the last two or three converged finals where that has the
    lower Rayleigh quotient at the new p (`_continued_start`; the entry's
    `predicted`).  On the square n=64 over p = 4..64 the prediction cut the
    inner iterations from 601 to 426 (square n=128: 605 to 469); on the
    L-shape and 2x1 rectangle sweeps the quotient test kept the last final
    at every point.  A point whose solve raises NonConvergence, or
    OverflowError where a quantity exceeds the float range (from about
    p = 1024 on), is recorded as not converged, with NaN values and trace
    None, and enters no later start.  The default K_max of 200 outer
    steps lets large-p points converge where R contracts slowly: on the
    L-shape n=32 at p=64 by about 0.83 a step, converging at step 117.
    Every point runs on the process's grid for (spec, n)
    (`inverse_iterate`)."""
    p_list = tuple(float(p) for p in p_list)
    for p in p_list:
        if not 2 < p < math.inf:
            raise ValueError(f"p must be finite and exceed 2 in a sweep, "
                             f"got {p}")
    if list(p_list) != sorted(set(p_list)):
        raise ValueError("p_list must be strictly increasing")
    rho = 1.0 / inradius(spec, shared_grid(spec, n))
    entries, traces = [], []
    finals = []                     # (p, final) of the converged points
    for p in p_list:
        init, predicted = _continued_start(finals[-3:], p)
        try:
            tr = inverse_iterate(spec, n, p, init, K_max=K_max,
                                 tol_outer=tol_outer)
            if tr.converged:
                finals.append((p, tr.final))
            last = tr.steps[-1].report
            entries.append(SweepEntry(
                p=p, lambda_R=tr.lambda_R,
                lambda_root=math.exp(math.log(tr.lambda_R) / p),
                final_ratio=last.grad_sup / last.sup_norm,
                converged=tr.converged, predicted=predicted))
            traces.append(tr)
        except (NonConvergence, OverflowError):
            entries.append(SweepEntry(p=p, lambda_R=math.nan,
                                      lambda_root=math.nan,
                                      final_ratio=math.nan, converged=False,
                                      predicted=predicted))
            traces.append(None)
    return SweepResult(entries=tuple(entries),
                       inradius_reciprocal=rho, traces=tuple(traces))


def _continued_start(finals, p: float):
    """(init, predicted) for exponent p from the (p, final) pairs of the
    last converged points, oldest first: the positive constant for none,
    the last final for one.  For two or three, the Lagrange polynomial in
    1/p through them (natural-parameter continuation; Allgower & Georg,
    Introduction to Numerical Continuation Methods, SIAM 2003, ch. 2),
    clipped at 0, is the start where its Rayleigh quotient at p, the
    quantity the iteration decreases, is below the last final's; else the
    last final is.  The quotients are compared in logs, since they overflow
    near p = 1000.  Unguarded, the prediction took the L-shape n=72 point
    at p=128 from 386 to 1,359 inner iterations, raising its R_0 from
    1.8e70 to 3.1e86."""
    if not finals:
        return PositiveConstant(), False
    last = finals[-1][1]
    if len(finals) < 2:
        return Custom(last), False
    grid = last.grid
    t = [1.0 / q for q, _ in finals]
    pred = np.zeros(grid.num_interior)
    for j, (_, u) in enumerate(finals):
        weight = math.prod((1.0 / p - tk) / (t[j] - tk)
                           for k, tk in enumerate(t) if k != j)
        pred += weight * u.values[grid.interior]
    np.maximum(pred, 0.0, out=pred)
    if np.all(np.isfinite(pred)) and pred.any():
        log_grad, log_norm = _report_logs(grid, pred, p)[1:]
        last_grad, last_norm = _report_logs(
            grid, last.values[grid.interior], p)[1:]
        if log_grad - log_norm < last_grad - last_norm:
            return Custom(GridFunction.from_interior(grid, pred)), True
    return Custom(last), False


@dataclass(frozen=True)
class SupnormCheck:
    status: str          # "pass", "fail", or "skipped"
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"


# per-step relative growth the sup-norm sequences may show, for the
# finite-p deviation from the infinity limit
STEP_SLACK = 0.05


def monotone_supnorm_check(trace: IterationTrace,
                           lambda_inf_est: float) -> SupnormCheck:
    """On a large-p trace, check that the un-normalized sup norms of the
    iterates and of their gradients, scaled by powers of the estimated
    infinity eigenvalue, are nonincreasing (to STEP_SLACK per step), and
    that their ratio stabilizes."""
    if trace.p < 32:
        return SupnormCheck(
            "skipped", f"p={trace.p} is below the asymptotic regime (>=32)")
    log_lam = math.log(lambda_inf_est)
    log_slack = math.log1p(STEP_SLACK)
    # cumulative log of norm factors reconstructs the raw iterates
    log_c = 0.0
    log_sup, log_grad = [], []
    for s in trace.steps[1:]:
        log_c += math.log(s.norm_factor)
        log_sup.append(s.k * log_lam + log_c + math.log(s.report.sup_norm))
        log_grad.append(s.k * log_lam + log_c + math.log(s.report.grad_sup))
    grad_ok = all(b <= a + log_slack for a, b in zip(log_grad, log_grad[1:]))
    sup_ok = all(b <= a + log_slack for a, b in zip(log_sup, log_sup[1:]))
    ratios = [math.exp(g - s) for g, s in zip(log_grad, log_sup)]
    ratio_stable = (len(ratios) >= 2
                    and abs(ratios[-1] - ratios[-2]) <= 0.05 * abs(ratios[-1]))
    ok = grad_ok and sup_ok and ratio_stable
    return SupnormCheck("pass" if ok else "fail")
