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
from .iteration import (ClaimResult, Custom, IterationTrace,
                        PositiveConstant, _claim, inverse_iterate)


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
    """The points of one `sweep`, one `SweepEntry` per exponent in order,
    the reciprocal inradius they approach as p grows, and each point's trace
    (None where its solve raised)."""
    entries: tuple
    inradius_reciprocal: float
    traces: tuple = field(repr=False, default=())


def sweep(spec: DomainSpec, n: int, p_list, K_max: int = 200,
          tol_outer: float = 1e-8) -> SweepResult:
    """Run the inverse iteration for each exponent in p_list and collect the
    limit diagnostics.  The exponents must be finite, above 2 and strictly
    increasing (ValueError before any solve).  The first starts from the
    positive constant, each later one from the last converged finals
    (`_continued_start`).  A point whose solve raises NonConvergence, or
    OverflowError (from about p = 1024), is recorded as not converged, with
    NaN values and trace None.  The default K_max of 200 outer steps lets
    large-p points converge where R contracts slowly: by about 0.83 a step
    on the L-shape n=32 at p=64, which converges at step 117."""
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
    last converged points, oldest first: the positive constant for none, the
    last final for one.  For two or three, the Lagrange polynomial in 1/p
    through them (natural-parameter continuation; Allgower & Georg,
    Introduction to Numerical Continuation Methods, SIAM 2003, ch. 2),
    clipped at 0, where its Rayleigh quotient at p is below the last
    final's, since a prediction can steepen the ridge that forms at large p;
    else the last final.  The quotients are compared in logs, since they
    overflow near p = 1000."""
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


# per-step relative growth the sup-norm sequences may show, for the
# finite-p deviation from the infinity limit
STEP_SLACK = 0.05


def monotone_supnorm_check(trace: IterationTrace,
                           lambda_inf_est: float) -> ClaimResult:
    """On a large-p trace, check that the un-normalized sup norms of the
    iterates and of their gradients, scaled by powers of the estimated
    infinity eigenvalue, are nonincreasing (log growth at most
    log1p(STEP_SLACK) a step), and that their ratio's last change is at most
    5% of its value: one claim over the growth margins, sup and gradient at
    each step, then the ratio's, which fails with fewer than two steps; None
    below p = 32."""
    name = "sup-norm sequences nonincreasing, ratio stable"
    if trace.p < 32:
        return _claim(name, [], f"p={trace.p:g} is below the asymptotic "
                                f"regime (>=32)")
    log_lam = math.log(lambda_inf_est)
    log_slack = math.log1p(STEP_SLACK)
    steps = trace.steps[1:]
    # cumulative log of norm factors reconstructs the raw iterates
    log_c, logs = 0.0, []           # (k, log sup, log gradient sup)
    for s in steps:
        log_c += math.log(s.norm_factor)
        scale = s.k * log_lam + log_c
        logs.append((s.k, scale + math.log(s.report.sup_norm),
                     scale + math.log(s.report.grad_sup)))

    def margins():
        for (_, sup, grad), (k, sup_next, grad_next) in zip(logs, logs[1:]):
            yield sup + log_slack - sup_next, k
            yield grad + log_slack - grad_next, k
        # the ratio is scale-free, the normalized iterates' own quotient
        r = [s.report.grad_sup / s.report.sup_norm for s in steps[-2:]]
        yield (0.05 * abs(r[-1]) - abs(r[-1] - r[0]) if len(r) == 2
               else -math.inf), trace.num_steps

    last = 2 * max(len(steps) - 1, 0)   # the ratio margin's position
    return _claim(name, margins(), lambda i: "(ratio change)" if i == last
                  else f"({('sup', 'gradient sup')[i % 2]} growth)")
