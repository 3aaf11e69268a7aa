"""Large-p diagnostics: the p-th root of the smallest Rayleigh quotient
against the reciprocal inradius, and the sup-norm ratio sequences that
characterize the infinity-Laplacian ground-state limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .geometry import DomainSpec, inradius, shared_grid
from .inner import NonConvergence, SolverConfig
from .iteration import (Custom, IterationTrace, PositiveConstant,
                        inverse_iterate)


@dataclass(frozen=True)
class SweepEntry:
    p: float
    lambda_R: float
    lambda_root: float              # lambda_R ** (1/p)
    ratio_sequence: tuple           # grad_sup / sup_norm per outer step
    final_ratio: float
    converged: bool


@dataclass(frozen=True)
class SweepResult:
    p_list: tuple
    entries: tuple
    inradius_reciprocal: float
    traces: tuple = field(repr=False, default=())


def sweep(spec: DomainSpec, n: int, p_list, K_max: int = 200,
          tol_outer: float = 1e-8, tol_grad: float | None = None,
          verbose: bool = False) -> SweepResult:
    """Run the inverse iteration for each exponent in p_list and collect
    the limit diagnostics.  The first exponent starts from the positive
    constant, each later one (continuation in p) from the final iterate of
    the last exponent that converged, as a `Custom` init.  A point whose
    solve raises NonConvergence, or OverflowError where a quantity exceeds
    the float range (from about p = 1024 on), is recorded as not converged,
    with NaN values and trace None.  The default K_max of 200 outer steps
    lets large-p points converge where R contracts slowly: on the L-shape
    n=32 at p=64 by about 0.83 a step, converging at step 117.  Every
    point runs on the process's grid for (spec, n) (`inverse_iterate`)."""
    p_list = tuple(float(p) for p in p_list)
    if any(p <= 2 for p in p_list):
        raise ValueError("sweep exponents must exceed 2")
    if list(p_list) != sorted(set(p_list)):
        raise ValueError("p_list must be strictly increasing")
    rho = 1.0 / inradius(spec, shared_grid(spec, n))
    entries, traces = [], []
    init = PositiveConstant()
    for p in p_list:
        cfg = SolverConfig(p=p, tol_grad=tol_grad)
        try:
            tr = inverse_iterate(spec, n, p, init, K_max=K_max,
                                 tol_outer=tol_outer, cfg=cfg, verbose=verbose)
            if tr.converged:
                init = Custom(tr.final)
            ratios = tuple(s.report.grad_sup / s.report.sup_norm
                           for s in tr.steps[1:])
            entries.append(SweepEntry(
                p=p, lambda_R=tr.lambda_R,
                lambda_root=math.exp(math.log(tr.lambda_R) / p),
                ratio_sequence=ratios, final_ratio=ratios[-1],
                converged=tr.converged))
            traces.append(tr)
        except (NonConvergence, OverflowError):
            entries.append(SweepEntry(p=p, lambda_R=math.nan,
                                      lambda_root=math.nan,
                                      ratio_sequence=(), final_ratio=math.nan,
                                      converged=False))
            traces.append(None)
    return SweepResult(p_list=p_list, entries=tuple(entries),
                       inradius_reciprocal=rho, traces=tuple(traces))


@dataclass(frozen=True)
class SupnormCheck:
    status: str          # "pass", "fail", or "skipped"
    grad_seq_ok: bool
    sup_seq_ok: bool
    ratio_stable: bool
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def monotone_supnorm_check(trace: IterationTrace, lambda_inf_est: float,
                           step_slack: float = 0.05) -> SupnormCheck:
    """On a large-p trace, check that the un-normalized sup norms of the
    iterates and of their gradients, scaled by powers of the estimated
    infinity eigenvalue, are nonincreasing (with per-step slack for the
    finite-p deviation), and that their ratio stabilizes."""
    if trace.p < 32:
        return SupnormCheck("skipped", False, False, False,
                            f"p={trace.p} is below the asymptotic regime (>=32)")
    log_lam = math.log(lambda_inf_est)
    log_slack = math.log1p(step_slack)
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
    return SupnormCheck("pass" if ok else "fail", grad_ok, sup_ok, ratio_stable)
