"""Outer inverse iteration for the smallest p-Rayleigh quotient: each step
solves the p-Laplace problem whose right-hand side is the signed (p-1)-power of
the last iterate and renormalizes to unit L^p norm, as the step map is
positively 1-homogeneous; the norm factors recover the rest.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .calculus import (EnergyReport, GridFunction, _norm_pow, _quotient,
                       _report_logs)
from .geometry import DomainSpec, Grid, Rectangle, shared_grid
from .inner import (CLAIM_SLACK, _resolved_tol, _signed_power,
                    solve_step_with_stats)


class DegenerateIterate(RuntimeError):
    """An iterate's L^p norm underflowed; the iteration cannot continue."""


@dataclass(frozen=True)
class PositiveConstant:
    """The constant 1 on the interior; `inverse_iterate` normalizes any
    start, so a constant's value would change only rounding."""


@dataclass(frozen=True)
class RandomPositive:
    """A start drawn uniformly from [0.5, 1.5] at each interior node by
    `numpy.random.default_rng(seed)`."""
    seed: int = 0


@dataclass(frozen=True)
class Custom:
    """A start near a ground state, such as the final iterate at a nearby p,
    from which step 1 is warm-started; a rough one costs that step more than
    the cold start from zero."""

    function: GridFunction


InitPolicy = Union[PositiveConstant, RandomPositive, Custom]

logger = logging.getLogger(__name__)

# outer steps before the Cauchy stop may end a run: the steps
# `check_monotonicity` needs
MIN_STEPS = 3
# the relative gap |lambda_R - lambda_Q| / lambda_R that `verify` allows a
# converged trace
GAP_TOL = 1e-6


def make_initial(grid: Grid, init: InitPolicy) -> GridFunction:
    if isinstance(init, PositiveConstant):
        return GridFunction.constant(grid)
    if isinstance(init, RandomPositive):
        rng = np.random.default_rng(init.seed)
        return GridFunction.from_interior(
            grid, rng.uniform(0.5, 1.5, size=grid.num_interior))
    if isinstance(init, Custom):
        # rebuilt on this grid: raises unless the values have its shape and
        # vanish off its interior
        return GridFunction(grid, init.function.values)
    raise TypeError(f"unknown init policy {type(init).__name__}")


@dataclass(frozen=True)
class TraceStep:
    k: int
    report: EnergyReport
    R: float            # Rayleigh quotient of the normalized iterate
    N: float            # norm-power ratio before normalization (nan at k=0)
    Q: float            # N ** (1 - 1/p) (nan at k=0)
    norm_factor: float  # L^p norm of the raw iterate (1.0 at k=0)
    inner_iters: int


@dataclass
class IterationTrace:
    """The record of one `inverse_iterate` run: the outer steps (step 0 the
    normalized start), the estimates of the last step, whether the Cauchy
    stop was met, the inner tolerance the claims' slack is budgeted from,
    the barrier record and the last normalized iterate."""
    p: float
    h: float
    steps: list = field(default_factory=list)
    lambda_R: float = math.nan
    lambda_Q: float = math.nan
    mu: float = math.nan
    converged: bool = False
    # the inner tolerance at sup|f| = 1, from which the claims' slack is
    # budgeted; a solve with sup|f| > 1 uses a larger one, up to 1.5e-9
    # where this records 1e-10 (ROADMAP.md, item 7)
    tol_grad: float = math.nan
    barrier_bound: float = math.nan     # sup|w|_inf * sup|u_0|
    first_step_sup: float = math.nan    # raw sup|u_1|
    final: "GridFunction | None" = None  # last normalized iterate

    @property
    def num_steps(self) -> int:
        return len(self.steps) - 1  # step 0 is the initial function


def barrier_sup_bound(grid: Grid, p: float) -> float:
    """Sup over nodes of |x - y|^q / (q * dim^(1/(p-1))), with the comparison
    point y placed one spacing outside the midpoint of the longest side."""
    q = p / (p - 1)
    coords = grid.node_coords()
    spec = grid.spec
    if grid.dim == 1:
        y = np.array([spec.a - grid.h])
        dist = np.abs(coords - y[0])
    else:
        if isinstance(spec, Rectangle):
            lx, ly = spec.bx - spec.ax, spec.by - spec.ay
            if lx >= ly:
                y = np.array([0.5 * (spec.ax + spec.bx), spec.ay - grid.h])
            else:
                y = np.array([spec.ax - grid.h, 0.5 * (spec.ay + spec.by)])
        else:
            # mask: below the midpoint of the bounding box bottom side
            w = grid.h * (grid.shape[0] - 1)
            y = np.array([0.5 * w, -grid.h])
        dist = np.sqrt((coords[..., 0] - y[0]) ** 2
                       + (coords[..., 1] - y[1]) ** 2)
    in_domain = grid.interior | grid.boundary
    return float((dist[in_domain].max() ** q) / (q * grid.dim ** (1.0 / (p - 1))))


def _normalized(grid: Grid, y: np.ndarray, p: float):
    """(c, y / c, report, R) for the interior vector y of L^p norm c: the
    iteration's one normalization, of its start and of each raw solve,
    with the normalized iterate's `EnergyReport` and Rayleigh quotient.
    DegenerateIterate if c is zero or not finite."""
    c = _norm_pow(grid, y, p) ** (1.0 / p)
    if not (c > 0 and math.isfinite(c)):
        raise DegenerateIterate(f"an iterate has L^p norm {c}")
    x = (1.0 / c) * y
    report, *logs = _report_logs(grid, x, p)
    return c, x, report, _quotient(*logs)


def _outer_step(grid: Grid, x: np.ndarray, p: float, R: float,
                tol_grad: float | None, carry: list, warm: bool):
    """One step of the map from the normalized iterate x of quotient R: the
    raw solve y for the signed (p-1)-power of x and its normalization, as
    (y, c, x_next, report, R_next, inner iterations).  A warm solve starts
    from x scaled by R^(-1/(p-1)), y's expected scale, and runs the last eps
    stage only; a cold one starts from zero.  carry is
    `solve_step_with_stats`'s."""
    scale = R ** (-1.0 / (p - 1)) if math.isfinite(R) else 1.0
    y, iters = solve_step_with_stats(grid, _signed_power(x, p), p, tol_grad,
                                     initial=scale * x if warm else None,
                                     carry=carry)
    return (y, *_normalized(grid, y, p), iters)


def inverse_iterate(spec: DomainSpec, n: int, p: float, init: InitPolicy,
                    K_max: int = 100, tol_outer: float = 1e-10,
                    tol_grad: float | None = None) -> IterationTrace:
    """Run the normalized inverse iteration and record its trace.  Step 0
    normalizes the start (`_normalized`), and each later step is one call of
    the step map `_outer_step`; the Cauchy stop on the Rayleigh quotient
    waits for MIN_STEPS steps.  tol_grad is each inner solve's gradient
    tolerance, None for the default.  Step 1 from a `PositiveConstant` or
    `RandomPositive` init solves from zero; every later step, and step 1
    from a `Custom` init, is warm.  The solve runs on the process's grid for
    (spec, n) (`geometry.shared_grid`) and gives what a new grid would: the
    factor carried from step to step lives for this call only, and a
    Laplacian factor left on the grid is the one a cold start builds.  Each
    step logs a line at INFO on the `pground.iteration` logger."""
    if K_max < 2:
        raise ValueError("K_max must be at least 2")
    if not 0 < tol_outer < math.inf:
        raise ValueError(f"tol_outer must be positive and finite, got "
                         f"{tol_outer}")
    if not 1 < p < math.inf:
        raise ValueError(f"p must be finite and exceed 1, got {p}")
    if tol_grad is not None and not 0 < tol_grad < math.inf:
        raise ValueError(
            f"tol_grad must be positive and finite, got {tol_grad}")
    grid = shared_grid(spec, n)
    trace = IterationTrace(p=p, h=grid.h,
                           tol_grad=_resolved_tol(1.0, tol_grad))
    _, x, report, R = _normalized(
        grid, make_initial(grid, init).values[grid.interior], p)
    trace.steps.append(TraceStep(
        k=0, report=report, R=R, N=math.nan, Q=math.nan, norm_factor=1.0,
        inner_iters=0))
    trace.barrier_bound = barrier_sup_bound(grid, p) * report.sup_norm

    # the factor one step ends on and the next starts on (`_descend`)
    carry = []
    for k in range(1, K_max + 1):
        _, c, x, report, R, iters = _outer_step(
            grid, x, p, R, tol_grad, carry,
            warm=k > 1 or isinstance(init, Custom))
        N = math.exp(-p * math.log(c))  # previous iterate is normalized
        trace.steps.append(TraceStep(
            k=k, report=report, R=R, N=N,
            Q=N ** (1 - 1 / p), norm_factor=c, inner_iters=iters))
        logger.info("step %d: R=%.12e N=%.6e inner_iters=%d", k, R, N, iters)
        if abs(R - trace.steps[-2].R) <= tol_outer * R and k >= MIN_STEPS:
            trace.converged = True
            break

    first, last = trace.steps[1], trace.steps[-1]
    trace.first_step_sup = first.norm_factor * first.report.sup_norm
    trace.lambda_R, trace.lambda_Q = last.R, last.Q
    trace.mu = trace.lambda_R ** (1.0 / (p - 1))
    trace.final = GridFunction.from_interior(grid, x)
    return trace


@dataclass(frozen=True)
class ClaimResult:
    name: str
    passed: bool | None     # None: the check does not apply to the trace
    worst_margin: float     # most negative slack observed (>= 0 means pass)
    worst_index: int        # step index where the worst margin occurred
    detail: str = ""


@dataclass(frozen=True)
class MonotonicityReport:
    claims: tuple

    @property
    def all_passed(self) -> bool:  # a check that does not apply is no failure
        return all(c.passed is not False for c in self.claims)

    def __str__(self):
        lines = []
        for c in self.claims:
            if c.passed is None:
                lines.append(f"SKIP  {c.name}: {c.detail}")
                continue
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"{status}  {c.name}: worst margin {c.worst_margin:.3e}"
                         f" at k={c.worst_index} {c.detail}")
        return "\n".join(lines)


def _claim(name, margins, detail=""):
    """The one margin rule over margins, (margin, k) pairs, k the step of
    the margin: the worst margin is the first smallest, a NaN counts as
    -inf, and the claim passes iff it is >= 0, or does not apply (None) with
    no margins.  A callable detail maps the worst pair's position to the
    note."""
    worst, worst_k, worst_i = math.inf, -1, -1
    for i, (margin, k) in enumerate(margins):
        if math.isnan(margin):
            margin = -math.inf
        if margin < worst:
            worst, worst_k, worst_i = margin, k, i
    if callable(detail):
        detail = detail(worst_i)
    passed = worst >= 0 if worst_i >= 0 else None
    return ClaimResult(name, passed, worst, worst_k, detail)


def _monotone_claim(name, values, slack):
    """values[k] >= values[k+1] to a relative slack; values[0] is outer step
    1, and a pair is indexed by the outer step of its later element."""
    pairs = enumerate(zip(values, values[1:]), start=2)
    return _claim(name, [((a - b) / abs(a) + slack, k) for k, (a, b) in pairs])


def check_monotonicity(trace: IterationTrace) -> MonotonicityReport:
    """Verify the iteration's proven inequalities on a recorded trace: (a)
    the Rayleigh quotients and (b) the norm-power ratios are nonincreasing,
    (c) both stay above the limits they converge to, and (d) the scaled
    Dirichlet energies decay at least by the factor mu^p.  The relative
    slack is CLAIM_SLACK trace.tol_grad (`pground.inner`), the inner solves'
    Newton-decrement tolerance; trace.tol_grad must be finite and
    nonnegative (ValueError otherwise), since an infinite slack would pass
    every claim and a NaN one fail them all."""
    if len(trace.steps) < MIN_STEPS + 1:
        raise ValueError(f"trace needs at least {MIN_STEPS} iteration steps")
    if not 0 <= trace.tol_grad < math.inf:
        raise ValueError(f"tol_grad must be finite and nonnegative, "
                         f"got {trace.tol_grad}")
    slack = CLAIM_SLACK * trace.tol_grad
    p = trace.p
    R = [s.R for s in trace.steps[1:]]
    N = [s.N for s in trace.steps[1:]]

    a = _monotone_claim("(a) Rayleigh quotient nonincreasing", R, slack)
    b = _monotone_claim("(b) norm ratio nonincreasing", N, slack)

    lam = trace.lambda_R
    lam_conj = math.exp(p / (p - 1) * math.log(lam))

    def limit_margins():  # alternately R and N at each step
        for k, (r, nn) in enumerate(zip(R, N), start=1):
            yield (r - lam) / lam + slack, k
            yield (nn - lam_conj) / lam_conj + slack, k

    c = _claim("(c) bounded below by the limit values", limit_margins(),
               lambda i: f"({'RN'[i % 2]} sequence)")

    # (d): with E_k the raw Dirichlet energy, mu^p E_{k+1} <= E_k reduces to
    # mu^p R_{k+1} / N_{k+1} <= R_k after factoring out the norm products.
    mu_p = lam ** (1.0 / (p - 1)) if lam > 0 else math.nan

    def decay_margins():
        for k in range(1, len(R)):
            lhs = p * math.log(mu_p) + math.log(R[k]) - math.log(N[k])
            rhs = math.log(R[k - 1])
            yield rhs - lhs + slack, k + 1

    d = _claim("(d) scaled Dirichlet energy decay", decay_margins())

    return MonotonicityReport(claims=(a, b, c, d))


def consistency_estimators(trace: IterationTrace) -> float:
    """Relative gap between the Rayleigh-quotient estimate of the smallest
    eigenvalue and the norm-ratio estimate."""
    if not trace.converged:
        raise ValueError("estimator consistency needs a converged trace")
    return abs(trace.lambda_R - trace.lambda_Q) / trace.lambda_R


def check_barrier(trace: IterationTrace) -> ClaimResult:
    """First-step sup bound from the explicit p-superharmonic comparison
    function: sup|u_1| <= sup|w| * sup|u_0|."""
    margin = (trace.barrier_bound - trace.first_step_sup) / trace.barrier_bound
    return _claim("barrier sup bound", [(margin, 1)])


def verify(trace: IterationTrace) -> MonotonicityReport:
    """Every check a recorded trace supports: claims (a)-(d), mu against
    lambda_R^(1/(p-1)) to 1e-12 relative, the estimator gap of a converged
    trace to GAP_TOL and the barrier bound if recorded; one that does not
    apply prints as SKIP."""
    claims = check_monotonicity(trace).claims  # raises on a short trace
    last = trace.num_steps
    mu_ref = trace.lambda_R ** (1.0 / (trace.p - 1))
    mu_err = abs(trace.mu - mu_ref) / max(abs(trace.mu), abs(mu_ref))
    mu = _claim("mu consistency with lambda_R", [(1e-12 - mu_err, last)])
    if trace.converged:
        gap_value = consistency_estimators(trace)
        gap = _claim("estimator gap", [(GAP_TOL - gap_value, last)],
                     f"(gap {gap_value:.3e}, tol {GAP_TOL:g})")
    else:
        gap = _claim("estimator gap", [], "trace not converged")
    if math.isnan(trace.barrier_bound) and math.isnan(trace.first_step_sup):
        barrier = _claim("barrier sup bound", [], "not recorded")
    else:
        barrier = check_barrier(trace)
    return MonotonicityReport(claims=claims + (mu, gap, barrier))
