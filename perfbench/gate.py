"""The failure gate every benchmarked solve passes through.

A solve fails if it raises NonConvergence or DegenerateIterate, ends with
converged=False, fails a check_monotonicity claim, has an estimator gap
above GAP_TOL, fails the barrier bound, or has a lambda_R more than
references.REL_TOL relative from the reference value of its case.

Failures of the first two kinds are the solver giving up honestly; the
others mean it returned a wrong answer, which makes the run incorrect.
"""

from __future__ import annotations

from dataclasses import dataclass

import pground
import pground.iteration

from references import REL_TOL

GAP_TOL = 1e-6


@dataclass(frozen=True)
class Outcome:
    """Gate verdict on one solve (or one sweep point)."""

    case: tuple                 # (domain, n, p)
    span: tuple                 # (start, end) of the solve on the run's clock
    reason: str | None = None   # why the gate failed it; None if it passed
    wrong: bool = False         # returned an answer the checks reject

    @property
    def failed(self) -> bool:
        return self.reason is not None


def check(case, trace, span, references: dict) -> Outcome:
    """Verdict on a trace returned by inverse_iterate (or one sweep point)."""
    if not trace.converged:
        return Outcome(case, span, "converged=False")
    try:
        report = pground.check_monotonicity(trace)
    except ValueError as exc:  # too few steps to check the claims on
        return Outcome(case, span, f"check_monotonicity: {exc}")
    if not report.all_passed:
        failed = [c.name for c in report.claims if not c.passed]
        return Outcome(case, span, f"monotonicity {failed}", True)
    gap = pground.consistency_estimators(trace)
    if not gap <= GAP_TOL:
        return Outcome(case, span, f"estimator gap {gap:.2e}", True)
    if not pground.iteration.check_barrier(trace).passed:
        return Outcome(case, span, "barrier bound", True)
    ref = references[case]
    rel = abs(trace.lambda_R - ref) / abs(ref)
    if not rel <= REL_TOL:
        return Outcome(case, span,
                       f"lambda_R {trace.lambda_R!r} is {rel:.2e} from "
                       f"reference {ref!r}", True)
    return Outcome(case, span)
