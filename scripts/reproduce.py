#!/usr/bin/env python3
"""Reproduce the paper's three experiments and check their results.

- Interval (0, 1): grid refinement of lambda_R against the shooting oracle.
- Unit square: a large-p sweep, lambda_R^(1/p) against the reciprocal
  inradius 2.
- L-shape (the unit square minus its upper-right quadrant): the same
  sweep.  The largest inscribed disk sits diagonally against the reentrant
  corner with radius (2 - sqrt 2)/2, so lambda_R^(1/p) should drift toward
  2/(2 - sqrt 2) ~ 3.414.

Each sweep point at p >= 32 gets the sup-norm claim
(`monotone_supnorm_check`); below p = 32 it does not apply (skip).

    python3 scripts/reproduce.py [--size {small,full}]

`small` takes seconds; `full` (the default) runs the paper-scale sizes.
The output holds no timings, so two runs print the same bytes.  Exits 1
when a run or sweep point does not converge or a sup-norm claim fails,
and 0 otherwise.  Other domains, resolutions and exponents: `pground
sweep`, and `pground solve` with `pground oracle --method shooting`.
"""

import argparse
import math
import sys

from pground import (Interval, MaskDomain, PositiveConstant, Rectangle,
                     inverse_iterate, lambda_p_shooting_1d,
                     monotone_supnorm_check, sweep)

# per size: the interval's exponents and resolutions, then (n, exponents)
# of the square and of the L-shape sweeps
SIZES = {
    "small": ((3,), (31, 63), (16, (4, 8, 32)), (16, (4, 8))),
    "full": ((1.5, 2, 3, 6), (64, 128, 256, 512, 1024),
             (128, (4, 8, 16, 32, 64)), (64, (4, 8, 16, 32))),
}


def report_interval(p_list, n_list) -> bool:
    """Print lambda_R from the positive constant at each n against the
    shooting reference, per exponent; True iff every run converged."""
    ok = True
    for p in p_list:
        ref = lambda_p_shooting_1d(p)
        print(f"\nInterval (0, 1), p = {p:g}: shooting reference "
              f"{ref:.12f}\n")
        print(f"{'n':>6} {'lambda_R':>18} {'rel error':>12} {'steps':>6}")
        for n in n_list:
            tr = inverse_iterate(Interval(0.0, 1.0), n, p, PositiveConstant())
            ok = ok and tr.converged
            print(f"{n:>6} {tr.lambda_R:>18.12f} "
                  f"{(tr.lambda_R - ref) / ref:>12.2e} {tr.num_steps:>6}"
                  + ("" if tr.converged else "  (not converged)"))
    return ok


def report_sweep(title, spec, n, p_list, exact) -> bool:
    """Print the sweep of spec at n over p_list against the exact reciprocal
    inradius, and each converged point's sup-norm claim; True iff every
    point converged and no claim failed."""
    result = sweep(spec, n, p_list)
    print(f"\n{title}, n = {n}: 1/inradius grid estimate "
          f"{result.inradius_reciprocal:.6f}, exact {exact:.6f}\n")
    print(f"{'p':>6} {'lambda_R':>14} {'lambda^(1/p)':>13} "
          f"{'gap to exact':>13} {'final ratio':>12} {'conv':>5}")
    for e in result.entries:
        print(f"{e.p:>6g} {e.lambda_R:>14.6e} {e.lambda_root:>13.6f} "
              f"{e.lambda_root - exact:>13.6f} {e.final_ratio:>12.6f} "
              f"{str(e.converged):>5}")
    ok = all(e.converged for e in result.entries)
    print()
    for e, tr in zip(result.entries, result.traces):
        if tr is None:
            continue
        claim = monotone_supnorm_check(tr, e.lambda_root)
        ok = ok and claim.passed is not False
        if claim.passed is None:
            verdict = f"skip ({claim.detail})"
        else:
            verdict = (f"{'pass' if claim.passed else 'fail'}, worst margin "
                       f"{claim.worst_margin:.2e} at k={claim.worst_index} "
                       f"{claim.detail}")
        print(f"p = {e.p:g} sup-norm claim: {verdict}")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(
        description="Reproduce the paper's three experiments.")
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    p_list, n_list, square, lshape = SIZES[ap.parse_args().size]

    ok = report_interval(p_list, n_list)
    ok &= report_sweep("Unit square", Rectangle(0.0, 1.0, 0.0, 1.0),
                       *square, exact=2.0)
    l_shape = MaskDomain(2, 2, [[True, True], [True, False]], 0.5)
    ok &= report_sweep("L-shape", l_shape, *lshape,
                       exact=2.0 / (2.0 - math.sqrt(2.0)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
