#!/usr/bin/env python3
"""Large-p sweep on the unit square.

Tracks lambda_R^(1/p) against the reciprocal inradius (2.0 for the unit
square) and prints the sup-norm ratio diagnostics for the largest exponents.
Exits 1 when a point does not converge or a diagnostic reports fail.
"""

import argparse
import sys
import time

from pground.geometry import Rectangle
from pground.infinity import monotone_supnorm_check, sweep
from pground import traceio


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=128)
    ap.add_argument("--p-list", default="4,8,16,32,64")
    ap.add_argument("--out", help="optional prefix for OUT.sweep.csv")
    args = ap.parse_args()

    spec = Rectangle(0.0, 1.0, 0.0, 1.0)
    p_list = [float(x) for x in args.p_list.split(",")]
    t0 = time.monotonic()
    result = sweep(spec, args.n, p_list)
    dt = time.monotonic() - t0

    rho = result.inradius_reciprocal
    print(f"1/inradius = {rho:g}   ({dt:.0f}s total)\n")
    print(f"{'p':>6} {'lambda_R':>14} {'lambda^(1/p)':>13} "
          f"{'final ratio':>12} {'conv':>5}")
    for e in result.entries:
        print(f"{e.p:>6g} {e.lambda_R:>14.6e} {e.lambda_root:>13.6f} "
              f"{e.final_ratio:>12.6f} {str(e.converged):>5}")

    ok = all(e.converged for e in result.entries)
    for e, tr in zip(result.entries, result.traces):
        if tr is None:
            continue
        check = monotone_supnorm_check(tr, e.lambda_root)
        ok = ok and check.status != "fail"
        print(f"\np = {e.p:g} sup-norm diagnostics: {check.status}"
              + (f" ({check.detail})" if check.detail else ""))

    if args.out:
        traceio.write_sweep_csv(args.out + ".sweep.csv", result)
        print(f"\nwrote {args.out}.sweep.csv")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
