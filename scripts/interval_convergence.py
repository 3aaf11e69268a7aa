#!/usr/bin/env python3
"""Grid-refinement study on the unit interval.

For a few exponents p, run the inverse iteration at increasing resolution and
compare the converged Rayleigh quotient with the shooting oracle.  Exits 1
when a run does not converge.
"""

import argparse
import sys
import time

from pground.geometry import Interval
from pground.iteration import PositiveConstant, inverse_iterate
from pground.oracles import lambda_p_shooting_1d


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p-list", default="1.5,2,3,6")
    ap.add_argument("--n-list", default="64,128,256,512,1024")
    ap.add_argument("--tol", type=float, default=1e-10)
    args = ap.parse_args()

    p_list = [float(x) for x in args.p_list.split(",")]
    n_list = [int(x) for x in args.n_list.split(",")]

    ok = True
    for p in p_list:
        ref = lambda_p_shooting_1d(p)
        print(f"\np = {p:g}   shooting reference {ref:.12f}")
        print(f"{'n':>6} {'lambda_R':>18} {'rel error':>12} "
              f"{'steps':>6} {'time':>8}")
        for n in n_list:
            t0 = time.monotonic()
            tr = inverse_iterate(Interval(0.0, 1.0), n, p,
                                 PositiveConstant(), tol_outer=args.tol)
            dt = time.monotonic() - t0
            rel = (tr.lambda_R - ref) / ref
            flag = "" if tr.converged else "  (not converged)"
            ok = ok and tr.converged
            print(f"{n:>6} {tr.lambda_R:>18.12f} {rel:>12.2e} "
                  f"{tr.num_steps:>6} {dt:>7.1f}s{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
