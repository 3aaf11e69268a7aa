#!/usr/bin/env python3
"""Large-p sweep on an L-shaped mask domain.

The L is the unit square minus its upper-right quadrant; the largest inscribed
disk sits diagonally against the reentrant corner with radius (2 - sqrt 2)/2,
so lambda_R^(1/p) should drift toward 2/(2 - sqrt 2) ~ 3.414.  Exits 1 when
a point does not converge.
"""

import argparse
import math
import sys

import numpy as np

from pground.geometry import MaskDomain
from pground.infinity import sweep


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=64)
    ap.add_argument("--p-list", default="4,8,16,32")
    args = ap.parse_args()

    cells = np.array([[True, True], [True, False]])
    spec = MaskDomain(width=2, height=2, cells=cells, cell_size=0.5)
    p_list = [float(x) for x in args.p_list.split(",")]

    result = sweep(spec, args.n, p_list)
    exact = 2.0 / (2.0 - math.sqrt(2.0))
    print(f"1/inradius: grid estimate {result.inradius_reciprocal:.6f}, "
          f"exact {exact:.6f}\n")
    print(f"{'p':>6} {'lambda^(1/p)':>13} {'gap to exact':>13} {'conv':>5}")
    for e in result.entries:
        print(f"{e.p:>6g} {e.lambda_root:>13.6f} "
              f"{e.lambda_root - exact:>13.6f} {str(e.converged):>5}")
    return 0 if all(e.converged for e in result.entries) else 1


if __name__ == "__main__":
    sys.exit(main())
