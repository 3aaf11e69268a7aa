#!/usr/bin/env python3
"""Inner iterations and factorizations per case, the work the re-lag rule
(`pground.inner._relag`) trades, for the cases CI runs: the small-solve
mix (interval n=63, square n=16 and L-shape n=16, each at p = 1.5, 2, 3
and 6 from a seeded random start) and the sweeps on the square n=64 and
n=128 (p = 4..64) and on the L-shape n=72 (p = 4..128).

Factorizations are counted by wrapping `pground.inner.factorized`, the one
factorization site; the sine-transform Laplacian makes none.  A report: it
prints one row per case and holds no timings.  It exits 1 if a case counts
no factorization: every case factors, so a zero means that the wrapper
missed the factorization site, as after a rename of `factorized`.

    python3 scripts/inner_counts.py
"""

import sys

import numpy as np

import pground.inner
from pground import (Interval, MaskDomain, RandomPositive, Rectangle,
                     inverse_iterate, sweep)

SQUARE = Rectangle(0.0, 1.0, 0.0, 1.0)
# the unit square minus its top-right quarter
L_SHAPE = MaskDomain(2, 2, np.array([[True, True], [True, False]]), 0.5)


def main() -> int:
    factors = [0]
    factorized = pground.inner.factorized

    def counting(A):
        factors[0] += 1
        return factorized(A)

    pground.inner.factorized = counting
    small = (("interval", Interval(0.0, 1.0), 63), ("square", SQUARE, 16),
             ("L-shape", L_SHAPE, 16))
    unfactored = []
    print(f"{'case':<34} {'outer':>6} {'inner':>7} {'factors':>8}")
    for j, p in enumerate((1.5, 2.0, 3.0, 6.0)):
        for i, (name, spec, n) in enumerate(small):
            factors[0] = 0
            tr = inverse_iterate(spec, n, p, RandomPositive(100 * i + j))
            case = f"{name} n={n} p={p:g}"
            print(f"{case:<34} {len(tr.steps) - 1:>6} "
                  f"{sum(s.inner_iters for s in tr.steps):>7} "
                  f"{factors[0]:>8}")
            unfactored += [case] if factors[0] == 0 else []
    for name, spec, n, p_list in (
            ("square", SQUARE, 64, (4, 8, 16, 32, 64)),
            ("square", SQUARE, 128, (4, 8, 16, 32, 64)),
            ("L-shape", L_SHAPE, 72, (4, 8, 16, 32, 64, 128))):
        factors[0] = 0
        result = sweep(spec, n, p_list)
        traces = [tr for tr in result.traces if tr is not None]
        case = f"{name} n={n} sweep p={p_list[0]}..{p_list[-1]}"
        print(f"{case:<34} {sum(len(tr.steps) - 1 for tr in traces):>6} "
              f"{sum(s.inner_iters for tr in traces for s in tr.steps):>7} "
              f"{factors[0]:>8}")
        unfactored += [case] if factors[0] == 0 else []
    if unfactored:
        print(f"no factorization counted: {', '.join(unfactored)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
