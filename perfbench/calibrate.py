"""Machine-speed probe for steady timings on a shared machine.

On a host shared with other tenants, a single-threaded pass can run 25-50%
slower for seconds to minutes at a time, with CPU time tracking wall time
(contention for shared caches and memory bandwidth, not descheduling), so
raw times of the same pass spread by over 20% between runs.  An untraced
run therefore interleaves a short fixed probe kernel with its work, every
`every_s` seconds of wall time (run from a SIGALRM handler, so between two
Python bytecodes of whatever the library is doing), and scales each timed
interval by REF_S / (mean time of the middle half of the probes near it):
timings are reported as seconds at the speed the machine had when REF_S was
measured.  "Near" means the probes taken during the interval (and the one
right after it), or the LOCAL nearest ones when fewer ran, so a one-second
sweep point is scaled by the speed the machine had during that second.
The time spent in probes is excluded from every timing through `clock`.

The probe mixes the program's main kinds of work (a SuperLU factorization,
triangular solves and element-wise powers) and does not call pground, so no
change to the library moves it.  Raw timings and the scale factor are kept
in the run's detail report.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

# probe time on an uncontended 2-core Xeon VM (Python 3.11, SciPy 1.17)
REF_S = 0.025
LOCAL = 10      # fewest probes a timed interval is scaled by


class SpeedProbe:
    def __init__(self, every_s: float = 0.15):
        n = 64
        T = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sparse.eye(n)
        self._A = (sparse.kron(T, eye) + sparse.kron(eye, T)).tocsc()
        self._v = np.linspace(0.5, 1.5, 4 * n * n).reshape(2 * n, 2 * n)
        self.every_s = every_s
        self.samples = []   # probe durations
        self.at = []        # clock() when each probe ran
        self.spent_s = 0.0

    def clock(self) -> float:
        """perf_counter with the time spent in probes taken out."""
        return time.perf_counter() - self.spent_s

    def sample(self) -> None:
        at = self.clock()
        t0 = time.perf_counter()
        lu = splu(self._A)
        x = np.ones(self._A.shape[0])
        for _ in range(20):
            x = lu.solve(x)
            x /= np.abs(x).max()
        for _ in range(60):
            w = (self._v * self._v + 1e-3) ** 0.7
        t1 = time.perf_counter()
        if not (np.isfinite(w).all() and np.isfinite(x).all()):
            raise RuntimeError("speed probe produced non-finite values")
        self.samples.append(t1 - t0)
        self.at.append(at)
        self.spent_s += t1 - t0

    @contextlib.contextmanager
    def sampling(self):
        """Probe every every_s seconds while the block runs."""
        previous = signal.signal(signal.SIGALRM,
                                 lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self) -> float:
        """Factor that converts this run's timings to reference speed."""
        return REF_S / _trimmed_mean(self.samples)

    def scaled(self, start: float, end: float) -> float:
        """Length of the clock interval [start, end] at reference speed."""
        near = [d for at, d in zip(self.at, self.samples)
                if start <= at <= end + self.every_s]
        if len(near) < LOCAL:
            mid = 0.5 * (start + end)
            order = sorted(range(len(self.at)),
                           key=lambda i: abs(self.at[i] - mid))
            near = [self.samples[i] for i in order[:LOCAL]]
        return (end - start) * REF_S / _trimmed_mean(near)


def _trimmed_mean(values) -> float:
    """Mean of the middle half.  A host preemption adds a fixed delay, which
    makes a 25 ms probe read up to ten times slower but a long solve only a
    few percent; bursts of such probes must not set the scale."""
    v = sorted(values)
    k = len(v) // 4
    return statistics.fmean(v[k:len(v) - k])
