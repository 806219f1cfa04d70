"""Seconds at a reference CPU speed.

On the shared 2-vCPU machine the baseline was recorded on, the speed of a
core drifted by up to a factor of two over seconds to minutes, with process
CPU time equal to wall time, so raw seconds of identical work spread by some
25% between runs.  The clock therefore runs a fixed reference kernel (exact
Fraction elimination and dict traffic, the kinds of work the library does,
using only the standard library) between timed regions, at least every
REF_EVERY_S, and scales the raw seconds of the regions between two kernel
runs by REF_NOMINAL_S over the mean of those two kernel durations.  A faster
library lowers the scaled time in proportion; a slower machine does not
raise it.  Over 20-second windows of identical work this cut the spread from
0.20 to 0.04.
"""

import random
from fractions import Fraction
from time import perf_counter

# fixes the unit: about the median duration of reference_kernel() on that
# machine (Intel Xeon, Python 3.11.7)
REF_NOMINAL_S = 0.0125
REF_EVERY_S = 0.25


def reference_kernel():
    rng = random.Random(12345)
    n = 8
    m = [[Fraction(rng.randint(-99, 99), rng.randint(1, 40)) for _ in range(n)] for _ in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[p] = m[p], m[c]
        pv = m[c][c]
        m[c] = [x / pv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    counts = {}
    for i in range(20000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
    return m, counts


def kernel_seconds():
    t0 = perf_counter()
    reference_kernel()
    return perf_counter() - t0


class RefClock:
    """Accumulates timed regions per key, raw and at the reference speed."""

    def __init__(self):
        self.refs = [kernel_seconds()]
        self.last = perf_counter()
        self.pending = []
        self.raw = {}
        self.scaled = {}

    def add(self, key, seconds):
        self.raw[key] = self.raw.get(key, 0.0) + seconds
        self.scaled.setdefault(key, 0.0)
        self.pending.append((key, seconds))
        if perf_counter() - self.last >= REF_EVERY_S:
            self.sample()

    def sample(self):
        dt = kernel_seconds()
        scale = REF_NOMINAL_S / ((self.refs[-1] + dt) / 2)
        for key, seconds in self.pending:
            self.scaled[key] += seconds * scale
        self.pending.clear()
        self.refs.append(dt)
        self.last = perf_counter()

    def close(self):
        """Scale what is pending; call once the timed work has ended."""
        if self.pending:
            self.sample()
