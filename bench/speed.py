"""Machine-speed reference for the benchmark's timings.

On a shared machine, other tenants can slow every op of this process by up
to 2x for seconds to minutes at a time while the process keeps its CPU (its
CPU time equals its wall time and steal time stays near zero), so the raw
median of a 20-second run moves by a third from one run to the next.  A
fixed loop of interpreter work and small and medium dense eigensolves, timed
between calls, slows down alike.  Each call's time is divided by the loop's
speed factor around it, which cut the ten-run spread of the timings from
about 0.33 to 0.03-0.12 (see STEADINESS.md).

Calibrated times are seconds at the speed at which the loop takes
`NOMINAL_S`; raw times are recorded beside them.
"""

import statistics
import time
from collections import deque

import numpy as np

# About the median time of `Reference.loop` on the machine the bounds were set on
# (2-vCPU Xeon KVM guest, numpy 2.4 with scipy-openblas, one BLAS thread).
NOMINAL_S = 0.0035
# The loop runs before a call when the last run is older than this, so it
# costs about 2 % of a run.
EVERY_S = 0.25


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        small = rng.normal(size=(4, 4))
        medium = rng.normal(size=(120, 120))
        self.small = small @ small.T
        self.medium = medium @ medium.T
        self.recent = deque(maxlen=3)
        self.last = -float("inf")

    def loop(self):
        x = 0.0
        for _ in range(250):
            x += float(np.linalg.eigvalsh(self.small)[0])
            x += sum(k * 0.5 for k in range(32))
        return x + float(np.linalg.eigvalsh(self.medium)[0])

    def measure(self):
        """Run the loop now; the speed factor: loop time / NOMINAL_S, the
        median over this and the two runs before it, which damps the
        loop's own jitter."""
        start = time.perf_counter()
        self.loop()
        self.last = time.perf_counter()
        self.recent.append((self.last - start) / NOMINAL_S)
        return statistics.median(self.recent)

    def current(self):
        """The speed factor, measured afresh if the last one is stale."""
        if time.perf_counter() - self.last >= EVERY_S:
            return self.measure()
        return statistics.median(self.recent)
