"""Machine-speed reference: the benchmark's times are scaled to one speed.

The CPUs of a small shared VM change speed with other tenants' load, by
up to 40% over phases of 10 to 90 seconds: a fixed pure-Python loop took
10.7 to 20.6 ms per half-second window over seven minutes on a 2-vCPU
x86-64 VM, with no CPU steal reported, and CPU time tracked wall time.
A run of 20 to 50 seconds cannot average that out: the quartile spread
of such windows' means stayed at 0.27 to 0.30 of their median.

So the benchmark times a fixed unit of work (`reference_unit`: a Python
loop and a chain of small numpy products, ~2 ms) between requests,
outside their timed spans, and scales each request's wall time by
NOMINAL_S / (median of the reference samples nearest to it in time).
That gives the time the request would take with the machine at the
nominal speed. In a four-minute trial on that VM, scaling by the Python
half or the numpy half of the unit alone cut the quartile spread of the
median latency of 11-22 s windows from 0.15 to 0.02-0.04 (sweeps) and
from 0.08 to 0.03-0.05 (oracle runs). It does not help with work done in
other processes, which the samples taken in this one do not track. Raw
wall times are printed beside the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# The reference unit's time on the VM above in a quiet phase, so scaled
# times read close to wall times there.
NOMINAL_S = 0.0017
NEIGHBOURS = 3            # samples taken on each side of a request
PERIOD_S = 0.05           # at most one sample per period: ~4% of a run
_MATRIX = np.random.default_rng(0).standard_normal((48, 48)) / 48


def reference_unit() -> float:
    total = 0
    for i in range(20000):
        total += i * i
    x = _MATRIX
    for _ in range(60):
        x = np.tanh(x @ _MATRIX)
    return total + float(x[0, 0])


class Gauge:
    """Reference samples over a run, taken at most every PERIOD_S."""

    def __init__(self) -> None:
        self.ends: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        began = time.perf_counter()
        reference_unit()
        end = time.perf_counter()
        self.ends.append(end)
        self.durations.append(end - began)

    def maybe_sample(self) -> None:
        if not self.ends or time.perf_counter() - self.ends[-1] >= PERIOD_S:
            self.sample()

    def scale(self, when: float) -> float:
        """NOMINAL_S over the local reference time around `when`."""
        i = bisect.bisect_left(self.ends, when)
        nearby = self.durations[max(0, i - NEIGHBOURS):i + NEIGHBOURS]
        return NOMINAL_S / statistics.median(nearby)

    def reference_ms_p50(self) -> float:
        return statistics.median(self.durations) * 1e3
