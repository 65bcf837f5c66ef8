"""A fixed probe of the host's speed, independent of fdabands.

The benchmark runs on a few cores of a shared host whose speed drifts by
20-40% over seconds to minutes, as neighbours load the same physical cores.
CPU time drifts as much as wall time, so the slowdown is not preemption,
and the median of a whole run does not average it away.

The probe repeats, on fixed inputs, the kinds of work the workloads spend
their time in: setting up Philox streams and drawing normals, a small matrix
product, parsing floats from text and an interpreter loop.  (A sort, a large
matrix product and a pass over an array larger than the caches tracked the
workloads' drift less well on a 2-vCPU host, and are left out.)  It runs
right after each job; the job's time times NOMINAL_S over the probe's time
is the job's time at the host's quiet speed.  On a 2-vCPU host, in two
sets of ten 30-second runs per workload, it cut the quartile spread of the
median job time from 40% and 20% to 7% and 2% on short_series, and from 25%
and 13% to 2% and 4% on coverage_study.  On long_recording, whose 2-second
jobs also read a 14 MB file and fill a 160 MB matrix, it went from 35% to
5% in one set and stayed at 9% in the other: the probe follows that
workload's slowdowns less closely.

The probe does not touch the library, so a change to fdabands moves the
adjusted times in full.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# probe time in a quiet phase of a 2-vCPU host (Python 3.11, numpy 2.4,
# OpenBLAS on one thread); it sets only the scale of the adjusted times
NOMINAL_S = 0.009


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(20250212)
        self._a = rng.standard_normal((2000, 400))
        self._b = rng.standard_normal((400, 50))
        self._text = [format(v, ".12g") for v in rng.standard_normal(10_000)]
        self.times = []

    def _once(self):
        for k in range(100):
            np.random.Generator(np.random.Philox(k)).standard_normal(400)
        np.abs(self._a @ self._b).max(axis=1)
        sum(float(s) for s in self._text)
        sum(i * i for i in range(30_000))

    def measure(self, budget_s: float = 0.0) -> float:
        """Probe once, then again until `budget_s` is spent; returns the
        median probe time of this call over NOMINAL_S (the slowdown)."""
        own = []
        start = time.perf_counter()
        while not own or time.perf_counter() - start < budget_s:
            t = time.perf_counter()
            self._once()
            own.append(time.perf_counter() - t)
        self.times.extend(own)
        return statistics.median(own) / NOMINAL_S
