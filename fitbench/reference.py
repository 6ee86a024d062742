"""The machine's current speed, from a fixed reference task timed between fits.

The shared 2-core machine the benchmark was sized on changes speed by up
to 2x within a minute (block medians of one fixed fit moved from 64 to
34 ms), far more than the bounds BENCHMARK.json sets.  So each fit's
wall time is also scaled to a nominal machine speed:

    scaled = wall * NOMINAL_S / (reference time around the fit)

The reference task makes Python-level calls on tiny arrays plus a few
small matrix-vector products and array passes, the mix the fits spend
their time on, and uses no gsda code: a change to gsda moves the fit
times but not the reference.  Over eight 10 s runs of fixed minimize
inputs, scaling cut the coefficient of variation of the median fit time
from 0.20 to 0.08, and over ten seeds the spread of quantile-additive's
iters_per_s fell to 0.065.  It tracks the numpy-heavier pot-qp less
well (an unscaled ten-seed set had spread 0.26 in fit_s, from slow
phases of about a minute).
"""

import statistics
import time

import numpy as np

PROBE_REPEATS = 3
PROBE_INTERVAL_S = 0.25


def reference_task():
    rng = np.random.default_rng(12345)
    x = rng.standard_normal(2)
    acc = 0.0
    for _ in range(150):
        y = np.abs(x) * 0.5 + np.sign(x)
        acc += float(np.linalg.norm(y))
    a = rng.standard_normal((150, 150))
    v = rng.standard_normal(150)
    for _ in range(20):
        v = a @ v
        v /= np.linalg.norm(v)
    z = rng.standard_normal((100, 300))
    acc += float(np.exp(-z * z).sum(axis=0).max())
    acc += float(np.unique(np.round(z[:, :4], 1), axis=0).shape[0])
    return acc


# median reference time on the machine the benchmark was sized on
NOMINAL_S = 0.0025


class SpeedProbe:
    """Reference times, taken at most every PROBE_INTERVAL_S seconds."""

    def __init__(self):
        self.samples = []  # (monotonic time, best of PROBE_REPEATS seconds)

    def measure(self):
        clock = time.perf_counter
        best = float("inf")
        for _ in range(PROBE_REPEATS):
            start = clock()
            reference_task()
            best = min(best, clock() - start)
        self.samples.append((time.monotonic(), best))
        return best

    def maybe_measure(self):
        """Measure unless the last sample is recent; returns the latest."""
        if not self.samples or time.monotonic() - self.samples[-1][0] >= PROBE_INTERVAL_S:
            return self.measure()
        return self.samples[-1][1]

    def median(self):
        return statistics.median(s for _, s in self.samples)

    def scale(self):
        """Factor that brings this run's times to the nominal speed."""
        return NOMINAL_S / self.median()

    def scale_for(self, before, after):
        """Factor for a fit timed between two reference samples."""
        return 2.0 * NOMINAL_S / (before + after)
