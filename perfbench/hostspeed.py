"""Host-speed normalization of measured intervals.

Small shared machines change speed for seconds at a time: a fixed kernel of
numpy and interpreter work was measured to take anywhere from 15 to 26 ms on
the same 2-vCPU host, in phases of 5 to 15 seconds.  A run of the benchmark is
short enough that its raw wall times follow those phases.

HostSpeed runs a fixed calibration kernel NEAR times before and after every
command and after every train step, and once at most every 0.15 s between
queries: only at points the benchmark controls, never inside a program
function.  An interval's normalized duration is its wall time with the
calibration runs taken out, each piece scaled by NOMINAL_S over the kernel
time measured next to it: the time the interval would have taken while the
kernel runs in NOMINAL_S.  The kernel mixes what skipgru spends its time on:
small matrix-vector products inside a Python loop, a BLAS matrix product,
interpreter arithmetic and a streaming pass over a few megabytes.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

NOMINAL_S = 0.008       # kernel time on a quiet 2-vCPU host, one BLAS thread
MIN_GAP_S = 0.15        # spacing of the samples between queries
NEAR = 3                # kernel runs used on each side of a piece


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._m = rng.random((128, 128)) / 128.0
        self._v = rng.random(128)
        self._stream = rng.random(1 << 19)
        self.starts: list[float] = []
        self.ends: list[float] = []

    def _kernel(self) -> None:
        v = self._v
        for _ in range(400):
            v = np.tanh(self._m @ v + self._v)
        for _ in range(10):
            self._m @ self._m
        s = 0
        for i in range(10000):
            s += i
        for _ in range(2):
            float(np.sum(self._stream * 1.0001))

    def sample(self, runs: int = 1) -> None:
        for _ in range(runs):
            start = time.perf_counter()
            self._kernel()
            self.starts.append(start)
            self.ends.append(time.perf_counter())

    def maybe_sample(self) -> None:
        if not self.ends or time.perf_counter() - self.ends[-1] >= MIN_GAP_S:
            self.sample()

    def _kernel_s(self, i: int) -> float:
        return self.ends[i] - self.starts[i]

    def normalized(self, t0: float, t1: float) -> float:
        """Duration of [t0, t1] at nominal speed, calibration runs excluded.

        Each piece between two calibration runs is scaled by the median kernel
        time of the NEAR runs on either side of it."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.ends, t1)
        inside = range(lo, max(lo, hi))
        edges = [t0] + [x for i in inside
                        for x in (self.starts[i], self.ends[i])] + [t1]
        left = [lo - 1] + list(inside)
        right = list(inside) + [max(lo, hi)]
        total = 0.0
        for k, (a, b) in enumerate(zip(edges[::2], edges[1::2])):
            # The median of the runs on both sides shrugs off outliers.
            near = [self._kernel_s(i)
                    for i in range(left[k] - NEAR + 1, right[k] + NEAR)
                    if 0 <= i < len(self.starts)]
            kernel = statistics.median(near) if near else NOMINAL_S
            total += (b - a) * NOMINAL_S / kernel
        return total

    def busy(self, t0: float, t1: float) -> float:
        """Seconds of calibration runs inside [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.ends, t1)
        return sum(self._kernel_s(i) for i in range(lo, hi))

    def summary(self) -> dict:
        times = [self._kernel_s(i) for i in range(len(self.starts))]
        if not times:
            return {"samples": 0}
        return {"samples": len(times), "nominal_ms": NOMINAL_S * 1000.0,
                "kernel_ms_min": min(times) * 1000.0,
                "kernel_ms_median": statistics.median(times) * 1000.0,
                "kernel_ms_max": max(times) * 1000.0}
