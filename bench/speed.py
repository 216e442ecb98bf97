"""Speed references measured next to every timed operation.

On a shared host the same Python code runs up to about 1.9 times slower
while the core's other hardware thread is busy, in phases from
milliseconds to minutes.  The benchmark pins itself and its children to
one core and samples a fixed probe, independent of quadlie, right before
and right after each timed operation.  A duration is reported in
reference seconds: wall seconds times the probe's nominal time over its
mean time around the operation.  Contention slows the probe and the
operation alike, so the ratio stays put while wall time swings.

Two probes: a kernel of Fraction products and small numpy contractions
for work done in process, and a fresh interpreter that imports numpy and
a few standard modules, no quadlie, for work done in child interpreters.
"""

import os
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

import numpy as np

KERNEL_SECONDS = 1e-3  # nominal time of the kernel; an uncontended core takes 1.07 ms
START_SECONDS = 0.15  # nominal time of the reference interpreter start
START_CODE = "import argparse, dataclasses, fractions, json, numpy"

_A = [[Fraction(3 * i + j + 1, j + 2) for j in range(5)] for i in range(5)]
_X = np.arange(27.0).reshape(3, 3, 3)


def kernel():
    """Fraction products and small numpy contractions, the two kinds of
    work quadlie does."""
    s = Fraction(0)
    for _ in range(2):
        for i in range(5):
            for j in range(5):
                s += sum(_A[i][k] * _A[k][j] for k in range(5))
    v = _X[0, 0]
    for _ in range(110):
        v = np.einsum("ijk,i->kj", _X, v)[0] * 1e-3
    return s, v


def pin_to_one_core():
    """Pin this process, and so its children, to one core of the ones it
    may use: the kernel then measures the core the work runs on."""
    cores = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cores[0]})


class Clock:
    """Samples of one probe along the run."""

    def __init__(self, probe, nominal, window):
        self.probe, self.nominal, self.window = probe, nominal, window
        self.mid = []  # probe midpoints, increasing
        self.took = []  # probe durations

    def sample(self):
        start = perf_counter()
        self.probe()
        took = perf_counter() - start
        self.mid.append(start + took / 2)
        self.took.append(took)

    def idle(self, seconds):
        """No sample in the last `seconds`."""
        return not self.mid or perf_counter() - self.mid[-1] > seconds

    def reference(self, start, end):
        """end - start in reference seconds: scaled by the mean probe time
        within the window around the interval, and always by the nearest
        sample on each side."""
        lo = bisect_left(self.mid, start - self.window)
        hi = bisect_right(self.mid, end + self.window)
        lo = min(lo, max(bisect_left(self.mid, start) - 1, 0))
        hi = max(hi, min(bisect_right(self.mid, end) + 1, len(self.mid)))
        near = self.took[lo:hi]
        return (end - start) * self.nominal * len(near) / sum(near)


def kernel_clock():
    return Clock(kernel, KERNEL_SECONDS, 0.25)


def start_clock(run_child):
    """run_child(code) starts a fresh interpreter and waits for it."""
    return Clock(lambda: run_child(START_CODE), START_SECONDS, 2.0)
