"""Host speed: a fixed reference task timed between the operations of a run.

The benchmark runs on a few cores of a shared host whose speed drifts by a
fifth and more from one run to the next (one fixed pass of 60 steering and
simulate operations took 1.43-2.00 s within half a minute).  The drift
slows the reference task and the operations alike, so every end-to-end
time of a run is reported at the reference's nominal speed:

    reported = measured * REF_NOMINAL_S / median(reference times of the run)

The reference runs between operations, REF_SHARE of their busy time, so
its samples cover the run as the operations do.  On cli-cold, ten 12 s
runs of ten seeds spread (IQR/median) by 0.145 in median operation time
and 0.149 in operations per second as measured, and by 0.060 and 0.060 so
scaled.  Scaling each operation by the samples right around it instead
did no better over whole runs, and the samples right after an operation
carry the cache state it left, which varies with its kind.

The reference is numpy, scipy and interpreter work in the shape of
fracctrl's own (FFT convolutions, a loop of small matrix products, a loop
of float arithmetic, a vectorised power) and calls nothing in fracctrl, so
a change to fracctrl moves the operations and not the reference.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.signal import fftconvolve

# Median reference time on a 2-CPU Intel Xeon sandbox (Python 3.11.7, numpy
# 2.4.6, scipy 1.17.1) in a quiet stretch; it only fixes the unit, so that
# reported times read as seconds on that host.
REF_NOMINAL_S = 2.0e-3
REF_SHARE = 0.1  # reference time per busy second of operations


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.x, self.y = rng.standard_normal((2, 2049))
        self.z = rng.standard_normal(16385)
        self.m = 0.3 * rng.standard_normal((3, 3))
        self.eye = np.eye(3)
        self.times, self.total = [], 0.0
        for _ in range(3):  # FFT plans and allocator warm before the first sample
            self._task()

    def _task(self) -> None:
        for _ in range(4):
            fftconvolve(self.x, self.y)
        v = self.eye
        for _ in range(100):
            v = v @ self.m + self.eye
        s = 0.0
        for i in range(8000):
            s += i * 0.5
        np.power(np.abs(self.z), 0.37)

    def sample(self) -> float:
        """Time the reference once; returns the wall time it took."""
        t0 = time.perf_counter()
        self._task()
        dt = time.perf_counter() - t0
        self.times.append(dt)
        self.total += dt
        return dt

    def keep_up(self, busy: float) -> float:
        """Sample until the reference has run REF_SHARE of ``busy`` seconds
        (at least once); returns the wall time spent."""
        spent = 0.0 if self.times else self.sample()
        while self.total < REF_SHARE * busy:
            spent += self.sample()
        return spent

    def factor(self) -> float:
        """Multiply a measured time by this to get it at nominal speed."""
        return REF_NOMINAL_S / statistics.median(self.times)
