"""Host-speed readings from a fixed reference kernel, taken while passes run.

The shared host this benchmark was built on changes speed by 15-30% over
seconds to minutes, and whole runs can land in a fast or a slow state.  The
same drift slows a fixed kernel run on the same CPU, so a pass time divided
by the kernel's time measured during that pass cancels most of it.

The kernel is the benchmark's own code, a frozen miniature of one forward
solve (Hankel kernel table, gathers of the support block and of the full
block, dense complex solve, mat-vec), so it leans on the resources the
program uses and no change to the program can make it faster or slower.

Readings are taken every PERIOD_S seconds by a SIGALRM handler, which Python
runs in the main thread between bytecodes, so they land inside long
command-line calls too.  The handler only reads the clock and runs the
kernel on its own arrays; the time it takes is recorded so the runner can
leave it out of the pass it interrupted.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np
from scipy.special import hankel1

SAMPLES = 5  # kernel runs per reading; the reading is their median
PERIOD_S = 1.0
# About the median reading on the box the baseline was measured on (its
# readings ranged 7-12 ms); pass times are reported as if every reading had
# been this.
NOMINAL_READING_S = 0.010


class Reference:
    def __init__(self, n: int = 41, support: int = 260, k: float = 6.0):
        rng = np.random.default_rng(0)
        off = np.arange(n)
        self.r = 0.05 * np.hypot(off[:, None], off[None, :]).ravel()[1:]
        self.n, self.k = n, k
        m = np.arange(n * n)
        self.I, self.J = m % n, m // n
        sup = np.sort(rng.choice(n * n, support, replace=False))
        self.Is, self.Js = self.I[sup], self.J[sup]
        self.a = 0.5 + rng.random(support)

    def kernel(self) -> float:
        """One miniature forward solve; returns a checksum so nothing is skipped."""
        vals = np.empty(self.n * self.n, dtype=complex)
        vals[0] = 0.25j
        vals[1:] = 0.25j * hankel1(0, self.k * self.r)
        table = vals.reshape(self.n, self.n)
        G_ss = table[np.abs(self.Is[:, None] - self.Is[None, :]),
                     np.abs(self.Js[:, None] - self.Js[None, :])]
        A = np.eye(self.a.size, dtype=complex) - 0.01 * (G_ss * self.a[None, :])
        u = np.linalg.solve(A, np.ones(self.a.size, dtype=complex))
        G_all = table[np.abs(self.I[:, None] - self.Is[None, :]),
                      np.abs(self.J[:, None] - self.Js[None, :])]
        return float(np.abs(G_all @ (self.a * u)).sum())

    def reading(self) -> float:
        """Median time of SAMPLES kernel runs, in seconds."""
        times = []
        for _ in range(SAMPLES):
            t0 = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)


class Sampler:
    """Readings at a fixed period; each is (start, end, value) in perf_counter seconds."""

    def __init__(self):
        self.ref = Reference()
        self.readings: list[tuple[float, float, float]] = []
        self._taking = False

    def take(self) -> None:
        if self._taking:  # a tick that arrives during a reading is skipped
            return
        self._taking = True
        try:
            t0 = time.perf_counter()
            value = self.ref.reading()
            self.readings.append((t0, time.perf_counter(), value))
        finally:
            self._taking = False

    @contextlib.contextmanager
    def running(self):
        """Take a reading now, every PERIOD_S while the block runs, and at its end."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.take())
        self.take()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.take()

    def busy(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] spent taking readings."""
        return sum(max(0.0, min(e, t1) - max(s, t0)) for s, e, _ in self.readings)

    def speed(self, t0: float, t1: float) -> float:
        """Median reading taken in [t0, t1], with the last one before it and the first after."""
        before = [r for r in self.readings if r[1] <= t0][-1:]
        inside = [r for r in self.readings if r[1] > t0 and r[0] < t1]
        after = [r for r in self.readings if r[0] >= t1][:1]
        return statistics.median(v for _, _, v in before + inside + after)
