"""Machine-speed probe for a shared, noisy host.

On a host whose cores are shared with other tenants the same code runs up
to twice as slowly from one second to the next.  The probe times a fixed
small-array numpy kernel, independent of the package, every ``INTERVAL``
seconds from a SIGALRM handler in the timed thread, so it sees the same
slow-downs as the code around it.

``clock()`` is ``time.perf_counter`` minus the time spent in the probe.
``scaled_clock()`` advances each interval between two samples by its
length times ``REFERENCE_S / kernel time`` at the end of the interval: it
reads seconds at the reference speed, so intervals timed with it hardly
depend on what else the host runs.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL = 0.02
# Kernel time on an uncontended core of the reference machine (Intel Xeon,
# 2 vCPUs, Python 3.11, numpy 2.4); only the scale of the scaled times.
REFERENCE_S = 2.5e-4
_X = np.linspace(0.5, 1.5, 128)


def kernel() -> None:
    """Small-array numpy and interpreter work, like one solver stage."""
    for _ in range(20):
        y = _X * 1.5 + _X ** 2.5
        z = np.where(y > 0.5, y, 0.1 * y)
        w = np.concatenate([[1.0], z, [2.0]])
        np.any(w < 0.0)


def snapshot(samples: int = 20) -> float:
    """Median kernel time over `samples` runs, for code the probe cannot
    interrupt (such as another process)."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[samples // 2]


class SpeedProbe:
    """Samples the kernel time while entered (a context manager)."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        # (scaled seconds so far, end of the last sample, its kernel time);
        # replaced as one tuple so a reader never sees a partial update
        self._state = (0.0, 0.0, REFERENCE_S)
        self._busy = False
        self._previous = None

    def _measure(self) -> float:
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt
        return dt

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        scaled, t_last, _ = self._state
        elapsed = time.perf_counter() - t_last
        dt = self._measure()
        self._state = (scaled + elapsed * REFERENCE_S / dt, time.perf_counter(), dt)
        self._busy = False

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def scaled_clock(self) -> float:
        scaled, t_last, dt = self._state
        return scaled + (time.perf_counter() - t_last) * REFERENCE_S / dt

    def __enter__(self) -> "SpeedProbe":
        dt = self._measure()
        self._state = (0.0, time.perf_counter(), dt)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
