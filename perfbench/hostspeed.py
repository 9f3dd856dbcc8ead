"""Adjust measured times for the host's drifting speed.

On a shared host the speed of a core drifts as other tenants load its
sibling: a fixed pure-Python loop takes 1.0x to 1.5x its quiet-host time,
in stretches that last from a second to half a minute.  That drift, not
pumpsim, would dominate the spread of a 30 s run.

While passes are measured, a real-time timer interrupts the benchmark every
``INTERVAL`` seconds and times one fixed calibration loop.  The clock the
benchmark reads excludes the time spent in those loops, and the speed factor
of a stretch is the mean of ``REFERENCE / loop time`` over the samples taken
in it: a time multiplied by its factor is the time that work takes when the
calibration loop runs at ``REFERENCE``, as it does on a quiet host.
"""

from __future__ import annotations

import signal
import time

INTERVAL = 0.05  # s between samples; a sample costs about 1% of the run
LOOPS = 5000
# Calibration loop time on a quiet host (Intel Xeon, 2 vCPUs, Python 3.11):
# the lowest of 2000 back-to-back loops.
REFERENCE = 3.8e-4


def _calibration_loop() -> float:
    x = 0.0
    for i in range(LOOPS):
        x = x * 0.999999 + (i % 7) * 1e-3
    return x


class HostSpeed:
    """Samples the host's speed while in use as a context manager."""

    def __init__(self):
        self.samples: list[float] = []
        self._spent = 0.0
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _calibration_loop()
        spent = time.perf_counter() - t0
        self.samples.append(spent)
        self._spent += spent

    def clock(self) -> float:
        """Seconds elapsed, less the time the calibration loops took."""
        return time.perf_counter() - self._spent

    def factor(self, since: int) -> float:
        """Speed factor over the samples from index ``since`` on."""
        window = self.samples[since:]
        if not window:
            return 1.0
        return sum(REFERENCE / t for t in window) / len(window)
