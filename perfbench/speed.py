"""Machine speed, sampled throughout a run.

Neighbours on a shared host change how fast a CPU runs Python by up to a
factor of two, switching within a second and sometimes staying slow for a
whole run; raw times moved by up to 45% between runs.  A Speedometer
therefore times a short fixed pure-Python loop every 20 ms, from a SIGALRM
handler, for as long as it is active.  A time measured over [t0, t1] is
reported at reference speed: the time the handler took inside the
interval is subtracted, and the rest is scaled by UNIT over the mean
loop time sampled in and around the interval.  The mean follows the
machine through changes of speed inside the interval; it leaves out
samples over three times the median, which were stretched by an interrupt
or by waiting for a child process working on the same CPU.

The loop does what the package's hot loops do (scalar float arithmetic,
math.tanh, a call and a tuple per step) and never touches the package, so
a change to the package moves only the measured time.  The sampling costs
about 1% of the run.  Signal handlers run between bytecodes, so inside a
long native call the samples wait for it to return; operations shorter
than a sampling interval borrow the samples around them.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

# Loop time that defines the unit: a scaled second is a second on a
# machine that runs the loop in UNIT seconds, about the loop's time on an
# unloaded 2-core Xeon virtual machine.
UNIT = 1e-4
INTERVAL = 0.02
_STEPS = 350
# Samples this close to an interval also describe it.
_MARGIN = 0.1
_OUTLIER = 3.0


def _step(s: float, h: float, b1: float, b2: float) -> tuple:
    a = math.tanh(b1 * s + b2 * h)
    return s + 0.01 * (a - s), h + 0.01 * (math.tanh(2.0 * a) - h)


def _loop() -> float:
    s, h = 0.1, 0.2
    for _ in range(_STEPS):
        s, h = _step(s, h, 1.1, 0.55)
    return s + h


class Speedometer:
    """Samples the loop time while active (use as a context manager)."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _loop()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, t0: float, t1: float) -> tuple:
        """(raw, scaled) seconds of the interval [t0, t1] on the
        perf_counter clock, both without the sampling inside it."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        raw = (t1 - t0) - sum(self.durations[lo:hi])
        near = self.durations[bisect.bisect_left(self.starts, t0 - _MARGIN):
                              bisect.bisect_left(self.starts, t1 + _MARGIN)]
        if not near:
            raise RuntimeError("no speed sample near the interval")
        cut = _OUTLIER * statistics.median(near)
        return raw, raw * UNIT / statistics.fmean(d for d in near if d <= cut)

    def median_factor(self) -> float:
        return UNIT / statistics.median(self.durations)
