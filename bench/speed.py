"""Machine-speed probe: a fixed reference loop run from a timer signal.

The host this benchmark was built on changes speed by up to 1.7x within
fractions of a second, because other tenants share its cores, and process
CPU time slows with it.  So during a timed region a timer signal runs a
short fixed reference loop every `period` seconds in the benchmark's own
thread.  The region's wall time net of those ticks, divided by the mean
tick, is its time in reference-loop units ("ref"), which stays far steadier
than wall time while the machine speed moves.  The mean, not the median, is
taken because the speed switches between fast and slow states and the
region's time integrates both.  A ref is about 1 ms on the 2-core Xeon
where the benchmark was built; NOMINAL_S turns refs into nominal seconds.

The reference loop mixes the three kinds of work the package does:
interpreter steps, numpy calls on small arrays and numpy calls on arrays of
a few thousand points.  A probe of any one kind alone tracked the
workloads' speed worse.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD = 0.05  # seconds between ticks during passes
NOMINAL_S = 1e-3  # nominal seconds per ref
_SMALL = np.linspace(-1.5, 1.5, 601)
_MID = np.linspace(-1.5, 1.5, 4001)


def _bump_count(x: np.ndarray) -> int:
    u = x * 0.7
    return int(np.count_nonzero(np.where(np.abs(u) < 1.0, (1.0 - u * u) ** 3, 0.0)))


def reference_loop() -> int:
    """The fixed unit of work whose duration defines one ref."""
    s = 0
    for _ in range(16):
        s += _bump_count(_SMALL)
        for i in range(300):
            s += i
    for _ in range(4):
        s += _bump_count(_MID)
    for i in range(5000):
        s += i
    return s


class SpeedProbe:
    """Context manager that ticks the reference loop while a region runs.

    ticks holds (start, end, parent) per tick; parent is the innermost open
    span on the tracer stack given, so traced spans can be taken net of the
    ticks inside them.  After a region, inside_s is the tick time inside it,
    ref_s the mean tick and last the region's ticks.
    """

    def __init__(self, stack: list | None = None, period: float = PERIOD) -> None:
        self.ticks: list[tuple[float, float, int]] = []
        self.last: list[tuple[float, float, int]] = []
        self.inside_s = 0.0
        self.ref_s = 0.0
        self._stack = stack if stack is not None else []
        self._period = period
        self._first = 0
        self._old = None

    def _tick(self, signum=None, frame=None) -> None:
        parent = self._stack[-1] if self._stack else -1
        t0 = time.perf_counter()
        reference_loop()
        self.ticks.append((t0, time.perf_counter(), parent))

    def __enter__(self) -> "SpeedProbe":
        self._first = len(self.ticks)
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self._period, self._period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self.last = self.ticks[self._first :]
        inside = [end - start for start, end, _ in self.last]
        self.inside_s = sum(inside)
        if not inside:  # region shorter than one period: sample once after it
            t0 = time.perf_counter()
            reference_loop()
            inside = [time.perf_counter() - t0]
        self.ref_s = statistics.fmean(inside)
