"""Machine-speed calibration, so that timings from a shared machine compare.

The baseline was measured on a 2-vCPU Linux VM that shares its host with
other tenants. A fixed loop's time there swings by up to 1.7x in phases
that last from seconds to minutes, so a 25 s run's raw timings moved by as
much between runs. Over the same phases the ratio of the program's work
(estimate_all and the search's reject matrices) to a pure-Python loop like
_kernel stayed within about 10% in 6 s buckets over 100 s, because the
slowdown hits both alike.

So every timing is also scaled to a reference speed. While the workload
runs, a SIGALRM handler times _kernel every CAL_INTERVAL_S of wall time,
also in the middle of a long op (the process stays single-threaded), and
the time spent in the handler is taken out of the op that it interrupted.
An op's time is multiplied by CAL_REF_S over the mean kernel time measured
during the op, or around it when the op is shorter than the interval. A
scaled time reads in milliseconds or seconds on a machine that runs the
kernel in CAL_REF_S, about the kernel's time in a quiet phase of the
machine the baseline was measured on. The report prints raw values too.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
from time import perf_counter

# the kernel's time at the reference speed: defines the scaled unit
CAL_REF_S = 0.003
CAL_INTERVAL_S = 0.5
CAL_REPEATS = 3


def _kernel() -> float:
    """Fixed interpreter work of the kind the program does: calls, float
    math, a dict and a list."""
    seen: dict[int, float] = {}
    terms = []
    for i in range(1, 4000):
        k = i % 97
        value = math.exp(math.lgamma(k + 1) - math.lgamma(i % 13 + 1) + math.log1p(-1.0 / (i + 1)))
        seen[k] = seen.get(k, 0.0) + value
        terms.append(value * 1e-12)
    return math.fsum(terms) + len(seen)


def measure() -> float:
    """The kernel's time now: the median of CAL_REPEATS runs."""
    times = []
    for _ in range(CAL_REPEATS):
        start = perf_counter()
        _kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


class Sampler:
    """Times the kernel every CAL_INTERVAL_S from a SIGALRM handler.

    `points` holds (moment, kernel time) pairs; `spent` is the total time
    spent in the handler, for callers to take out of their own timings.
    """

    def __init__(self) -> None:
        self.points: list[tuple[float, float]] = []
        self.spent = 0.0
        self._previous = None

    def sample(self, *_args) -> None:
        start = perf_counter()
        cal = measure()
        self.points.append((start, cal))
        self.spent += perf_counter() - start

    def factor_since(self, start: float) -> float:
        """Scale for work that began at start, from the samples so far."""
        recent = [cal for moment, cal in self.points if moment >= start] or [self.points[-1][1]]
        return CAL_REF_S / statistics.fmean(recent)

    def __enter__(self) -> "Sampler":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()


class Timeline:
    """Kernel times taken at known moments of one process."""

    def __init__(self, points: list[tuple[float, float]]):
        self.points = sorted(points)
        self.moments = [t for t, _ in self.points]

    def factor(self, start: float, end: float) -> float:
        """Scale for work done between start and end: CAL_REF_S over the
        mean kernel time measured inside that interval or, when there is
        none, the last before it and the first after it."""
        first = bisect.bisect_left(self.moments, start)
        last = bisect.bisect_right(self.moments, end)
        inside = [cal for _, cal in self.points[first:last]]
        if not inside:
            inside = [self.points[i][1] for i in (first - 1, last) if 0 <= i < len(self.points)]
        return CAL_REF_S / statistics.fmean(inside)

    def median_factor(self) -> float:
        return CAL_REF_S / statistics.median(cal for _, cal in self.points)
