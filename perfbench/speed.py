"""A clock that reads seconds at a fixed reference speed of the host.

The 2-core reference machine is a share of a host whose speed drifts: the
same code runs 20-40 % slower for seconds to minutes at a time, and a run's
median step time follows whichever phase covered most of the run.  The drift
slows pure Python, numpy and the sparse LU alike (a Python loop's duration
tracks a mixed numpy/LU step's within a few per cent over 2 s windows), so a
short fixed pure-Python kernel, run every `every` seconds, measures it.

`SpeedClock()` returns raw seconds with the kernel's own time taken out, so
spans timed with it never include calibration.  After the work,
`normal(t)` maps a raw time onto a time axis on which the kernel always
takes `NOMINAL_KERNEL_S`: each interval between two calibrations is scaled
by NOMINAL_KERNEL_S over the running median of the kernel's durations
around it.  A duration on that axis is what the work would have taken at
the reference speed; a change to the program moves it as it moves raw time.

Nothing here imports numpy or fpsi, so it can be tested with a fake timer.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import Callable, List

KERNEL_N = 20000
NOMINAL_KERNEL_S = 2.2e-3     # median kernel duration on the reference machine
SMOOTH = 3                    # calibrations in the running median


def kernel() -> int:
    s = 0
    for i in range(KERNEL_N):
        s += i * i % 7
    return s


class SpeedClock:
    """Raw seconds excluding calibration; calibrates when `every` has passed."""

    def __init__(self, every: float = 0.05, timer: Callable[[], float] = time.perf_counter,
                 work: Callable[[], object] = kernel, nominal: float = NOMINAL_KERNEL_S):
        self.every = every
        self.timer = timer
        self.work = work
        self.nominal = nominal
        self.hidden = 0.0             # seconds spent calibrating so far
        self.marks: List[float] = []  # raw time of each calibration
        self.kernel_s: List[float] = []
        self._due = -float("inf")
        self._axis = None

    def __call__(self) -> float:
        t = self.timer()
        if t >= self._due:
            self.calibrate(t)
            t = self.timer()
        return t - self.hidden

    def calibrate(self, t0: float = None) -> None:
        """Time the kernel once now; the time it takes is hidden from the clock."""
        if t0 is None:
            t0 = self.timer()
        self.work()
        t1 = self.timer()
        self.marks.append(t0 - self.hidden)
        self.kernel_s.append(t1 - t0)
        self.hidden += t1 - t0
        self._due = t1 + self.every
        self._axis = None

    # -- the reference-speed axis ------------------------------------------

    def _build(self):
        n = len(self.marks)
        half = SMOOTH // 2
        smooth = [statistics.median(self.kernel_s[max(0, i - half):i + half + 1])
                  for i in range(n)]
        rates = [self.nominal / smooth[0]]                  # before the first mark
        rates += [2.0 * self.nominal / (smooth[i] + smooth[i + 1]) for i in range(n - 1)]
        rates.append(self.nominal / smooth[-1])             # after the last mark
        acc = [0.0]
        for i in range(n - 1):
            acc.append(acc[-1] + (self.marks[i + 1] - self.marks[i]) * rates[i + 1])
        self._axis = (rates, acc)

    def normal(self, t: float) -> float:
        """Raw clock reading -> seconds at the reference speed (same origin as marks[0])."""
        if not self.marks:
            raise ValueError("no calibration recorded")
        if self._axis is None:
            self._build()
        rates, acc = self._axis
        i = bisect.bisect_right(self.marks, t)      # marks[i-1] <= t < marks[i]
        if i == 0:
            return (t - self.marks[0]) * rates[0]
        return acc[i - 1] + (t - self.marks[i - 1]) * rates[i]

    def speed(self) -> float:
        """Median of NOMINAL_KERNEL_S / kernel duration: above 1 is faster than nominal."""
        return statistics.median(self.nominal / d for d in self.kernel_s)
