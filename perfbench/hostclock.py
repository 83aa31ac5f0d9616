"""Host-speed calibration: timings rescaled to a reference host speed.

The shared 2-CPU host this benchmark was tuned on drifts in speed by
10-40 % over seconds and minutes, each CPU on its own, and the same cell
measured twice a minute apart can differ by a third.  While a
:class:`HostClock` is active, an interval timer interrupts the program
every ``TICK_S`` and runs :func:`calibration_kernel`, which does the same
work every time, so its duration tracks the speed the program is getting
right then.  A span of program time is rescaled by ``CAL_REF_S`` over the
kernel's (trimmed) mean duration during that span, after the kernel's own
time is taken out: a span that ran in a slow spell is scaled down, one in
a fast spell up.  The kernel is plain Python and uses no code of the
program, so a faster program still reads faster.

This module imports nothing of the program, so a process can start the
clock before it imports ``repro``.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from typing import Any

#: seconds between calibration ticks
TICK_S = 0.05
#: the kernel's typical duration inside a benchmark run on the reference host
#: (2 vCPUs, Python 3.11): rescaled timings are seconds at that speed
CAL_REF_S = 0.0042
#: a span with fewer ticks than this borrows the ticks nearest to it
MIN_TICKS = 5
#: share of a span's tick durations cut from each end before averaging
TRIM = 0.2


def calibration_kernel() -> int:
    """A fixed slice of event-loop-shaped interpreter work: heap, dict, tuples."""
    heap: list[tuple[int, int]] = []
    seen: dict[int, int] = {}
    for i in range(4000):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        seen[i % 97] = seen.get(i % 97, 0) + 1
    total = 0
    while heap:
        total += heapq.heappop(heap)[1]
    return total


class HostClock:
    """Calibration ticks while active; rescales spans of ``time.perf_counter()``.

    ``perf_counter`` is the system-wide ``CLOCK_MONOTONIC`` on Linux, so a
    span may start in another process (the parent that spawned this one).
    """

    def __init__(self, tick_s: float = TICK_S) -> None:
        self.tick_s = tick_s
        #: (perf_counter() at the tick, kernel seconds)
        self.ticks: list[tuple[float, float]] = []
        self._in_tick = False

    def _tick(self, signum: int, frame: Any) -> None:
        if self._in_tick:  # a tick delayed past the next one: skip, do not nest
            return
        self._in_tick = True
        t0 = time.perf_counter()
        calibration_kernel()
        self.ticks.append((t0, time.perf_counter() - t0))
        self._in_tick = False

    def __enter__(self) -> HostClock:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def kernel_s(self, start: float, end: float) -> float:
        """Trimmed mean of the kernel's seconds over ``[start, end)``.

        A span with fewer than ``MIN_TICKS`` ticks uses the ticks nearest to
        its midpoint.  Trimming drops the ticks a context switch stretched,
        and the rare one that ran on a quiet CPU.
        """
        inside = [dt for t, dt in self.ticks if start <= t < end]
        if len(inside) < MIN_TICKS:
            mid = (start + end) / 2
            nearest = sorted(self.ticks, key=lambda tick: abs(tick[0] - mid))
            inside = [dt for _, dt in nearest[:MIN_TICKS]]
        inside.sort()
        cut = int(len(inside) * TRIM)
        return statistics.fmean(inside[cut : len(inside) - cut])

    def speed(self, start: float, end: float) -> float:
        """The host's speed over the span, relative to the reference host."""
        return CAL_REF_S / self.kernel_s(start, end)

    def normalised_s(self, start: float, end: float) -> float:
        """The span's seconds, without the kernel's, at the reference speed."""
        busy = sum(dt for t, dt in self.ticks if start <= t < end)
        return max(end - start - busy, 0.0) * self.speed(start, end)
