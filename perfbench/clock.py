"""CPU time normalised to a fixed machine speed.

On a machine shared with other tenants the same single-threaded work takes
up to 1.9 times longer while neighbours load the CPU, in CPU time as well
as in wall time; the machine flips between its fast and slow states from
several times a second to once in minutes.  A short calibration kernel slows
down in step with the measured work, so each operation's CPU time is
multiplied by REFERENCE_KERNEL_S / c, where c is the kernel's mean time
while the operation ran: the result is CPU seconds on a machine that runs
the kernel in REFERENCE_KERNEL_S, which this one does in its slow state.

To see the speed during an operation, not only around it, a profiling
timer interrupts the process every PROBE_EVERY_S of CPU time and runs the
kernel in the signal handler; the handler's time is taken out of the
operation's time.  logsurf never runs the kernel's code, so a change to the
program moves only the numerator.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction
from typing import Callable

REFERENCE_KERNEL_S = 0.0025
PROBE_EVERY_S = 0.05

_N = 10
_MATRIX = [
    [Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3) + (20 if i == j else 0) for j in range(_N)]
    for i in range(_N)
]


def kernel() -> Fraction:
    """Fixed interpreter work like logsurf's: Fraction elimination, dicts, calls."""
    a = [row[:] for row in _MATRIX]
    for c in range(_N):
        for r in range(c + 1, _N):
            f = a[r][c] / a[c][c]
            for k in range(c, _N):
                a[r][k] -= f * a[c][k]
    counts: dict[int, int] = {}
    for i in range(2000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return a[-1][-1] + counts[0]


def kernel_time() -> float:
    # Thread CPU time: while a profiling timer is armed, Linux updates the
    # process CPU clock only at scheduler ticks, but the thread clock stays
    # exact.  The program is single-threaded, so the two measure the same.
    start = time.thread_time()
    kernel()
    return time.thread_time() - start


def normalise(raw_s: float) -> float:
    """`raw_s` at the reference speed, calibrated by the median of nine kernel runs."""
    return raw_s * REFERENCE_KERNEL_S / statistics.median(kernel_time() for _ in range(9))


class Meter:
    """Times operations in CPU seconds and samples the machine's speed meanwhile.

    Use as a context manager; with `probe` false no timer runs and only the
    kernel runs on entry and in `settle()` calibrate.  `settle()` scales each
    operation by the mean kernel time over the samples taken while it ran,
    together with the last one before and the first one after it.
    """

    def __init__(self, probe: bool = True) -> None:
        self.kernel_s: list[float] = []
        self._probe = probe
        self._probe_total = 0.0
        self._busy = False
        self._pending: list[tuple[list[float], int, int, int]] = []
        self._previous = None

    def _sample(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        k = kernel_time()
        self.kernel_s.append(k)
        self._probe_total += k
        self._busy = False

    def __enter__(self) -> "Meter":
        self._sample()
        if self._probe:
            self._previous = signal.signal(signal.SIGPROF, self._sample)
            signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *_) -> None:
        if self._probe:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, self._previous)

    def time(self, times: list[float], slot: int, work: Callable, *args):
        """Run `work(*args)` and put its CPU time in times[slot]; `settle()` normalises it."""
        first = len(self.kernel_s)
        probed = self._probe_total
        start = time.thread_time()
        try:
            return work(*args)
        finally:
            times[slot] = time.thread_time() - start - (self._probe_total - probed)
            self._pending.append((times, slot, first, len(self.kernel_s)))

    def settle(self) -> None:
        self._sample()
        for times, slot, first, last in self._pending:
            times[slot] *= REFERENCE_KERNEL_S / statistics.fmean(self.kernel_s[first - 1 : last + 1])
        self._pending.clear()
