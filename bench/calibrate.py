"""Speed calibration: a fixed kernel timed between the commands.

On a shared host the speed that other tenants leave to one Python thread
moves by up to 2x, for stretches of seconds to minutes, so raw command
times from two runs of the same code differ by more than the regressions
the benchmark has to catch.  The benchmark therefore times a
fixed kernel, which never changes with the program, about every
`EVERY_S` seconds of command time, and reports each command's time at a
nominal speed: its raw time times `NOMINAL_S` over the median of the
kernel times taken around it.  A program that does 30% more work reads
30% slower at any machine speed; a machine that runs 30% slower for a
minute moves the kernel and the commands alike and leaves the reported
time where it was.  Raw times are kept in the run's report.

The kernel mixes the three kinds of work the program does: an
interpreter loop over small ints, word-parallel operations on long
Python ints, and conversion between long ints and bit strings.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

NOMINAL_S = 0.010  # the kernel's time at the nominal speed
EVERY_S = 0.25  # command seconds between two kernel samples
WINDOW = 3  # kernel samples taken on each side of a command

_MASK = (1 << 40_000) - 1


def kernel() -> None:
    s = 0
    for i in range(48_000):
        s += i * i % 7
    x, y = _MASK - 12_345, _MASK >> 3
    for _ in range(300):
        x = ((x << 1) ^ y) & _MASK
        y += x.bit_count()
    for _ in range(8):
        int(format(x, "b")[::-1], 2)


def sample() -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start


class Calibration:
    """Kernel samples placed between the commands of one timed loop."""

    def __init__(self):
        self.at: list[int] = []  # commands run before each sample
        self.seconds: list[float] = []
        self._since = EVERY_S

    def after(self, done: int, command_s: float) -> None:
        """Call after each command, with the number of commands run so far."""
        self._since += command_s
        if self._since >= EVERY_S:
            self.at.append(done)
            self.seconds.append(sample())
            self._since = 0.0

    def scales(self, count: int) -> list[float]:
        """NOMINAL_S over the local kernel median, for commands 0..count-1."""
        out = []
        for i in range(count):
            j = bisect.bisect_right(self.at, i)
            local = self.seconds[max(0, j - WINDOW) : j + WINDOW]
            out.append(NOMINAL_S / statistics.median(local))
        return out
