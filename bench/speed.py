"""The machine's speed of the moment, measured by a fixed reference loop.

On a shared host the CPU speed a process gets drifts by 20-40 % over tens
of seconds to minutes (other tenants, frequency scaling), which is more
than any change worth measuring.  The benchmark therefore runs this loop
right before and right after every unit and every set-up, and scales the
interval's wall time by REFERENCE_LOOP_S / (mean of the two loop times):
a time in reference seconds is what the interval would take on a machine
where the loop takes REFERENCE_LOOP_S.  On a 2-CPU x86_64 VM, over seven
minutes of the analyze-gf-deep workload, this cut the quartile spread of
30-second throughput windows from 17 % (wall) to 4.4 % (scaled).

The loop is fixed benchmark code that does not touch the package: exact
rational and modular matrix products in pure Python, the two kinds of
arithmetic the workloads spend their time in.  It runs with the cyclic
garbage collector off, so the size of the package's heap cannot change
its time.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

REFERENCE_LOOP_S = 0.010
WARM_UP_LOOPS = 5


class _Mod:
    __slots__ = ("v",)
    P = 1000003

    def __init__(self, v):
        self.v = v % self.P

    def __add__(self, other):
        return _Mod(self.v + other.v)

    def __mul__(self, other):
        return _Mod(self.v * other.v)


_RATIONAL = [[Fraction(7 * i + j + 1, j + 3) for j in range(7)] for i in range(7)]
_MODULAR = [[_Mod(131 * i + 17 * j + 5) for j in range(12)] for i in range(12)]


def _loop():
    a = _RATIONAL
    for _ in range(2):
        a = [[sum((a[i][k] * _RATIONAL[k][j] for k in range(7)), Fraction(0))
              for j in range(7)] for i in range(7)]
    b = _MODULAR
    for _ in range(3):
        b = [[sum((b[i][k] * _MODULAR[k][j] for k in range(1, 12)), b[i][0] * _MODULAR[0][j])
              for j in range(12)] for i in range(12)]
    return a, b


def loop_seconds():
    """Wall seconds of one reference loop, timed with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Reference loops between timed intervals, and the scale for each interval."""

    def __init__(self):
        for _ in range(WARM_UP_LOOPS):
            loop_seconds()
        self.last = loop_seconds()
        self.loops = [self.last]

    def scale(self):
        """Reference seconds per wall second over the interval since the last loop.

        Call it right after the interval ends; it runs the loop that closes
        this interval and opens the next.
        """
        now = loop_seconds()
        self.loops.append(now)
        factor = 2 * REFERENCE_LOOP_S / (self.last + now)
        self.last = now
        return factor
