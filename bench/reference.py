"""A fixed reference computation that measures how fast the machine is now.

On a shared machine the speed of pure-Python code drifts by tens of percent
within a minute, as neighbours come and go.  The benchmark runs this kernel
every so often between operations and converts each stretch of measured
wall time into reference seconds: the time the same stretch would take if
the kernel ran in ``NOMINAL_S``.  A program change cannot move the kernel,
so any change in a reference-second figure is the program's.

The kernel mixes the two kinds of work the program does: integer
arithmetic in a tight loop, and a depth-first walk enumeration that builds
a tuple for every walk and weighs it.  It never touches the program.  Each
walk is folded into a running total and dropped, so the kernel holds no
memory beyond its recursion and cannot set the run's peak resident memory.
The cyclic garbage collector is paused while it runs, so its time does not
depend on how much memory the program is holding.
"""

from __future__ import annotations

import gc
import time

NOMINAL_S = 0.056


def kernel() -> int:
    total = 0
    for i in range(200_000):
        total += (i * i) % 7
    hs = [3]

    def step(x: int) -> int:
        if x == 15:
            walk = tuple(hs)
            return hash(walk) & 0xFFFF ^ sum(i * h for i, h in enumerate(walk))
        h = hs[-1]
        acc = 0
        for nh in (h - 1, h + 1):
            if 0 <= nh <= 6:
                hs.append(nh)
                acc += step(x + 1)
                hs.pop()
        return acc

    return total + step(0)


def kernel_seconds() -> float:
    """Wall seconds one run of the kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        kernel()
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()
