"""Host-speed normalization of wall times.

On the 2-vCPU VM this benchmark was built on, other tenants slow the vCPUs
by up to 1.7x, for stretches of seconds to minutes, so the same code read
up to 45% slower from one run to the next.  A fixed pure-Python loop, timed
before and after every op, slows with it.  Each op's wall time is therefore
reported in nominal seconds: multiplied by ``NOMINAL_LOOP_S`` over the mean
loop time around the op.  The ratio of program time to loop time is what a
change to the program moves; the host's speed cancels out of it.
"""

from __future__ import annotations

import math
import time

LOOP_ITERATIONS = 4000
# The loop's time on an uncontended 2 GHz Xeon vCPU; it only sets the unit.
NOMINAL_LOOP_S = 5.0e-4


def loop_seconds() -> float:
    """Best of three timings of a fixed pure-Python loop (about 0.5 ms each)."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        table = {}
        for i in range(LOOP_ITERATIONS):
            acc += i * i
            table[i & 63] = (i, acc)
        best = min(best, time.perf_counter() - start)
    return best


def nominal(seconds: float, loop: float) -> float:
    """``seconds`` measured while the loop took ``loop``, in nominal seconds."""
    return seconds * NOMINAL_LOOP_S / loop
