"""The machine's speed right now, from a fixed block of pure-Python work.

The benchmark's host is shared: other tenants slow it by up to a factor of
two, in regimes that last from under a second to minutes.  Interference
slows every interpreted instruction alike, so the time of a fixed block of
``Fraction`` arithmetic (the program's own hot path, in the standard
library, which no change to the program can speed up) measures it.
Timings are scaled by ``REFERENCE_S / calibrate()`` taken next to them.
"""

import time
from fractions import Fraction

# calibrate() on the machine that made the baseline (a 2-vCPU shared VM,
# Python 3.11): the median over 300 blocks is 0.0055 s, the fastest 0.0047 s
REFERENCE_S = 0.005


def calibrate() -> float:
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 600):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    return time.perf_counter() - start
