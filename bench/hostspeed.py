"""Host speed reference: a fixed piece of the benchmark's own work, timed
between operations.

The benchmark runs on a few vCPUs of a shared host whose speed swings by
up to 2x, for seconds and sometimes for minutes at a time; taking the best
or the median over a run cannot remove a slowdown that lasts the whole run.
So the kernel is timed between the ops of a run, and every op's time is
divided by the host's slowdown around it, the median kernel time there over
NOMINAL_S.  The timing metrics then read as on a host running at nominal
speed.  The kernel mixes the kinds of work diracladder does (interpreted
float loops, small numpy calls, mpmath arithmetic) and calls nothing in
diracladder, so a change to the package cannot move it.
"""

from __future__ import annotations

import math
import statistics
import time

# the kernel's time on this host class (2-vCPU, Python 3.11) when the host
# is quiet; it only sets the scale of the normalised times
NOMINAL_S = 2.0e-3
# kernel times behind one slowdown: enough that its median moves by a few
# per cent at most, few enough to span well under a second of ops
MIN_SAMPLES = 40


def kernel() -> float:
    import mpmath
    import numpy as np
    x = 0.0
    for i in range(1, 3000):
        x += math.sqrt(i) / (i + x)
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(80):
        a = np.sqrt(a * a + 1.0) - 0.5
    with mpmath.workprec(113):
        s = mpmath.mpf(0)
        for i in range(1, 160):
            s += mpmath.mpf(1) / i
    return x + float(a[-1]) + float(s)


def sample() -> float:
    """Seconds one kernel run takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def slowdowns(gaps) -> list:
    """Host slowdown at each op of a round.

    gaps[g] holds the kernel times measured just before op g (the last gap
    follows the last op).  An op's slowdown is the median kernel time over
    NOMINAL_S in the gaps on either side of it, widened on both sides until
    it holds MIN_SAMPLES samples.
    """
    result = []
    for i in range(len(gaps) - 1):
        lo, hi = i, i + 2
        while sum(map(len, gaps[lo:hi])) < MIN_SAMPLES and (lo > 0 or hi < len(gaps)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(gaps))
        result.append(statistics.median(t for g in gaps[lo:hi] for t in g) / NOMINAL_S)
    return result
