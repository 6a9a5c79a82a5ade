"""Host-speed reference: a fixed piece of exact arithmetic, timed between jobs.

The shared host this benchmark was built on changes speed by up to a third
over minutes, in CPU time as much as in wall time, so raw timings of one run
cannot be compared with another's.  The same slowdown hits this kernel, which
does the program's kind of work (Fraction elimination, list and dict
traffic) but is fixed code.  Times are therefore reported *normalized*: a
measured time t becomes t * NOMINAL_S / r, where r is the kernel's time
measured next to t.  A normalized time reads as "seconds on a host where the
kernel takes NOMINAL_S".
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.005  # the kernel's typical time on the 2-vCPU host of the baseline
# set-up times are normalized instead by the interpreter start of the same
# process (spawn until the probe script's first line), which is fixed code
# timed moments before the import; its typical time there:
START_NOMINAL_S = 0.06
REPS = 3
REFRESH_S = 0.25  # the host's speed changes within a second; re-time the kernel this often


def kernel() -> None:
    """Reduced row echelon form of a fixed 10x10 rational matrix."""
    n = 10
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + 2 * j) % 5 + 1) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            continue
        m[col], m[pivot] = m[pivot], m[col]
        inv = m[col][col]
        m[col] = [v / inv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]


def measure() -> float:
    """Median kernel time over REPS runs, in seconds."""
    times = []
    for _ in range(REPS):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)
