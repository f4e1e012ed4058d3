"""Machine-speed calibration for the benchmark's timings.

The benchmark machines are shared: over tens of seconds to minutes their speed
drifts by 13% to 25%, more than the regressions the benchmark should catch.  So
every timing is taken next to runs of a fixed kernel that does not use the
program under test.  The kernel mixes the three kinds of work the workloads
do: interpreted Python loops over dicts and ints, NumPy broadcasting over
mid-sized arrays, and SciPy binomial pmf/cdf evaluations over a long support.
A time is reported in reference seconds:

    reference seconds = measured seconds * REFERENCE_S / kernel seconds

where the kernel seconds are measured right before and after the timing.
The kernel runs in a process of its own,

    python3 benchmarks/calibrate.py

which answers every line on its standard input with the speed factor
REFERENCE_S / kernel seconds.  Run inside the measured process, the kernel
slowed down by a third after the random-table workload's large SciPy
arrays, so its time would have tracked the program's memory state as well as
the machine's speed.  Raw figures are printed next to the calibrated ones.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np
from scipy.stats import binom

# Typical kernel time on the machine the baseline was measured on (2-core
# Xeon VM, Python 3.11.7, NumPy 2.4.6, SciPy 1.17.1).  A constant: it scales
# every calibrated figure alike, and there a run of S reference seconds takes
# about S raw seconds.
REFERENCE_S = 0.034
REPEATS = 3


def _kernel() -> float:
    counts: dict[int, int] = {}
    for i in range(65_000):
        counts[i & 511] = counts.get(i & 511, 0) + i
    grid = np.linspace(0.0, 1.0, 1024)
    spread = sum(float(np.abs(grid[:, None] - grid[None, j:j + 128]).sum())
                 for j in range(0, 1024, 128))
    k = np.arange(40_001)
    mass = float((binom.pmf(k, 40_000, 0.3) * binom.cdf(k, 40_000, 0.31)).sum())
    return spread + mass + len(counts)


def kernel_seconds() -> float:
    """Median wall time of a few kernel runs, taken now."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def serve() -> None:
    for _ in sys.stdin:
        print(REFERENCE_S / kernel_seconds(), flush=True)


if __name__ == "__main__":
    serve()
