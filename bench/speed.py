"""Machine-speed reference: a tiny fixed kernel timed after every sim step.

On a shared host the same work runs up to twice as slow while a neighbour is
busy, and the busy and idle stretches alternate within milliseconds; their
mix changes from minute to minute. The step clock times this kernel right
after each step return (outside the measured interval), and every interval
is rescaled by the median kernel time of the nine steps around it, to the
time it would take on a nominal machine where the kernel takes
``NOMINAL_NS``. A change in the program's own cost is not rescaled away,
because the kernel shares no code with the program.

The kernel mixes the two kinds of work the program does: interpreter-bound
float arithmetic and a small numpy matrix product.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

NOMINAL_NS = 15_000.0
WINDOW = 4  # steps on each side of the one being rescaled

_A = np.full((8, 8), 0.5)


def kernel() -> float:
    s = 0.0
    for i in range(150):
        s += math.sqrt(i + 1.0)
    return s + float(np.dot(_A, _A)[0, 0])


def probe() -> int:
    """Nanoseconds one kernel call takes now."""
    t0 = time.perf_counter_ns()
    kernel()
    return time.perf_counter_ns() - t0


def scales(probes: list[int]) -> list[float]:
    """Per-step factor from measured to nominal time (windowed median of probes)."""
    n = len(probes)
    return [
        NOMINAL_NS / statistics.median(probes[max(0, i - WINDOW) : min(n, i + WINDOW + 1)])
        for i in range(n)
    ]
