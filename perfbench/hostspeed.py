"""Host speed probe: a fixed kernel, timed right before and right after every
measured interval, that turns the interval's wall time into reference seconds.

The benchmark runs on a few vCPUs of a shared machine whose speed drifts with
its neighbours' load: the same pass of the same inputs takes from 1x to 1.8x
its fastest time, in phases lasting from a second to minutes, with CPU time
equal to wall time (the process is slowed, not descheduled). A median over
one run cannot remove a phase that covers most of the run. Scaling each
interval by the kernel's time around it can: the kernel is benchmark code, the
same on every commit, so the ratio moves only when the program's work does.

    reference seconds = wall seconds * REFERENCE_S / kernel seconds

where kernel seconds is the mean of the kernel's time before and after the
interval. Intervals are kept short (one unit of work, or one set-up) so the
probes around them sample the speed the interval ran at. The kernel mixes the
kinds of work the program does: interpreted integer and dict operations,
float formatting into strings, and numpy scans and sorts of a 50k-element
array. It runs with the garbage collector off and keeps nothing alive, so the
program's heap does not change its time.
"""

import gc
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.013   # mean kernel time on a 2-vCPU Intel Xeon host, Python 3.11, numpy 2.4
REPEATS = 5           # kernel runs per probe
_ARRAY = np.arange(50_000, dtype=np.float64) * 0.37


def _kernel():
    counts = {}
    total = 0
    for i in range(20_000):
        x = (i * 2654435761) & 0xFFFF
        counts[x & 1023] = counts.get(x & 1023, 0) + 1
        total += x
    text = ",".join(f"{v:.6g}" for v in _ARRAY[:4000].tolist())
    for _ in range(6):
        np.cumsum(_ARRAY).argmax()
        np.sort(_ARRAY[::-1])
    return total + len(text)


def kernel_seconds() -> float:
    """Mean wall time of REPEATS kernel runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(REPEATS):
            _kernel()
        return (perf_counter() - t0) / REPEATS
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Kernel probes between timed intervals, and the intervals in reference seconds.

        clock = Clock()                    # first probe
        for ...:
            wall = <time one interval>
            clock.probe()
        clock.reference_s([wall, ...])     # the last intervals, each scaled by
                                           # the mean of the probes around it
    """

    def __init__(self):
        self.probes = [kernel_seconds()]

    def probe(self):
        self.probes.append(kernel_seconds())

    def reference_s(self, walls) -> float:
        around = self.probes[-len(walls) - 1:]
        return sum(w * 2 * REFERENCE_S / (a + b) for w, a, b in zip(walls, around, around[1:]))

    def speed(self) -> float:
        """Median host speed seen so far, relative to the reference host."""
        return REFERENCE_S / statistics.median(self.probes)
