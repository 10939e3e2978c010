"""A fixed pure-Python kernel whose time tracks the machine's current speed.

On a shared machine the speed of one vCPU changes by up to 2x within seconds
(other tenants on the same cores).  The benchmark samples this kernel on the
CPU its operations run on, ten times a second while they run, and
reports times scaled to a machine on which one kernel run takes
REF_NOMINAL_S.  The kernel is part of the benchmark, never of the program, so
a change to gradedhecke cannot change it.
"""

from fractions import Fraction
from statistics import fmean
from time import perf_counter

REF_NOMINAL_S = 0.0008

_M = [[Fraction(i + 1, j + 2) for j in range(6)] for i in range(6)]


def _kernel():
    """Exact 6x6 matrix products and dict updates, as in the program."""
    acc = {}
    for step in range(1):
        prod = [[sum((a * b for a, b in zip(row, col)), Fraction(step))
                 for col in zip(*_M)] for row in _M]
        acc[step % 7] = acc.get(step % 7, 0) + prod[step % 6][0]
    return acc


def reference_seconds() -> float:
    """Time of one kernel run, under 1 ms: shorter than a scheduler slice.

    The lesser of two back-to-back runs, so that a sample the scheduler
    split by running another process in the middle is not taken."""
    times = []
    for _ in range(2):
        t0 = perf_counter()
        _kernel()
        times.append(perf_counter() - t0)
    return min(times)


def speed_factor(samples) -> float:
    """Multiplier from measured to reference-adjusted seconds."""
    return REF_NOMINAL_S / fmean(samples)
