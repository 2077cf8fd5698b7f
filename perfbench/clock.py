"""Reference time: wall time rescaled by the host's current speed.

The hosts this benchmark runs on are shared. Their speed moves in phases
of seconds: a fixed pure-Python loop runs about 40% slower in a slow phase
than in a fast one, and a 10-second run can fall wholly in either. Wall
times taken in different phases do not compare, so the benchmark times a
fixed slice of work (which govtree plays no part in) next to each stretch
of measurement and reports times in reference seconds:

    reference seconds = wall seconds * REFERENCE_SLICE_S / slice seconds

``REFERENCE_SLICE_S`` is the time the slice took in a fast phase of an
x86-64 host with 2 vCPUs under CPython 3.11, so a reference second is
about a wall second there at full speed. Since the slice does not touch
govtree, a change to govtree moves reference times as it moves wall
times; only the host's phase drops out.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_SLICE_S = 0.010


def _spin(n: int) -> int:
    s = 0
    for i in range(n):
        s += i % 7
    return s


def slice_seconds() -> float:
    """Wall seconds the fixed calibration slice takes now."""
    start = perf_counter()
    for _ in range(100):
        _spin(2000)
    return perf_counter() - start


def scale(before: float, after: float) -> float:
    """Reference seconds per wall second for a stretch of measurement that
    lies between two calibration slices."""
    return REFERENCE_SLICE_S / ((before + after) / 2)
