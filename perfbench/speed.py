"""Machine speed, measured next to the ops, to put timings on a fixed scale.

On a shared host the speed of the same Python code drifts by more than half
within a minute, in stretches of seconds to minutes.  So the benchmark times
a fixed pure-Python reference slice before the first op and after every op,
and scales each op's wall time by

    REFERENCE_S / mean(slice before the op, slice after it)

The result is the op's time in seconds on a box where the slice takes
REFERENCE_S.  The slice uses no ``toroidal`` code, so a change to the
library moves the scaled times as it moves wall times, while drift moves the
slice and the op together and cancels.  Raw wall times are printed too.
"""

from __future__ import annotations

from time import perf_counter

# the slice's wall time on a 2-core x86-64 box with Python 3.11 at a steady
# stretch; scaled times read as seconds on such a box
REFERENCE_S = 0.003
_ITERATIONS = 20_000


def _reference_work(n: int) -> int:
    """Integer arithmetic, list indexing and dict stores, as in the library."""
    table: dict[int, int] = {}
    row = list(range(64))
    acc = 0
    for i in range(n):
        x = row[i & 63] * 3 + i
        acc = (acc + x * x) % 1_000_003
        table[i & 255] = acc
    return acc


def reference_slice() -> float:
    """Wall time of one reference slice, in seconds."""
    start = perf_counter()
    _reference_work(_ITERATIONS)
    return perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor from wall seconds to reference seconds between two slices."""
    return REFERENCE_S / ((before + after) / 2)
