"""Machine-speed normalisation of timings taken on a shared host.

On a host shared with other tenants the same Python code runs up to a third
slower in some seconds than in others; CPU time tracks wall time there, so
neither clock removes it.  The benchmark therefore times a fixed pure-Python
kernel, which shares no code with the package, next to the work it
measures, and scales each timing by ``NOMINAL_KERNEL_S / kernel time``.  A
reported second is a second at the kernel's nominal speed:
``NOMINAL_KERNEL_S`` is the kernel's time when run on its own on the 2-vCPU
Intel Xeon (2.1 GHz) machine the baseline was measured on.  Between the
benchmark's timed segments the kernel's table is partly out of cache and the
kernel runs slower, so there the scale is about 0.7 and reported times read
about 0.7 of wall time.

This module imports only ``math``, ``random`` and ``time``, none of which the
package needs beyond ``math``, so the set-up probe can use it before timing
``import nigcdf``.
"""

import math
import random
import time

KERNEL_ITERATIONS = 1500
NOMINAL_KERNEL_S = 0.00175
# 16384 tuples of five floats, about 3 MB: the kernel strides through them so
# that, like the package's passes over a point pool, it depends on the caches
_TABLE_MASK = 16383
_table: list[tuple[float, ...]] = []


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float) -> None:
        self.a = a
        self.b = b


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel (about 2 ms).

    Float arithmetic, ``math`` calls, a small object per step and strided
    reads from a 3 MB table: the mix of work the package's code does.
    """
    if not _table:
        rng = random.Random(0)
        _table.extend(tuple(rng.uniform(0.5, 2.0) for _ in range(5)) for _ in range(_TABLE_MASK + 1))
    start = time.perf_counter()
    acc = 0.0
    j = 0
    for i in range(KERNEL_ITERATIONS):
        a, b, c, d, x = _table[j]
        j = (j + 4099) & _TABLE_MASK
        pair = _Pair(math.exp(-a * x) * math.sqrt(b), math.atan2(c, d))
        y = 0.5 + (i % 97) * 0.01
        acc += pair.a + pair.b + math.exp(-y * y) / (1.0 + y)
    return time.perf_counter() - start
