"""Fixed set-up work that ``setup_s`` is scaled by.

    python3 bench/yardstick.py

Prints one JSON line: the wall time this fresh process takes to import a
fixed set of standard-library modules, define a few frozen dataclasses and
enums, and do some float arithmetic.  That is the kind of work ``import
nigcdf`` plus a first evaluation does, but none of it is the package's.

On the shared host a fresh process's set-up time moves by up to 60 % from
one minute to the next.  The speed kernel, which tracks the timed passes,
does not track it: over batches of 15 fresh processes the median ratio of
set-up time to kernel time moved by 30 %, the median ratio of set-up time
to this yardstick's time, each pair run back to back, by 4 %.  So
``setup_s`` is that ratio times ``NOMINAL_S``, this script's time on the
reference machine when the host is quiet.
"""

import time

NOMINAL_S = 0.016


def main() -> float:
    start = time.perf_counter()
    import argparse  # noqa: F401
    import fractions  # noqa: F401
    import math
    import random  # noqa: F401
    from dataclasses import dataclass
    from enum import Enum

    class Kind(Enum):
        A = "a"
        B = "b"
        C = "c"

    class Mode(Enum):
        X = 1
        Y = 2

    @dataclass(frozen=True, slots=True)
    class Four:
        a: float
        b: float
        c: float
        d: float

    @dataclass(frozen=True, slots=True)
    class Six:
        x: float
        y: float
        z: float
        w: float
        v: float
        u: float

    @dataclass(frozen=True, slots=True)
    class Result:
        value: float
        kind: Kind
        mode: Mode

    acc = 0.0
    for i in range(2000):
        p = Four(1.0 + i, 2.0, 3.0, 4.0)
        acc += math.erfc(p.a * 1e-3) + math.exp(-p.b) * math.sqrt(p.c)
    Result(acc, Kind.A, Mode.X)
    Six(acc, acc, acc, acc, acc, acc)
    return time.perf_counter() - start


if __name__ == "__main__":
    elapsed = main()
    import json

    print(json.dumps({"yardstick_s": elapsed}))
