"""Set-up time or peak memory of a fresh process that uses the package.

    python3 bench/setup_probe.py <workload> <seed> <points>

Prints one JSON line.  With ``points`` = 0 it measures the set-up time: the
wall time for ``import nigcdf`` plus a first evaluation on each route (one
point the expansions take, one the quadrature takes).  ``run.py`` scales it
by the time of ``yardstick.py`` run just after it.  Only ``os``, ``sys`` and
``time`` are imported before the clock starts, because ``json`` or
``signal`` could load ``enum`` ahead of the package and hide part of its
import cost.

With ``points`` > 0 it measures ``peak_rss_mb``: it builds the workload's
point pool, evaluates its first ``points`` points under the benchmark
deadline and reads the process's peak resident memory.  scipy is never
imported here.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

count = int(sys.argv[3])
start = time.perf_counter()
import nigcdf  # noqa: E402

nigcdf.cdf(nigcdf.validate(8.0, 2.0, 3.0, 2.0), 5.0)
nigcdf.cdf(nigcdf.validate(1.0, 0.2, 0.0, 1.0), 0.5)
setup_s = time.perf_counter() - start

import json  # noqa: E402
import resource  # noqa: E402

import harness  # noqa: E402
import workloads  # noqa: E402

if count == 0:
    print(json.dumps({"setup_s": setup_s}))
else:
    name, seed = sys.argv[1], int(sys.argv[2])
    points = workloads.make_points(name, seed, workloads.WORKLOADS[name].pool_size)
    op, args = workloads.bind(nigcdf, name, points)
    with harness.Deadline() as deadline:
        for point_args in args[:count]:
            deadline.call(op, point_args)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_mb": peak_kb / 1024.0}))
