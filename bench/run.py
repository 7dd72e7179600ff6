"""Benchmark of ``nigcdf.cdf`` on seeded workloads, with an optional layer trace.

    python3 bench/run.py --workload paper_curves --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --seed 1          # every workload in turn

A single caller times one ``nigcdf.cdf`` call at a time (closed loop, one
process, one thread), each under a per-point deadline, in whole passes over
the workload's seeded point pool until ``--seconds`` have passed.  Every
returned value must be a finite number in [0, 1].  Accuracy is checked on a
fixed probe of each workload's points against scipy references computed in
a child process before timing starts.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` splits the time
between an untraced and a traced run and prints the per-layer metrics.  The
last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import harness
import reference
import spans
import workloads
import yardstick

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")

# max_abs_err is the largest error over a sample, and its value moves by a
# factor of 100 between random samples of the mixed workload; the probe is
# the same for every seed so that the metric tracks the program, not the draw
PROBE_SEED = 0
# the expansions stop at kmax=5 and reach about 1.5e-8 (table1); a reference
# passes REF_CONSISTENCY only when scipy is good to about 1e-10
ACCURACY_BOUND = 1e-7
SETUP_SPAWNS = 15
MEMORY_POINTS = 500
CHILD_TIMEOUT_S = 150


def load_package():
    """Import nigcdf from this checkout's src/, and from nowhere else."""
    init = os.path.join(SRC, "nigcdf", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: {init} not found; run from a full checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import nigcdf

    if os.path.abspath(nigcdf.__file__) != init:
        raise SystemExit(f"error: imported nigcdf from {nigcdf.__file__}, not {init}")
    return nigcdf


def child(script: str, args, stdin: str | None = None, env=None) -> dict:
    """Run a benchmark script in a fresh interpreter; return its last JSON line."""
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, script), *map(str, args)],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
        env=env,
    )
    return json.loads(done.stdout.splitlines()[-1])


def measure_setup(name: str, seed: int) -> dict[str, float]:
    """Set-up time at nominal speed over fresh processes, and one process's peak memory.

    Each set-up probe is followed by a yardstick process, and the set-up
    time is the median of the probe-to-yardstick ratios times the
    yardstick's nominal time.  The probes may write and use the package's
    byte-code cache whatever PYTHONDONTWRITEBYTECODE says, so set-up time
    never includes compiling the sources; the first probe writes the cache
    and is not counted.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    child("setup_probe.py", (name, seed, 0), env=env)
    ratios = []
    for _ in range(SETUP_SPAWNS):
        setup = child("setup_probe.py", (name, seed, 0), env=env)["setup_s"]
        ratios.append(setup / child("yardstick.py", ())["yardstick_s"])
    memory = child("setup_probe.py", (name, seed, MEMORY_POINTS), env=env)
    return {
        "setup_s": harness.median(ratios) * yardstick.NOMINAL_S,
        "peak_rss_mb": memory["peak_rss_mb"],
    }


def outcome_of(status: str, result, ref=None) -> str:
    """A point's outcome; with a reference, a value off by more than ACCURACY_BOUND fails."""
    if status == harness.RAISED:
        return f"{harness.RAISED}:{result}"
    value = getattr(result, "value", None)
    outcome = harness.classify(status, value)
    if outcome == harness.OK and ref is not None:
        if not reference.abs_error(value, ref) <= ACCURACY_BOUND:
            return harness.INACCURATE
    return outcome


def check_probe(nig, name: str, deadline, tally: harness.Tally) -> tuple[float, float]:
    """Evaluate the probe points that have a reference; return (max_abs_err, scipy points/s)."""
    probe = workloads.make_points(name, PROBE_SEED, workloads.WORKLOADS[name].probe_size)
    answer = child("reference.py", (), stdin=json.dumps(probe))
    op, args = workloads.bind(nig, name, probe)
    worst = 0.0
    for point_args, ref in zip(args, answer["refs"]):
        if ref is None:
            continue
        status, result, elapsed = deadline.call(op, point_args)
        outcome = outcome_of(status, result, ref)
        tally.record(outcome, elapsed)
        if outcome in (harness.OK, harness.INACCURATE):
            worst = max(worst, reference.abs_error(result.value, ref))
        else:
            worst = 1.0  # no usable answer: the largest error a probability can have
        if outcome != harness.OK and len(tally.bad_examples) < 5:
            tally.bad_examples.append(f"{outcome} at {list(point_args)}")
    return worst, answer["points_per_s"]


def timed_passes(nig, name: str, pool, deadline, seconds: float) -> harness.Tally:
    op, args = workloads.bind(nig, name, pool)
    tally = harness.Tally()
    harness.run_passes(deadline, op, args, seconds, tally, outcome_of)
    return tally


def traced_passes(nig, name: str, pool, deadline, seconds: float):
    """Passes with every traced function wrapped; returns (tally, totals, routes, found, missing)."""
    tracer = spans.Tracer()
    found, sites, missing = tracer.install()
    print(f"# traced sites: {' '.join(sites)}")
    totals = spans.LayerTotals()
    routes = {"asym": 0, "quad_split": 0, "complemented": 0}
    try:
        op, args = workloads.bind(nig, name, pool)
        root = tracer.wrap(spans.ROOT, op)

        def after_point(status, result):
            totals.add(tracer.spans)
            tracer.begin_point()
            method = getattr(getattr(result, "method", None), "value", None)
            routes["asym"] += method == "uniform_asym"
            routes["quad_split"] += method == "quad_split"
            routes["complemented"] += bool(getattr(result, "complemented", False))
            return outcome_of(status, result)

        tally = harness.Tally()
        tracer.begin_point()
        harness.run_passes(deadline, root, args, seconds, tally, after_point)
    finally:
        tracer.uninstall()
    return tally, totals, routes, found, missing


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    nig = load_package()
    pool = workloads.make_points(name, seed, workloads.WORKLOADS[name].pool_size)
    setup = {} if traced else measure_setup(name, seed)
    probe_tally = harness.Tally()
    metrics: dict[str, tuple[float, str]] = {}
    with harness.Deadline() as deadline:
        # the probe runs first and also warms the evaluation paths up
        max_err, scipy_rate = check_probe(nig, name, deadline, probe_tally)
        if traced:
            plain = timed_passes(nig, name, pool, deadline, seconds / 2.0)
            tally, totals, routes, found, missing = traced_passes(
                nig, name, pool, deadline, seconds / 2.0
            )
            factor = harness.median(tally.speed_factors)
            metrics.update(totals.metrics(found, tally.attempted, factor))
            for route, count in routes.items():
                metrics[f"route.{route}_frac"] = (count / tally.attempted, "fraction")
            overhead = plain.summary()["points_per_s"] / tally.summary()["points_per_s"] - 1.0
            metrics["trace.overhead_frac"] = (overhead, "fraction")
            if missing:
                print(f"# missing from the package, not reported: {' '.join(missing)}")
        else:
            tally = timed_passes(nig, name, pool, deadline, seconds)
            units = {"points_per_s": "1/s", "p50_us": "us", "p99_us": "us", "ok_frac": "fraction"}
            for key, value in tally.summary().items():
                metrics[key] = (value, units[key])
            metrics["max_abs_err"] = (max_err, "abs")
            metrics["setup_s"] = (setup["setup_s"], "s")
            metrics["peak_rss_mb"] = (setup["peak_rss_mb"], "MB")

    failures = {k: v for k, v in sorted(tally.outcomes.items()) if k != harness.OK}
    print(f"# {name} seed={seed}: {tally.attempted} timed points in {len(tally.pass_rates)} passes "
          f"of {len(pool)}, fail_frac={tally.failed / tally.attempted:.4g} {failures}")
    print(f"# machine speed: median timing scale {harness.median(tally.speed_factors):.4g} "
          f"(times are multiplied by it; 1 = nominal)")
    print(f"# probe: {probe_tally.attempted} points with a scipy reference, "
          f"{probe_tally.failed} failed; scipy on the same points: {scipy_rate:.4g} points/s")
    for example in probe_tally.bad_examples:
        print(f"#   {example}")
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    return {
        "correct": tally.wrong_values == 0 and probe_tally.wrong_values == 0,
        "attempted": tally.attempted + probe_tally.attempted,
        "failed": tally.failed + probe_tally.failed,
        "metrics": {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
