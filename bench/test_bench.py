"""Tests of the benchmark's own logic.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest

import harness
import reference
import run
import spans
import workloads


def test_self_time_of_nested_spans():
    # root [0, 10] holds A [1, 6] and D [7, 9]; A holds B [2, 3] and C [4, 5]
    recorded = [
        ("root", 0.0, 10.0, -1, False),
        ("A", 1.0, 6.0, 0, False),
        ("B", 2.0, 3.0, 1, False),
        ("C", 4.0, 5.0, 1, False),
        ("D", 7.0, 9.0, 0, False),
    ]
    assert spans.self_times(recorded) == [3.0, 3.0, 1.0, 1.0, 2.0]


def test_self_time_skips_a_span_cut_short():
    recorded = [("root", 0.0, 10.0, -1, False), None, ("B", 2.0, 3.0, 1, False)]
    assert spans.self_times(recorded) == [10.0, 0.0, 1.0]


def test_tracer_totals_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    inner = tracer.wrap("inner", lambda: None)

    def middle_body():
        inner()
        inner()
        raise KeyError("refused")

    middle = tracer.wrap("middle", middle_body)

    def outer_body():
        with pytest.raises(KeyError):
            middle()

    root = tracer.wrap(spans.ROOT, outer_body)
    tracer.begin_point()
    root()
    totals = spans.LayerTotals()
    totals.add(tracer.spans)
    # clock reads: root 0, middle 1, inner 2-3, inner 4-5, middle ends 6, root ends 7
    assert totals.root_s == 7.0
    assert totals.calls == {"middle": 1, "inner": 2}
    assert totals.self_s == {"middle": 3.0, "inner": 2.0}
    assert totals.errors == {"middle": 1, "inner": 0}
    metrics = totals.metrics(["middle", "inner", "absent"], points=1)
    assert metrics["inner.self_us"] == (1e6, "us")
    assert metrics["middle.self_frac"] == (3.0 / 7.0, "fraction")
    assert metrics["absent.calls_per_point"] == (0.0, "count")


def test_deadline_interrupt_is_not_a_function_error():
    tracer = spans.Tracer()

    def spin():
        while True:
            pass

    root = tracer.wrap(spans.ROOT, tracer.wrap("spin", spin))
    tracer.begin_point()
    with harness.Deadline(0.02) as deadline:
        status, result, elapsed = deadline.call(root, ())
    assert status == harness.TIMEOUT
    assert 0.02 <= elapsed < 1.0
    totals = spans.LayerTotals()
    totals.add(tracer.spans)
    assert totals.calls == {"spin": 1}
    assert totals.errors == {"spin": 0}


def test_install_reaches_names_bound_by_from_imports():
    nig = run.load_package()
    tracer = spans.Tracer()
    found, sites, missing = tracer.install()
    try:
        assert missing == []
        assert len(found) == len(spans.TRACED)
        for site in ("nigcdf.expansion.geometry", "nigcdf.oracle.geometry",
                     "nigcdf.expansion.erfc", "nigcdf.oracle.cdf_quad_split", "nigcdf.cdf"):
            assert site in sites
        tracer.begin_point()
        nig.cdf(nig.validate(8.0, 2.0, 3.0, 2.0), 5.0)  # the asym route
        totals = spans.LayerTotals()
        totals.add(tracer.spans)
        assert totals.calls["params.geometry"] == 2
        assert totals.calls["expansion.sf_asym"] == 1
    finally:
        tracer.uninstall()
    assert not hasattr(nig.expansion.geometry, "__wrapped__")


def test_a_missing_name_is_reported_not_recorded(monkeypatch):
    run.load_package()
    monkeypatch.setattr(spans, "TRACED", spans.TRACED + (("params", "no_such_function"),))
    tracer = spans.Tracer()
    found, _, missing = tracer.install()
    tracer.uninstall()
    assert missing == ["params.no_such_function"]
    assert "params.no_such_function" not in found


def test_reference_side_follows_the_transition_point():
    assert reference.choose_reference(1.0, 2.0, 0.3, 0.7) == ("cdf", 0.3)
    assert reference.choose_reference(2.0, 2.0, 0.5, 0.5) == ("cdf", 0.5)
    assert reference.choose_reference(3.0, 2.0, 0.9, 0.1) == ("sf", 0.1)


def test_reference_refused_where_scipy_tails_disagree():
    # scipy's cdf collapsing to ~1e-20 where F is near 1
    assert reference.choose_reference(9.0, 2.0, 1e-20, 1e-9) is None
    assert reference.choose_reference(1.0, 2.0, 0.3, 0.7 + 1e-8) is None
    assert reference.choose_reference(1.0, 2.0, math.nan, 0.7) is None


def test_abs_error_compares_the_smaller_function():
    assert reference.abs_error(0.25, ("cdf", 0.25)) == 0.0
    assert reference.abs_error(1.0 - 2.0**-30, ("sf", 2.0**-30)) == 0.0
    assert reference.abs_error(0.75, ("sf", 0.2)) == pytest.approx(0.05)


def _fake_package(values):
    """A stand-in for nigcdf whose cdf returns the given values in turn."""
    answers = iter(values)
    return SimpleNamespace(
        validate=lambda *params: params,
        cdf=lambda params, x: SimpleNamespace(value=next(answers)),
    )


def test_wrong_values_raise_fail_frac():
    pool = workloads.make_points("mixed_sweep", 1, 6)
    good = _fake_package([0.5] * 6)
    bad = _fake_package([0.5, 1.5, math.nan, 0.0, math.inf, 0.5])
    with harness.Deadline() as deadline:
        clean = run.timed_passes(good, "mixed_sweep", pool, deadline, 0.0)
        broken = run.timed_passes(bad, "mixed_sweep", pool, deadline, 0.0)
    assert clean.failed == 0 and clean.wrong_values == 0
    assert broken.outcomes == {harness.OK: 3, harness.BAD_VALUE: 3}
    assert broken.summary()["ok_frac"] == 0.5
    assert broken.wrong_values == 3


def test_inaccurate_and_raising_points_fail():
    assert run.outcome_of(harness.OK, SimpleNamespace(value=0.3), ("cdf", 0.3)) == harness.OK
    assert run.outcome_of(harness.OK, SimpleNamespace(value=0.3), ("cdf", 0.3 + 1e-6)) == (
        harness.INACCURATE
    )
    assert run.outcome_of(harness.RAISED, "OverflowError") == "raised:OverflowError"


def test_failed_points_miss_the_latency_limit():
    tally = harness.Tally()
    for _ in range(98):
        tally.record(harness.OK, 1e-5)
    tally.record("raised:DomainError", 1e-6)
    tally.record(harness.TIMEOUT, 0.05)
    tally.end_pass(98, 0.1)
    summary = tally.summary()
    assert summary["p50_us"] == pytest.approx(10.0)
    assert summary["p99_us"] > 0.05e6
    assert summary["ok_frac"] == 0.98
    assert summary["points_per_s"] == pytest.approx(980.0)


def test_points_repeat_for_a_seed_and_differ_across_seeds():
    for name in workloads.WORKLOADS:
        assert workloads.make_points(name, 3, 50) == workloads.make_points(name, 3, 50)
        assert workloads.make_points(name, 3, 50) != workloads.make_points(name, 4, 50)


def test_a_point_latency_is_its_median_over_passes():
    tally = harness.Tally()
    for burst in (False, True, False):
        for i in range(100):
            tally.record(harness.OK, 1e-3 if burst and i < 5 else 1e-5 * (1 + i / 100))
        tally.end_pass(100, 1.0)
    summary = tally.summary()
    assert summary["p99_us"] == pytest.approx(19.8)  # rank 99 of 100
    assert summary["points_per_s"] == 100.0


def test_wide_range_skips_the_band_where_the_deadline_is_host_noise():
    for seed in (1, 2):
        points = workloads.make_points("wide_range", seed, 2000)
        z = [2.0 * a * math.hypot(x - mu, d) for a, _, mu, d, x in points]
        assert not [v for v in z if workloads.Z_SLOW <= v < workloads.Z_FAST]
        assert sum(v < workloads.Z_SLOW for v in z) == round(workloads.SLOW_SHARE * 2000)
