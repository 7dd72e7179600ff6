"""Closed-loop timing of single evaluations, each bounded by a deadline.

One caller evaluates one point, waits for the result, checks it, and only
then starts the next.  Each call runs under a ``SIGPROF`` interval timer in
this process, so a point that overruns is interrupted where it is and
counted as a failure; no thread or subprocess is started per point.  The
timer counts the process's CPU time, so a pause of the shared host, when
the process waits for a CPU, cannot fail a point that needs a millisecond.

Timings are normalised to the reference machine's speed (see ``speed``):
the points are timed in segments of about ``SEGMENT_S``, the speed kernel
runs after each segment, and the segment's timings are scaled by the median
of the last ``KERNEL_WINDOW`` kernel times, so that one interrupted kernel
run does not rescale a whole segment.
"""

from __future__ import annotations

import math
import signal
import time
from array import array
from collections import deque

import speed

# ROADMAP's per-point time bound for the contract "a value or a NigError, in
# bounded time"; it is CPU time, not normalised
DEADLINE_S = 0.05
SEGMENT_S = 0.05
KERNEL_WINDOW = 5

OK = "ok"
TIMEOUT = "timeout"
RAISED = "raised"
BAD_VALUE = "bad_value"
INACCURATE = "inaccurate"


class DeadlineExceeded(BaseException):
    """Raised into an evaluation that overran its deadline.

    A BaseException, so that no ``except Exception`` in the code under test
    can swallow it.
    """


class Deadline:
    """Context manager that bounds each ``call`` by ``seconds`` of CPU time."""

    def __init__(self, seconds: float = DEADLINE_S) -> None:
        self.seconds = seconds
        self._armed = False
        self._previous = None

    def __enter__(self) -> "Deadline":
        self._previous = signal.signal(signal.SIGPROF, self._fire)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        self._armed = False
        signal.signal(signal.SIGPROF, self._previous)

    def _fire(self, signum, frame) -> None:
        # raise at most once per arming: a signal that arrives after the
        # call has been disarmed must not interrupt the harness
        if self._armed:
            self._armed = False
            raise DeadlineExceeded

    def call(self, fn, args):
        """Run ``fn(*args)``; return (status, result, elapsed seconds).

        ``status`` is OK, TIMEOUT or RAISED; ``result`` is the return value,
        or the exception's type name when it raised.
        """
        result = None
        status = OK
        start = 0.0
        try:
            self._armed = True
            signal.setitimer(signal.ITIMER_PROF, self.seconds)
            start = time.perf_counter()
            try:
                result = fn(*args)
            except Exception as exc:
                status, result = RAISED, type(exc).__name__
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            self._armed = False
        except DeadlineExceeded:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            status, result = TIMEOUT, None
        return status, result, end - start


def classify(status: str, value) -> str:
    """OK for a finite float in [0, 1]; the call's status if it did not return."""
    if status != OK:
        return status
    if not (isinstance(value, float) and math.isfinite(value) and 0.0 <= value <= 1.0):
        return BAD_VALUE
    return OK


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence, q in (0, 100]."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


class Tally:
    """Outcomes and latencies of the timed passes, or of the accuracy probe.

    A failed point's latency is recorded as the deadline plus its own time:
    a refusal or a timeout counts as missing the latency limit.
    ``bad_examples`` holds a few failing probe points for the report.
    """

    def __init__(self) -> None:
        self.latencies = array("d")
        self.pass_rates: list[float] = []
        self.speed_factors: list[float] = []
        self.outcomes: dict[str, int] = {}
        self.bad_examples: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.attempted - self.outcomes.get(OK, 0)

    @property
    def wrong_values(self) -> int:
        return self.outcomes.get(BAD_VALUE, 0) + self.outcomes.get(INACCURATE, 0)

    def record(self, outcome: str, elapsed: float) -> None:
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        self.latencies.append(elapsed if outcome == OK else DEADLINE_S + elapsed)

    def end_pass(self, completed: int, busy_s: float) -> None:
        self.pass_rates.append(completed / busy_s if busy_s > 0.0 else 0.0)

    def summary(self) -> dict[str, float]:
        """Median pass rate, and latency percentiles over the points.

        Every pass evaluates the same points in the same order, so point i's
        latencies sit at i, i + n, i + 2n, ...  A point's latency is the
        median of its latencies over the passes, which keeps a burst of
        host activity during one evaluation out of the percentiles.
        """
        n = len(self.latencies) // len(self.pass_rates)
        per_point = sorted(median(self.latencies[i::n]) for i in range(n))
        return {
            "points_per_s": median(self.pass_rates),
            "p50_us": percentile(per_point, 50.0) * 1e6,
            "p99_us": percentile(per_point, 99.0) * 1e6,
            "ok_frac": self.outcomes.get(OK, 0) / self.attempted,
        }


def run_passes(deadline: Deadline, op, args_list, seconds: float, tally: Tally, on_result):
    """Evaluate whole passes over ``args_list`` until ``seconds`` have passed.

    At least one pass runs.  ``on_result(status, result)`` is called after
    each point, outside its timed interval, and returns the point's outcome.
    A pass's rate is its completed points over its normalised busy time.
    """
    stop = time.perf_counter() + seconds
    kernel_times = deque((speed.kernel_seconds() for _ in range(KERNEL_WINDOW)), KERNEL_WINDOW)
    while True:
        completed = 0
        busy = 0.0
        segment: list[tuple[str, float]] = []
        segment_end = time.perf_counter() + SEGMENT_S
        last = len(args_list) - 1
        for i, args in enumerate(args_list):
            status, result, elapsed = deadline.call(op, args)
            segment.append((on_result(status, result), elapsed))
            if i == last or time.perf_counter() >= segment_end:
                kernel_times.append(speed.kernel_seconds())
                factor = speed.NOMINAL_KERNEL_S / median(kernel_times)
                tally.speed_factors.append(factor)
                for outcome, raw in segment:
                    # the deadline is not normalised, so a timed-out point keeps its wall time
                    elapsed = raw if outcome == TIMEOUT else raw * factor
                    tally.record(outcome, elapsed)
                    busy += elapsed
                    completed += outcome == OK
                segment.clear()
                segment_end = time.perf_counter() + SEGMENT_S
        tally.end_pass(completed, busy)
        if time.perf_counter() >= stop:
            return
