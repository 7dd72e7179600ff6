"""Seeded point sets for the three benchmark workloads.

A point is ``(alpha, beta, mu, delta, x)``.  The generators depend only on
the standard library, so the set-up and memory probes can import this
module without pulling in the package under test or scipy.

* ``paper_curves``: the paper's three distributions (alpha=8, mu=3,
  delta=2, beta in {-4, 2, 7.5}, the ``figure1`` grid) at seeded x in
  [0, 20].  Each distribution is validated once, outside the timed call:
  the "one fitted distribution, many x" use.
* ``mixed_sweep``: the self-test point distribution, copied here so that an
  edit to the package's ``selftest`` cannot change the workload.  Every
  point brings a new distribution, validated inside the timed call.
* ``wide_range``: extreme but valid inputs, alpha and delta log-uniform over
  1e-6..1e6, |beta|/alpha up to 1 - 1e-6 and |x - mu| up to 1e8 delta, with
  no point whose z lies in [Z_SLOW, Z_FAST).  Validated inside the timed
  call.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

PAPER_ALPHA = 8.0
PAPER_MU = 3.0
PAPER_DELTA = 2.0
PAPER_BETAS = (-4.0, 2.0, 7.5)


def paper_curves(rng: random.Random, n: int) -> list[tuple[float, ...]]:
    """n points cycling through the three paper distributions."""
    return [
        (PAPER_ALPHA, PAPER_BETAS[i % 3], PAPER_MU, PAPER_DELTA, rng.uniform(0.0, 20.0))
        for i in range(n)
    ]


def _mixed_point(rng: random.Random) -> tuple[float, ...]:
    alpha = math.exp(rng.uniform(math.log(0.3), math.log(40.0)))
    beta = alpha * rng.uniform(-0.95, 0.95)
    mu = rng.uniform(-5.0, 5.0)
    delta = math.exp(rng.uniform(math.log(0.2), math.log(8.0)))
    x = mu + delta * rng.uniform(-15.0, 15.0)
    return alpha, beta, mu, delta, x


def mixed_sweep(rng: random.Random, n: int) -> list[tuple[float, ...]]:
    """n points from the self-test distribution: |beta| <= 0.95 alpha, |x - mu| <= 15 delta."""
    return [_mixed_point(rng) for _ in range(n)]


def _r3_generator() -> tuple[float, float, float]:
    """Steps of the R_3 low-discrepancy sequence: phi^-1, phi^-2, phi^-3.

    phi is the positive root of x^4 = x + 1 (M. Roberts, "The unreasonable
    effectiveness of quasirandom sequences", 2018).
    """
    phi = 1.2
    for _ in range(60):
        phi = (1.0 + phi) ** 0.25
    return tuple((phi**-k) % 1.0 for k in (1, 2, 3))


# The quadrature oracle's cost grows like z**-0.5.  Below Z_SLOW a point
# needs well over 0.3 s of the reference machine, so it misses the 50 ms
# deadline on any host; from Z_FAST up it takes at most about 2 ms.  Between
# the two, points take 5 ms to 0.3 s and whether one misses the deadline
# depends on the host's speed at that moment, so two runs of the same code
# would count different failures.  wide_range draws no point there.
Z_SLOW = 1e-9
Z_FAST = 1e-2
# the share of the draws outside [Z_SLOW, Z_FAST) that fall below Z_SLOW.
# Each slow point costs the whole deadline, so a pool holds exactly this
# share of them; otherwise their count, which moves by 6 % from seed to
# seed, would set points_per_s
SLOW_SHARE = 0.0085


def wide_range(rng: random.Random, n: int) -> list[tuple[float, ...]]:
    """n extreme points; z = 2 alpha omega spans about 1e-12..1e20.

    The three coordinates that set z (log alpha, log delta and
    log |x - mu|/delta) come from an R_3 sequence with a seeded random shift,
    the rest from ``rng``.  Each point keeps the same distribution, but the
    share of points at extreme z, which sets how many overrun or refuse, then
    varies about half as much from seed to seed as with independent draws.
    Draws with z in [Z_SLOW, Z_FAST) are skipped, and so are draws below
    Z_SLOW once the pool has round(SLOW_SHARE n) of them, or draws from
    Z_FAST up once it has the rest.
    """
    steps = _r3_generator()
    shift = [rng.random() for _ in steps]
    room = {True: round(SLOW_SHARE * n), False: n - round(SLOW_SHARE * n)}
    points = []
    i = -1
    while len(points) < n:
        i += 1
        u_alpha, u_delta, u_dist = ((s + i * g) % 1.0 for s, g in zip(shift, steps))
        alpha = 10.0 ** (12.0 * u_alpha - 6.0)
        delta = 10.0 ** (12.0 * u_delta - 6.0)
        # distance of |beta|/alpha from 1 is log-uniform over 1e-6..1
        beta = alpha * rng.choice((-1.0, 1.0)) * (1.0 - 10.0 ** rng.uniform(-6.0, 0.0))
        mu = rng.uniform(-5.0, 5.0)
        x = mu + delta * rng.choice((-1.0, 1.0)) * 10.0 ** (10.0 * u_dist - 2.0)
        z = 2.0 * alpha * math.hypot(x - mu, delta)
        slow = z < Z_SLOW
        if (not slow and z < Z_FAST) or room[slow] == 0:
            continue
        room[slow] -= 1
        points.append((alpha, beta, mu, delta, x))
    return points


class Workload(NamedTuple):
    generate: object  # (rng, n) -> list of points
    prevalidated: bool  # distributions validated once, outside the timed call
    pool_size: int  # points timed, pass after pass
    probe_size: int  # points drawn for the accuracy probe


# pool sizes make one pass take about a second on the first two workloads.
# On wide_range one pass takes about 15 s, longer than a 10 s run, so every
# run makes exactly one pass and counts the same failures
WORKLOADS = {
    "paper_curves": Workload(paper_curves, True, 20000, 600),
    "mixed_sweep": Workload(mixed_sweep, False, 10000, 1000),
    "wide_range": Workload(wide_range, False, 32000, 1000),
}


def make_points(name: str, seed: int, n: int) -> list[tuple[float, ...]]:
    """The first n points of workload ``name`` for ``seed``."""
    return WORKLOADS[name].generate(random.Random(f"{name}:{seed}"), n)


def bind(nig, name: str, points):
    """The timed operation of workload ``name`` and its argument tuples.

    ``nig`` is the imported package; its ``cdf`` and ``validate`` are looked
    up here, so a traced run binds after the tracer is installed.
    """
    if WORKLOADS[name].prevalidated:
        params = {}
        args = []
        for alpha, beta, mu, delta, x in points:
            key = (alpha, beta, mu, delta)
            if key not in params:
                params[key] = nig.validate(*key)
            args.append((params[key], x))
        return nig.cdf, args
    cdf, validate = nig.cdf, nig.validate

    def op(alpha, beta, mu, delta, x):
        return cdf(validate(alpha, beta, mu, delta), x)

    return op, points
