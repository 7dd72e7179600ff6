"""Robustness over extreme but valid inputs.

A seeded sweep with alpha and delta log-uniform over 1e-6..1e6, 1 - |beta|/alpha
log-uniform over 1e-6..1 and |x - mu|/delta log-uniform over 1e-2..1e8, so z
runs from about 1e-12 to 1e20.  The contract: every point gets a value in
[0, 1], and none is refused; a NigError refusal is recorded, so the test of
the values fails on it.  For each distribution, F is also evaluated on a
7-point grid through mu and the drawn x, where it must not decrease and
must satisfy the reflection identity.
"""

import math
import random

import pytest

from nigcdf import (
    DomainError,
    Method,
    NigError,
    cdf,
    cdf_asym,
    cdf_quad_direct,
    cdf_quad_split,
    geometry,
    reflect,
    validate,
)

N_POINTS = 400


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _draw(rng: random.Random) -> tuple[float, float, float, float, float]:
    alpha = _log_uniform(rng, 1e-6, 1e6)
    delta = _log_uniform(rng, 1e-6, 1e6)
    beta = rng.choice((-1.0, 1.0)) * alpha * (1.0 - _log_uniform(rng, 1e-6, 1.0))
    mu = rng.uniform(-5.0, 5.0)
    x = mu + rng.choice((-1.0, 1.0)) * delta * _log_uniform(rng, 1e-2, 1e8)
    return alpha, beta, mu, delta, x


@pytest.fixture(scope="module")
def sweep():
    """(parameters, x, result or refusal) for every point of the seeded sweep."""
    rng = random.Random(2025)
    out = []
    for _ in range(N_POINTS):
        alpha, beta, mu, delta, x = _draw(rng)
        p = validate(alpha, beta, mu, delta)
        try:
            out.append((p, x, cdf(p, x)))
        except NigError as exc:  # any other exception fails the module
            out.append((p, x, exc))
    return out


def test_sweep_reaches_the_small_z_corners(sweep):
    # the band [1e-9, 1e-2) and the corner below it are where a quadrature
    # truncated in sigma costs of order z^-1/2 nodes; keep covering both
    zs = [geometry(p, x).z for p, x, _ in sweep]
    assert sum(z < 1e-9 for z in zs) >= 3
    assert sum(1e-9 <= z < 1e-2 for z in zs) >= 30
    assert max(zs) > 1e15


def test_values_lie_in_the_unit_interval(sweep):
    values = [r.value for _, _, r in sweep if not isinstance(r, NigError)]
    assert len(values) == N_POINTS
    assert all(0.0 <= v <= 1.0 for v in values)


def test_reflection_identity_on_the_split_route(sweep):
    split = [
        (p, x)
        for p, x, r in sweep
        if not isinstance(r, NigError) and r.method in (Method.QUAD_SPLIT, Method.GAUSS_SPLIT)
    ]
    assert len(split) >= 100
    for p, x in split:
        rp, rx = reflect(p, x)
        assert abs(cdf_quad_split(p, x) + cdf_quad_split(rp, rx) - 1.0) <= 1e-10


GRID_T = (-1.0, -0.3, -0.01, 0.0, 0.01, 0.3, 1.0)


@pytest.fixture(scope="module")
def grids(sweep):
    """(parameters, grid, F on the grid) for each sweep distribution.

    The grid is x = mu + t |x - mu| over ``GRID_T``, for the sweep's x.
    """
    out = []
    for p, x, _ in sweep:
        xs = [p.mu + t * abs(x - p.mu) for t in GRID_T]
        out.append((p, xs, [cdf(p, xi).value for xi in xs]))
    return out


def test_cdf_is_monotone_along_each_grid(grids):
    for p, xs, fs in grids:
        assert all(a <= b for a, b in zip(fs, fs[1:])), (p, xs, fs)


def test_reflection_identity_on_the_auto_route(grids):
    for p, xs, fs in grids:
        for xi, f in zip(xs, fs):
            rp, rx = reflect(p, xi)
            assert abs(f + cdf(rp, rx).value - 1.0) <= 1e-10, (p, xi)


def test_cdf_at_the_cauchy_limit():
    # alpha, beta -> 0 at fixed delta tends to the Cauchy law of location mu
    # and scale delta; here (alpha - beta)(alpha + beta) underflows to 0, and
    # gamma must not, since every route divides by it through the transition
    # point
    mu, delta = -3.7714340517381006, 7.593739372510547
    p = validate(1.3952116312638158e-186, -1.3562192504497023e-186, mu, delta)
    x = -3.7712843354452077
    cauchy = 0.5 + math.atan((x - mu) / delta) / math.pi
    for value in (cdf(p, x).value, cdf_quad_split(p, x), cdf_quad_direct(p, x)):
        assert value == pytest.approx(cauchy, abs=1e-14)
    with pytest.raises(DomainError, match="double range"):
        cdf_asym(p, x)
