"""The two quadrature oracles and the kernels of the split, one judge per claim.

The values every route returns, the oracles' included, are judged by
``test_reference.py`` on the committed 34-digit reference set; here the
split oracle's reported bound is held against that set's true error
(``test_split_route_reports_its_certified_error_bound``).  The two
oracles' agreement on random draws and the reflection identity are
criteria 07 and 10 of ``test_acceptance.py``.  The direct oracle: its
bound before rounding, in 50-digit mpmath
(``test_direct_oracle_certificate_holds_before_rounding``), and its work
(``test_direct_oracle_reports_the_nodes_it_sums``).

The trapezoid kernel: its bound before rounding by the strip certificate
(``test_trapezoid_error_is_within_the_strip_bound``) and its ladder step
(``test_step_is_a_ladder_rung_that_keeps_the_certificate``); its value,
rounding included, against mpmath for both outputs over z in
[5e-324, 1e16] (``test_kernel_is_relatively_accurate_over_the_double_range``);
its work (``test_kernel_node_counts_stay_within_the_documented_bounds``)
and its import-time node tables
(``test_node_tables_cover_the_band_and_never_change``).  The small-z series
and the Gauss rules: each by its own bound before rounding; the series'
M, which F cannot see at small z, and the rules' literals against mpmath.
"""
import math
import random
import tracemalloc
from bisect import bisect_right
from fractions import Fraction

import mpmath
import pytest

from nigcdf import (
    Method,
    NearTransitionError,
    NigError,
    cdf,
    cdf_asym,
    cdf_quad_direct,
    cdf_quad_split,
    geometry,
    reflect,
    transition_point,
    validate,
)
from nigcdf import oracle
from nigcdf.expansion import _BAND_EDGES, _BANDS, _series_kernel
from nigcdf.oracle import _SMALL_Z_LIMIT, _kernel, _small_z_m
from nigcdf.params import _geometry
from nigcdf.selftest import draw_point
from nigcdf.special import erfcx

from make_reference import read_values

ALPHA, MU, DELTA = 8.0, 3.0, 2.0


def test_split_oracle_symmetric_median():
    p = validate(8.0, 0.0, 3.0, 2.0)
    assert cdf_quad_split(p, 3.0).value == pytest.approx(0.5, abs=1e-13)


def test_split_oracle_bounds_and_monotone():
    p = validate(ALPHA, -4.0, MU, DELTA)
    grid = [cdf_quad_split(p, -7.0 + 30.0 * i / 99.0).value for i in range(100)]
    assert all(0.0 <= v <= 1.0 for v in grid)
    assert all(a <= b for a, b in zip(grid, grid[1:]))


def test_split_oracle_continuity_at_transition():
    # x0 is a removable point of the split; values must bracket smoothly
    for beta in (-4.0, 2.0, 7.5):
        p = validate(ALPHA, beta, MU, DELTA)
        x0 = transition_point(p)
        lo = cdf_quad_split(p, x0 - 1e-6).value
        mid = cdf_quad_split(p, x0).value
        hi = cdf_quad_split(p, x0 + 1e-6).value
        assert lo < mid < hi


@pytest.mark.parametrize(
    "params,x",
    [((1e-308, 0.0, 0.0, 1.0), 5.0), ((1e-320, 0.0, 0.0, 1.0), 5.0),
     ((1.0, 0.5, 0.0, 1e-308), 1e-309)],
)
def test_direct_oracle_where_alpha_omega_nears_the_smallest_double(params, x):
    # reach / (alpha omega) overflows to inf here; the truncation point must
    # stay finite, so the result is a value and not a raw OverflowError
    p = validate(*params)
    value = cdf_quad_direct(p, x).value
    assert abs(value - cdf_quad_split(p, x).value) <= 1e-12


def test_direct_oracle_refuses_transition_band():
    with pytest.raises(NearTransitionError):
        cdf_quad_direct(validate(8.0, 0.0, 3.0, 2.0), 3.0)
    p = validate(ALPHA, 2.0, MU, DELTA)
    with pytest.raises(NearTransitionError):
        cdf_quad_direct(p, transition_point(p))
    # the band's edge: over draw_point's parameter ranges, at nu = tau +-
    # (0.02 + d), the oracle refuses exactly where |nu - tau| <= 0.02, the
    # test on s_plus it makes, and elsewhere agrees with the split oracle
    rng = random.Random(6203)
    refused = 0
    for _ in range(375):
        p, _ = draw_point(rng)
        for d in (0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9, 1e-3):
            nu = p.tau + rng.choice((-1.0, 1.0)) * (0.02 + d)
            x = p.mu + p.delta * math.cos(nu) / math.sin(nu)
            if abs(geometry(p, x).nu - p.tau) <= 0.02:
                refused += 1
                with pytest.raises(NearTransitionError):
                    cdf_quad_direct(p, x)
            else:
                gap = abs(cdf_quad_direct(p, x).value - cdf_quad_split(p, x).value)
                assert gap <= 1e-12, (p, x)
    assert 0 < refused < 3000


class _CountingMath:
    """Stands in for ``math`` in the oracle: counts exp calls and records cosh arguments.

    The trapezoid kernels call exp once per node past t = 0; the direct
    oracle's integrand calls cosh once per node, t = 0 included.
    """

    def __init__(self):
        self.calls = 0
        self.cosh_args = []

    def __getattr__(self, name):
        return getattr(math, name)

    def exp(self, x):
        self.calls += 1
        return math.exp(x)

    def cosh(self, x):
        self.cosh_args.append(x)
        return math.cosh(x)


def _direct_rule(monkeypatch, p, x):
    """``cdf_quad_direct(p, x)`` with the step h and the nodes its integrand was called at."""
    counting = _CountingMath()
    monkeypatch.setattr("nigcdf.oracle.math", counting)
    result = cdf_quad_direct(p, x)
    monkeypatch.undo()
    nodes = counting.cosh_args
    return result, min((t for t in nodes if t > 0.0), default=0.0), nodes


def test_direct_oracle_reports_the_nodes_it_sums(monkeypatch):
    # one cosh per node of the direct integrand, t = 0 included: the nodes
    # are k h, k = 0 .. last, each once, and the record's work is their
    # count, known before summing.  The CI smoke step's point, |nu - tau| =
    # 0.0201, just outside the refused band, sums 676
    rng = random.Random(5150)
    points = [draw_point(rng) for _ in range(300)]
    points.append((validate(8.0, 2.0, 3.0, 2.0), 3.47373))
    counts = []
    for p, x in points:
        if abs(geometry(p, x).nu - p.tau) <= 0.02:
            continue
        result, h, nodes = _direct_rule(monkeypatch, p, x)
        assert result.kmax_used == len(nodes) > 1, (p, x)
        assert sorted(nodes) == [k * h for k in range(len(nodes))], (p, x)
        counts.append(result.kmax_used)
    assert counts[-1] == 676


def _direct_sums(p, x, h, count):
    """The direct oracle's rule before rounding, in 50-digit mpmath, on its own double constants.

    Returns I, which is F, or F - 1 where s_plus < 0, three ways: the
    oracle's sum of ``count`` nodes at the step h, and the same rule
    untruncated at h/8 and at h/16; then the integral of |f| / (2 pi) by
    the h/16 rule.  The untruncated rules run on
    until the integrand's non-rising majorant falls below 1e-50 of its value
    at t = 0.
    """
    xi, omega, _, _, s_plus, s_minus, _, _, _, _ = _geometry(p, x)
    with mpmath.workdps(50):
        aw = mpmath.mpf(p.alpha * omega)
        big_a = mpmath.mpf(p.delta * p.gamma + p.beta * xi)
        sp2, sm2 = mpmath.mpf(s_plus * s_plus), mpmath.mpf(s_minus * s_minus)
        sin_nu, cos_nu = mpmath.mpf(p.delta / omega), mpmath.mpf(xi / omega)
        cos_tau = mpmath.mpf(p.beta / p.alpha)
        step = mpmath.mpf(h) / 16
        own = coarse = fine = size = 0
        k = 0
        while True:
            sh2 = mpmath.sinh(k * step / 2) ** 2
            ch = 1 + 2 * sh2
            scale = mpmath.exp(big_a - aw * ch) * sin_nu / (4 * (sh2 + sp2) * (sh2 + sm2))
            major = scale * (abs(cos_tau) * ch + abs(cos_nu))
            term = scale * (cos_tau * ch - cos_nu)
            if k == 0:
                top, term = major, term / 2
            fine += term
            size += abs(term)
            if k % 2 == 0:
                coarse += term
            if k % 16 == 0 and k < 16 * count:
                own += term
            if k >= 16 * count and major <= top * mpmath.mpf(10) ** -50:
                break
            k += 1
        unit = mpmath.mpf(h) / mpmath.pi
        return own * unit, coarse * unit / 8, fine * unit / 16, size * unit / 16


# (alpha, beta, mu, delta, x) where the direct oracle is judged besides the
# draws: the band's edge, |nu - tau| = 0.0201, 0.0250 and 0.0300, on both
# sides; left tails at F = 1e-30, 1e-150 and 1e-300, beta < 0 among them,
# and a right tail at G = 4.4e-20
_DIRECT_CERTIFICATE_POINTS = (
    (8.0, 2.0, 3.0, 2.0, 3.47373),
    (30.0, -12.0, 0.0, 4.0, -1.628),
    (30.0, 12.0, 0.0, 4.0, 1.6047),
    (0.5, -0.4, 0.0, 3.0, -624.325),
    (3.0, 2.0, 1.0, 0.5, -66.501),
    (10.0, -5.0, 0.0, 2.0, -139.971),
    (8.0, 2.0, 3.0, 2.0, 12.0),
)


def test_direct_oracle_certificate_holds_before_rounding(monkeypatch):
    # the reported bound eps, judged in 50-digit mpmath on the oracle's own
    # double constants: its sum at its step and node count lies within eps
    # of the same rule untruncated at h/8, itself within 1e-40 of the rule
    # at h/16 relative to the integral of |f|.  The step doubled, or the
    # strip bound M(y) without its growth e^{alpha omega (1 - cos y)}, fails
    # this.  Where e^{A - alpha omega} underflows, eps rounds to 0 with the
    # integrand, so the least subnormal is allowed
    rng = random.Random(8086)
    points = [draw_point(rng) for _ in range(12)]
    points += [(validate(*args[:4]), args[4]) for args in _DIRECT_CERTIFICATE_POINTS]
    for p, x in points:
        if abs(geometry(p, x).nu - p.tau) <= 0.02:
            continue
        result, h, nodes = _direct_rule(monkeypatch, p, x)
        own, coarse, fine, size = _direct_sums(p, x, h, len(nodes))
        assert abs(coarse - fine) <= 1e-40 * size, (p, x)
        assert abs(own - coarse) <= result.error_estimate + 2.0**-1074, (p, x, result)


def test_reflect_frozen_example():
    p = validate(8.0, 2.0, 3.0, 2.0)
    rp, rx = reflect(p, 5.0)
    assert (rp.alpha, rp.beta, rp.mu, rp.delta) == (8.0, -2.0, -3.0, 2.0)
    assert rx == -5.0


def test_reflect_is_an_involution():
    p = validate(7.0, -3.5, 1.25, 0.75)
    rp, rx = reflect(p, 2.5)
    rrp, rrx = reflect(rp, rx)
    assert (rrp.alpha, rrp.beta, rrp.mu, rrp.delta) == (p.alpha, p.beta, p.mu, p.delta)
    assert rrx == 2.5


def test_kernel_takes_the_most_nodes_at_the_smallest_double():
    # the trapezoid needs no node budget: below z = 1e-12 ``_step`` stays on
    # one rung, where its last node never rises with z, so the most nodes of
    # any z are the 2,998 at the smallest double; from z = 1e-12 on a call
    # sums at most 131
    rng = random.Random(3434)
    small = sorted(math.exp(rng.uniform(math.log(5e-324), math.log(1e-12))) for _ in range(50_000))
    steps = [oracle._step(z) for z in [5e-324, *small, 1e-12]]
    assert len({h for h, _, _, _ in steps}) == 1
    lasts = [last for _, last, _, _ in steps]
    assert all(a >= b for a, b in zip(lasts, lasts[1:]))
    assert lasts[0] == 2997
    log_z = (math.log(1e-12), math.log(1.7e308))
    assert max(oracle._step(math.exp(rng.uniform(*log_z)))[1] for _ in range(50_000)) <= 130


@pytest.mark.parametrize("z", [5e-324, 1e-300, 1e-12, 1e20, 1e300])
def test_kernel_lies_between_zero_and_its_z_zero_value(z):
    k_plus, k_minus, _, _, _ = _kernel(z, 0.0, 1.0)
    # K(z, w) falls with z from K(0, 0) = pi and K(0, 1) = 2
    assert 0.0 < k_plus <= math.pi + 1e-13 and 0.0 < k_minus <= 2.0 + 1e-13
    if z < 1e-200:
        assert k_plus == pytest.approx(math.pi, abs=1e-13)
        assert k_minus == pytest.approx(2.0, abs=1e-13)


def test_kernel_node_counts_stay_within_the_documented_bounds(monkeypatch):
    # the worst call per band of z over a seeded grid with one z per cell of
    # width 0.017 in ln z, fine enough to land in the narrow windows where a
    # band takes its most nodes; the step depends on z alone, so w does not
    # move the count.  The oracle's docs and the README quote these numbers;
    # the row from _SMALL_Z_LIMIT is the policy's trapezoid band, whose first
    # rung's table holds 31 nodes past t = 0.  Every call sums
    # every node ``_step`` certifies: one exp per node past t = 0, up to its
    # last node index, and reports those nodes and t = 0 as its work
    counting = _CountingMath()
    monkeypatch.setattr("nigcdf.oracle.math", counting)
    rng = random.Random(2026)
    lo, hi = math.log(1e-12), math.log(1e3)
    zs = [math.exp(lo + (hi - lo) * (i + rng.random()) / 2000) for i in range(2000)]
    zs += [1e-12, 1e-2, _SMALL_Z_LIMIT, 1.0, 5e-324]
    ws = [0.0, 1.0, math.exp(rng.uniform(math.log(1e-13), 0.0))]
    worst = {1.0: 0, _SMALL_Z_LIMIT: 0, 1e-2: 0, 1e-12: 0, 5e-324: 0}
    for z in zs:
        for w in ws:
            last = oracle._step(z)[1]
            counting.calls = 0
            work = _kernel(z, 0.0, w)[4]
            assert counting.calls == last == work - 1, (z, w)
            for band in worst:
                if z >= band:
                    worst[band] = max(worst[band], counting.calls + 1)
    assert worst == {1.0: 21, _SMALL_Z_LIMIT: 32, 1e-2: 39, 1e-12: 131, 5e-324: 2998}


# the truncation margin r = 2 z sinh T cosh T h that the docstring of
# ``oracle._step`` states for every positive double z
_STEP_MARGIN = 5.8


def _certified_step(z):
    """The unrounded step h_cert of ``oracle._step``'s docstring, and its eps.

    h_cert = 2 pi y / ln(4 M / eps), with y = min(pi/4, sqrt(55 ln 2 / z)),
    M = e^{z sin^2 y} min(pi, sqrt(pi/(z cos 2y))) / cos y and
    eps = 2^-53 sqrt(pi) / (sqrt z + sqrt(z + 2)), evaluated in this order,
    not the kernel's.
    """
    eps = 2.0**-53 * math.sqrt(math.pi) / (math.sqrt(z) + math.sqrt(z + 2.0))
    y = min(0.25 * math.pi, math.sqrt(55.0 * math.log(2.0) / z))
    if y == 0.25 * math.pi:
        bound = math.pi  # cos 2y = 0 on the wide strip
    else:
        bound = min(math.pi, math.sqrt(math.pi / (z * math.cos(2.0 * y))))
    log_ratio = z * math.sin(y) ** 2 + math.log(4.0 * bound / (math.cos(y) * eps))
    return 2.0 * math.pi * y / log_ratio, eps


def _rung_edges(zs):
    """Adjacent doubles on either side of a z where ``oracle._step`` changes rung, flattened.

    One edge per pair of consecutive points of the sorted ``zs`` whose
    steps differ, found by bisection in z down to adjacent doubles.
    """
    edges = []
    for lo, hi in zip(zs, zs[1:]):
        if oracle._step(lo)[0] == oracle._step(hi)[0]:
            continue
        while math.nextafter(lo, hi) < hi:
            mid = math.sqrt(lo) * math.sqrt(hi)
            if not lo < mid < hi:
                mid = math.nextafter(lo, hi)
            if oracle._step(mid)[0] == oracle._step(lo)[0]:
                lo = mid
            else:
                hi = mid
        edges += [lo, hi]
    return edges


def test_step_is_a_ladder_rung_that_keeps_the_certificate():
    # z log-uniform over [5e-324, 1e300], and the doubles either side of a
    # rung edge between each two consecutive points on different rungs (674
    # edges): the step is a rung 2^(-j/16), the largest at or below h_cert,
    # and the truncation margin holds.  The test evaluates h_cert in its own
    # order, so both ends allow 1e-14 of rounding
    rng = random.Random(3131)
    log_z = (math.log(5e-324), math.log(1e300))
    zs = sorted([5e-324, 1e300] + [math.exp(rng.uniform(*log_z)) for _ in range(1500)])
    edges = _rung_edges(zs)
    assert len(edges) > 1000
    for z in zs + edges:
        h, last, _, _ = oracle._step(z)
        j = round(-16.0 * math.log2(h))
        assert h == 2.0 ** (-j / 16), z
        h_cert, eps = _certified_step(z)
        assert h <= h_cert * (1.0 + 1e-14), z
        assert h * 2.0 ** (1 / 16) > h_cert * (1.0 - 1e-14), z
        lam = math.log(4.0 * h / eps) + 0.01
        assert last == int(math.asinh(math.sqrt(lam) / math.sqrt(z)) / h), z
        # 2 z sinh T cosh T h with sinh^2 T = lam / z, free of overflow
        assert 2.0 * h * math.sqrt(lam * (lam + z)) >= _STEP_MARGIN, z


def _traced_bytes(run):
    """The bytes allocated in ``oracle`` during ``run()`` that tracemalloc finds still held after it."""
    tracemalloc.start()
    try:
        run()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = snapshot.filter_traces([tracemalloc.Filter(True, oracle.__file__)])
    return sum(stat.size for stat in held.statistics("filename"))


def test_node_tables_cover_the_band_and_never_change():
    # after import the tables are exactly those of the rungs of the policy's
    # trapezoid band, each at least as long as any z of the band needs:
    # seeded z and the doubles either side of each rung edge.  No longer
    # than that either: in all no more nodes than the largest last node of
    # each rung, summed (137).  Each rung's committed edge is exactly its
    # first double, whose previous double ``_step`` puts on the rung before,
    # and the tables, by rising z, are those ``_step`` sizes at the edges.
    # Sweeps over every magnitude of z and over the band leave the same
    # tables, the same objects, and the tables take under 1 MB
    low, high = _SMALL_Z_LIMIT, oracle._GAUSS_RULES[0][0]
    rng = random.Random(6262)
    band = sorted([low, math.nextafter(high, 0.0)] + [rng.uniform(low, high) for _ in range(10_000)])
    assert set(oracle._TABLES) == {oracle._step(z)[0] for z in band}
    edges = _rung_edges(band)
    needed = {}
    for z in band + edges:
        h, last, _, _ = oracle._step(z)
        assert len(oracle._TABLES[h]) >= last, z
        needed[h] = max(needed.get(h, 0), last)
    assert sum(map(len, oracle._TABLES.values())) <= sum(needed.values())
    firsts = [low, *edges[1::2]]
    assert len(oracle._RUNG_EDGES) == len(firsts) == len(oracle._TABLES)
    assert list(oracle._RUNG_EDGES) == firsts
    steps = list(oracle._TABLES)
    assert steps == [oracle._step(edge)[0] for edge in oracle._RUNG_EDGES]
    for edge, step in zip(oracle._RUNG_EDGES[1:], steps):
        assert oracle._step(math.nextafter(edge, 0.0))[0] == step, edge
    held = dict(oracle._TABLES)

    def sweep():
        for z in band:
            _kernel(z, 0.0, 1.0)

    assert _traced_bytes(sweep) < 1_000_000
    # tracing slows the kernel's float arithmetic some thirty-fold, so the
    # sweep over every magnitude runs untraced
    log_z = (math.log(5e-324), math.log(1e300))
    for z in [math.exp(rng.uniform(*log_z)) for _ in range(10_000)]:
        _kernel(z, 0.0, 1.0)
    assert oracle._TABLES.keys() == held.keys()
    assert all(oracle._TABLES[h] is nodes for h, nodes in held.items())
    rebuilt = []

    def rebuild():
        steps = map(oracle._step, oracle._RUNG_EDGES)
        rebuilt.append({h: oracle._nodes(h, last) for h, last, _, _ in steps})

    assert _traced_bytes(rebuild) < 1_000_000
    assert rebuilt == [held]


def _hexes(values) -> list:
    """``values`` with each float as its float.hex, so that two lists compare bit for bit."""
    return [v.hex() if type(v) is float else v for v in values]


def test_band_kernels_are_the_trapezoid_of_step_bit_for_bit(monkeypatch):
    # the policy's trapezoid band is one band per rung, each kernel holding
    # its rung's step and table.  At 20,000 seeded z of the band, each rung
    # edge and the two doubles either side of it, the kernel of z's band
    # sums exactly the nodes ``_step`` certifies, one exp per node past
    # t = 0, reports ``_step``'s eps, and those nodes and t = 0 as its work,
    # and returns what a ``_rung_kernel`` built afresh over the step and
    # nodes that ``_step`` picks returns, bit for bit, at w = 0, 1e-13, 0.5
    # and 1.  At 2,000 seeded points of the band ``cdf`` is the split
    # oracle's trapezoid, evaluated as the policy evaluates it
    low, high = _SMALL_Z_LIMIT, oracle._GAUSS_RULES[0][0]
    rng = random.Random(3535)
    zs = [rng.uniform(low, high) for _ in range(20_000)]
    for edge in oracle._RUNG_EDGES:
        below = math.nextafter(edge, 0.0)
        above = math.nextafter(edge, high)
        zs += [math.nextafter(below, 0.0), below, edge, above, math.nextafter(above, high)]
    zs = [z for z in zs if low <= z < high]
    assert len(zs) == 20_000 + 5 * len(oracle._RUNG_EDGES) - 2
    counting = _CountingMath()
    monkeypatch.setattr("nigcdf.oracle.math", counting)
    ours = []
    for z in zs:
        kernel, method = _band(z)
        assert method is Method.QUAD_SPLIT, z
        counting.calls = 0
        out = kernel(z, 0.0, 1e-13) + kernel(z, 0.5, 1.0)
        _, last, _, eps = oracle._step(z)
        assert counting.calls == 2 * last, z
        assert {v.hex() for v in out[2::5] + out[3::5]} == {eps.hex()}, z
        assert out[4::5] == (last + 1, last + 1), z
        ours.append(out)
    monkeypatch.undo()
    for z, out in zip(zs, ours):
        h, last, _, _ = oracle._step(z)
        fresh = oracle._rung_kernel(h, oracle._nodes(h, last))
        theirs = fresh(z, 0.0, 1e-13) + fresh(z, 0.5, 1.0)
        assert _hexes(out) == _hexes(theirs), z
    points = 0
    while points < 2000:
        p, x = draw_point(rng)
        if not low <= geometry(p, x).z < high:
            continue
        ours = cdf(p, x)
        theirs = oracle._evaluate(p, x, None, oracle._TRAPEZOID, ())
        assert _hexes(ours) == _hexes(theirs), (p, x)
        points += 1


def _trapezoid_reference(z, w, h, digits):
    """The untruncated trapezoid sum h * sum over all k of f(k h), in ``digits``-digit mpmath.

    Summed until a term falls below 10^-(digits+5) of the total.
    """
    with mpmath.workdps(digits):
        z, w, h = mpmath.mpf(z), mpmath.mpf(w), mpmath.mpf(h)
        floor = mpmath.mpf(10) ** (-digits - 5)
        total = mpmath.mpf(0.5) / (1 + w)
        k = 1
        while True:
            t = k * h
            term = mpmath.exp(-z * mpmath.sinh(t) ** 2) / (mpmath.cosh(t) + w)
            total += term
            if term < floor * total:
                return 2 * h * total
            k += 1


def _check_strip_bound(z, w):
    """The certificate of ``oracle._step`` at (z, w), judged in 40-digit mpmath.

    Trefethen-Weideman on the strip |Im t| <= y: the whole trapezoid sum at
    step h is within B = 2M / (e^{2 pi y / h} - 1) of K, with
    M = e^{z sin^2 y} min(pi, sqrt(pi/(z cos 2y))) / cos y; checked at the
    certified step and at two and four times it, where the error is large
    enough to measure.  At the certified step B <= eps/2, and the sum over
    the kernel's own nodes, which drops those past T, is within eps of K.
    """
    h_c, last, y, eps = oracle._step(z)
    k = _kernel_reference(z, w)
    zm, ym = mpmath.mpf(z), mpmath.mpf(y)
    m = (
        mpmath.exp(zm * mpmath.sin(ym) ** 2)
        * min(mpmath.pi, mpmath.sqrt(mpmath.pi / (zm * mpmath.cos(2 * ym))))
        / mpmath.cos(ym)
    )
    for h in (h_c, 2.0 * h_c, 4.0 * h_c):
        bound = 2 * m / mpmath.expm1(2 * mpmath.pi * ym / h)
        assert abs(_trapezoid_reference(z, w, h, 40) - k) <= bound, (z, w, h)
        if h == h_c:
            assert bound <= 0.5 * eps * (1 + 1e-12), (z, w)
    hm = mpmath.mpf(h_c)
    kept = 2 * hm * (
        mpmath.mpf(0.5) / (1 + w)
        + mpmath.fsum(
            mpmath.exp(-zm * mpmath.sinh(j * hm) ** 2) / (mpmath.cosh(j * hm) + w)
            for j in range(1, last + 1)
        )
    )
    assert abs(kept - k) <= eps, (z, w)


def test_trapezoid_error_is_within_the_strip_bound():
    # z log-uniform over [0.3, 1e6], w at both ends and uniform between; at
    # w = 0 and large z the bound is nearly attained, so a slip in M fails here
    rng = random.Random(2020)
    with mpmath.workdps(40):
        for _ in range(50):
            z = math.exp(rng.uniform(math.log(0.3), math.log(1e6)))
            _check_strip_bound(z, rng.choice((0.0, 1.0, rng.random())))


def _kernel_reference(z: float, w: float):
    """K(z, w) by mpmath tanh-sinh quadrature in t, sigma = sinh(t), at the current precision."""
    z, w = mpmath.mpf(z), mpmath.mpf(w)
    end = mpmath.asinh(mpmath.sqrt(100 / z))  # the integrand is below e^{-100} beyond
    return 2 * mpmath.quad(
        lambda t: mpmath.exp(-z * mpmath.sinh(t) ** 2) / (mpmath.cosh(t) + w),
        [end * k / 16 for k in range(17)],
    )


# fixed z of the kernel's value check, besides the seeded ones: 0.5 and 30.0
# read the node tables; K falls like sqrt(pi/z), to about 1.8e-8 at 1e16
KERNEL_ZS = (5e-324, 1e-12, 1e-9, 1e-4, 0.5, 30.0, 5000.0, 1e4, 1e8, 1e16)


def test_kernel_is_relatively_accurate_over_the_double_range():
    # the fixed z and 30 z log-uniform from the smallest double to 1e16; at
    # each, w_plus and w_minus two different values of 0, 1, a uniform and a
    # log-uniform w in [1e-13, 1], so each output is judged on its own w.
    # The certified level is within 2^-53 of K before rounding, and the
    # rounding of its sums stays below 1.1e-15 of K
    rng = random.Random(4040)
    log_z = (math.log(5e-324), math.log(1e16))
    zs = [*KERNEL_ZS, *(math.exp(rng.uniform(*log_z)) for _ in range(30))]
    with mpmath.workdps(30):
        for z in zs:
            ws = (0.0, 1.0, rng.random(), math.exp(rng.uniform(math.log(1e-13), 0.0)))
            w_plus, w_minus = rng.sample(ws, 2)
            k_plus, k_minus, _, _, _ = _kernel(z, w_plus, w_minus)
            for k, w in ((k_plus, w_plus), (k_minus, w_minus)):
                ref = _kernel_reference(z, w)
                assert abs(k - ref) <= 1.1e-15 * ref, (z, w_plus, w_minus)


# the w grid of the small-z kernel's checks: both ends, and both ends' neighbours
SMALL_Z_WS = (0.0, 1e-12, 0.05, 0.3, 0.7, 0.99, 1.0 - 1e-9, 1.0)
# from the smallest double up to the largest double below the crossover,
# where the series serves, and on over the first trapezoid rung up to the
# largest double below 1/4, so the kernel that ``cdf`` takes at small z is
# judged the same way on both sides of the crossover
SMALL_Z_ZS = (5e-324, 1e-300, 1e-100, 1e-12, 1e-4, 0.01, 0.04, 0.06,
              math.nextafter(_SMALL_Z_LIMIT, 0.0), 0.1, 0.2, 0.24,
              math.nextafter(0.25, 0.0))


def _band(z: float) -> tuple:
    """(kernel, method) of the z band of ``cdf`` that holds z."""
    return _BANDS[bisect_right(_BAND_EDGES, z)]


def _work(kernel, p, x) -> int:
    """The work the split with ``kernel`` reports at (p, x): the kernel's, or 0 if it calls none."""
    return oracle._split(_geometry(p, x), False, kernel)[3]


def _small_z(z: float, w: float) -> float:
    return _band(z)[0](z, w, w)[0]


def test_small_z_kernel_at_the_smallest_double_is_k_at_zero():
    # K(0, w) = 2 acos(w) / sqrt(1 - w^2), which tends to 2 as w -> 1; at
    # z = 5e-324, K(z, w) lies about 2 sqrt(pi z) = 8e-162 below it
    for w in SMALL_Z_WS:
        ref = 2.0 if w == 1.0 else 2.0 * math.acos(w) / math.sqrt((1.0 - w) * (1.0 + w))
        assert abs(_small_z(5e-324, w) - ref) <= 4e-16 * ref


@pytest.mark.parametrize("z", SMALL_Z_ZS)
def test_small_z_kernel_at_w_zero_is_pi_erfcx(z):
    ref = math.pi * erfcx(math.sqrt(z))
    assert abs(_small_z(z, 0.0) - ref) <= 1e-15 * ref


@pytest.mark.parametrize("z", [1e-300, 1e-12, 1e-4, 0.04, math.nextafter(_SMALL_Z_LIMIT, 0.0)])
def test_small_z_rows_sum_m_to_mpmath(z):
    # M = integral over [0, z] of e^{a t} K_0(t/2) dt, a = w^2 - 1/2, alone,
    # as the recurrences of ``_small_z_m`` sum it to the highest order, 8:
    # at small z, M enters K at about z ln(1/z) and so is invisible in K.
    # The reference integrates over [0, 1] in u = t / z, where the
    # quadrature resolves the logarithmic singularity at 0 at every z
    lam = math.log(z) - oracle._LOG_4_MINUS_GAMMA
    with mpmath.workdps(30):
        for w in SMALL_Z_WS:
            a = w * w - 0.5
            ref = z * mpmath.quad(
                lambda u: mpmath.exp(a * z * u) * mpmath.besselk(0, z * u / 2), [0, 1]
            )
            m = _small_z_m(z, lam, w, w)[0]
            assert abs(m - float(ref)) <= 1e-15 * float(ref)


def _harmonic(k: int) -> float:
    return math.fsum(1.0 / j for j in range(1, k + 1))


def _small_z_tail(n: int, z: float) -> float:
    """2 t_n of ``oracle._small_z_kernel``: the bound on the terms of M from n on, for z <= 1/4."""
    lam = math.log(z) - math.log(4.0) + 0.5772156649015329
    return z ** (n + 1) * (_harmonic(n // 2) + 1.0 / (n + 1) - lam) / math.factorial(n + 1)


def _small_z_certifies(order: int, z: float) -> bool:
    """Whether the tail bound past ``order`` is within 2^-53 K_low, K_low of ``oracle._step``."""
    k_low = math.sqrt(math.pi) / (math.sqrt(z) + math.sqrt(z + 2.0))
    return _small_z_tail(order + 1, z) <= 2.0**-53 * k_low


def _small_z_coefficients(a, one, order: int) -> tuple[list, list]:
    """A_n and B_n of ``oracle._small_z_kernel`` for n <= ``order``, by its recurrences.

    In the arithmetic of ``a`` = w^2 - 1/2 and ``one``, its unit: exact
    with Fraction, at the current precision with mpmath.
    """
    c = one / 4 - a * a  # w^2 s^2
    A, B = [one, a], [0 * one, 0 * one]
    for n in range(1, order):
        A.append(((2 * n + 1) * a * A[n] + c * A[n - 1]) / (n + 1) ** 2)
        B.append(((2 * n + 1) * a * B[n] + c * B[n - 1] + 2 * (n + 1) * A[n + 1]
                  - 2 * a * A[n]) / (n + 1) ** 2)
    return A, B


def test_small_z_coefficients_lie_under_their_majorants():
    # A_n and B_n in exact rational arithmetic, with a = w^2 - 1/2 at both
    # ends of [-1/2, 1/2], 0 and between:
    # |A_n| <= 1/(2 n!) and |B_n| <= H_{floor(n/2)} / (2 n!)
    for a in (Fraction(-1, 2), Fraction(-1, 3), Fraction(0), Fraction(1, 7), Fraction(1, 2)):
        A, B = _small_z_coefficients(a, Fraction(1), 16)
        assert B[2] == Fraction(1, 16)  # H_1 (1/4)^2, the K_0 companion's first term
        for n in range(1, 17):
            bound = Fraction(1, 2 * math.factorial(n))
            assert abs(A[n]) <= bound, (a, n)
            assert abs(B[n]) <= bound * sum(Fraction(1, j) for j in range(1, n // 2 + 1)), (a, n)


def test_small_z_order_edges_follow_the_majorant():
    # order 8 is the least order that certifies 2^-53 K_low at every z below
    # the crossover: it does at the largest double below it, where order 7
    # does not, and the tail bound over K_low rises with z.  The band table
    # gives it the one band below the crossover, and its edges strictly
    # increase from there
    below = math.nextafter(_SMALL_Z_LIMIT, 0.0)
    assert _small_z_certifies(8, below) and not _small_z_certifies(7, below)
    kernel, method = _band(below)
    assert method is Method.SMALL_Z_SERIES and kernel(below, 0.5, 0.5)[4] == 8
    assert _BAND_EDGES[0] == _SMALL_Z_LIMIT
    assert all(lo < hi for lo, hi in zip(_BAND_EDGES, _BAND_EDGES[1:]))
    assert len(_BANDS) == len(_BAND_EDGES) + 1 == 18


def _small_z_series_mp(z: float, w: float, order: int) -> mpmath.mpf:
    """K(z, w) by the series of ``oracle._small_z_kernel`` to ``order``, at the current precision.

    The kernel's sum before rounding: its recurrences and closed-form
    terms, each evaluated in mpmath.
    """
    z, w = mpmath.mpf(z), mpmath.mpf(w)
    A, B = _small_z_coefficients(w * w - mpmath.mpf(1) / 2, mpmath.mpf(1), order)
    lam = mpmath.log(z / 4) + mpmath.euler
    m = z * mpmath.fsum((B[n] + A[n] * (mpmath.mpf(1) / (n + 1) - lam)) * z**n / (n + 1)
                        for n in range(order + 1))
    s2 = (1 - w) * (1 + w)
    if s2 == 0:  # w = 1: atan2(s, w) / s -> 1, erf(s sqrt z) / s -> 2 sqrt(z / pi)
        return 2 - 2 * mpmath.sqrt(mpmath.pi * z) + m
    s = mpmath.sqrt(s2)
    head = 2 * mpmath.atan2(s, w) / s - mpmath.pi * mpmath.erf(s * mpmath.sqrt(z)) / s
    return mpmath.exp(s2 * z) * (head + w * m)


def test_small_z_kernel_bounds_its_truncation():
    # z seeded log-uniform over [1e-8, _SMALL_Z_LIMIT), plus the largest
    # double below the crossover; w_plus at both ends and at w^2 = 1/2,
    # where the odd terms of M vanish, w_minus uniform.  dK is the
    # documented bound w e^{s^2 z} 2 t_9; the series to order 8, summed in
    # 40 digits, lies within it of K before rounding (up to the 1e-38 to
    # which 40 digits resolve K, for w = 0, where dK = 0), and dK <= 2^-53 K
    rng = random.Random(2929)
    zs = [math.nextafter(_SMALL_Z_LIMIT, 0.0)]
    zs += [math.exp(rng.uniform(math.log(1e-8), math.log(_SMALL_Z_LIMIT))) for _ in range(8)]
    with mpmath.workdps(40):
        for z in zs:
            kernel, method = _band(z)
            assert method is Method.SMALL_Z_SERIES
            w_plus, w_minus = rng.choice((0.0, 1.0, math.sqrt(0.5))), rng.random()
            _, _, dk_plus, dk_minus, order = kernel(z, w_plus, w_minus)
            for w, dk in ((w_plus, dk_plus), (w_minus, dk_minus)):
                growth = math.exp((1.0 - w) * (1.0 + w) * z)
                bound = w * growth * _small_z_tail(order + 1, z)
                assert dk == pytest.approx(bound, rel=1e-13, abs=0.0)
                ref = _kernel_reference(z, w)
                gap = abs(_small_z_series_mp(z, w, order) - ref)
                assert gap <= dk + 1e-38 * ref, (z, w, order)
                assert dk <= 2.0**-53 * ref, (z, w, order)


def _hermite_rule(n: int) -> list:
    """(x_i, W_i) over the positive nodes of the order-n Gauss-Hermite rule, at the current precision.

    Golub-Welsch (the eigenvalues of the Jacobi matrix, off-diagonal
    sqrt(k/2)), then Newton on the normalised Hermite recurrence, whose
    polynomials p_k have p_n' = sqrt(2n) p_{n-1}; the weight is the
    Christoffel number 1 / sum_{k<n} p_k(x)^2 at the last iterate but one,
    which the last Newton step moves only at the working precision.
    """
    jacobi = mpmath.zeros(n, n)
    for k in range(1, n):
        jacobi[k, k - 1] = jacobi[k - 1, k] = mpmath.sqrt(mpmath.mpf(k) / 2)
    eigenvalues = mpmath.eigsy(jacobi, eigvals_only=True)
    rule = []
    for x in sorted(v for v in eigenvalues if v > 0):
        for _ in range(4):
            p0, p1, total = mpmath.mpf(0), mpmath.pi ** mpmath.mpf(-0.25), mpmath.mpf(0)
            for k in range(n):
                total += p1 * p1
                p0, p1 = p1, x * mpmath.sqrt(mpmath.mpf(2) / (k + 1)) * p1 - mpmath.sqrt(
                    mpmath.mpf(k) / (k + 1)) * p0
            x -= p1 / (mpmath.sqrt(2 * n) * p0)
        rule.append((x, 1 / total))
    return rule


def _gauss_rule_mp(z, w, rule) -> mpmath.mpf:
    """The Gauss sum of ``oracle._gauss_kernel`` at the current precision, with ``rule``'s nodes."""
    z, w = mpmath.mpf(z), mpmath.mpf(w)
    total = mpmath.mpf(0)
    for x, weight in rule:
        q = mpmath.sqrt(1 + x * x / z)
        total += 2 * weight / (q * (q + w))
    return total / mpmath.sqrt(z)


# (lower edge, next edge) of each rule's z band, the last run out to z = 1e12
GAUSS_BANDS = list(zip([edge for edge, _ in oracle._GAUSS_RULES],
                       [edge for edge, _ in oracle._GAUSS_RULES[1:]] + [1e12]))
# the z from which each rule, 8 nodes down to 1, is within 2^-53 at w = 0,
# as the oracle documents them
GAUSS_CERTIFIED_FROM = (26.18, 34.78, 50.32, 83.87, 181.3, 679.3, 10_779.0, 6.71e7)


def test_gauss_rule_literals_are_the_mpmath_rule_rounded_once():
    assert [len(rule) for _, rule in oracle._GAUSS_RULES] == list(range(8, 0, -1))
    for _, rule in oracle._GAUSS_RULES:
        with mpmath.workdps(50):
            mp_rule = _hermite_rule(2 * len(rule))
            total = mpmath.fsum(2 * weight for _, weight in mp_rule)
            assert abs(total - mpmath.sqrt(mpmath.pi)) < 1e-45
            recomputed = tuple((float(x * x), float(2 * weight)) for x, weight in reversed(mp_rule))
        assert recomputed == rule
        # smallest weight first; the rounded weights still sum to sqrt(pi)
        weights = [weight for _, weight in rule]
        assert weights == sorted(weights)
        assert abs(math.fsum(weights) - math.sqrt(math.pi)) <= 2.3e-16


def test_gauss_rule_underestimates_k_by_at_most_its_bound():
    # per band, z log-uniform over it, its lower edge and the largest double
    # below the next included, the last band out to z = 1e12; w at both ends
    # and uniform between: before rounding (the 40-digit rule) each band's
    # rule lies below K by at most 2^-53 K, the dK it reports.  Rounding
    # included, the kernel is within 8e-16 of K
    rng = random.Random(2201)
    with mpmath.workdps(40):
        for (lo, hi), (_, rule) in zip(GAUSS_BANDS, oracle._GAUSS_RULES):
            kernel, method = _band(lo)
            assert method is Method.GAUSS_SPLIT
            nodes = len(rule)
            mp_rule = _hermite_rule(2 * nodes)
            log_z = (math.log(lo), math.log(hi))
            for i in range(6):
                z = (lo, math.nextafter(hi, 0.0))[i] if i < 2 else math.exp(rng.uniform(*log_z))
                assert _band(z)[0] is kernel
                w = rng.choice((0.0, 1.0, rng.random()))
                ref = _kernel_reference(z, w)
                rel = (ref - _gauss_rule_mp(z, w, mp_rule)) / ref
                assert 0.0 < rel <= 2.0**-53, (z, w)
                k_plus, k_minus, dk_plus, dk_minus, work = kernel(z, w, 1.0 - w)
                assert work == nodes
                assert abs(k_plus - ref) <= 8e-16 * ref, (z, w)
                assert dk_plus == 2.0**-53 * k_plus and dk_minus == 2.0**-53 * k_minus


def test_gauss_rule_error_at_w_zero_falls_with_z():
    # at w = 0, where the relative error is largest, K = pi erfcx(sqrt z).
    # Each rule's error crosses 2^-53 within 0.1 % of the z documented for
    # it; at its band's lower edge it lies in (0, 2^-53] while the rule of
    # one node fewer is over 2^-53; and it falls with z across the band
    def error(z, rule):
        z = mpmath.mpf(z)
        ref = mpmath.pi * mpmath.exp(z) * mpmath.erfc(mpmath.sqrt(z))
        return (ref - _gauss_rule_mp(z, 0.0, rule)) / ref

    with mpmath.workdps(40):
        rules = {n: _hermite_rule(2 * n) for n in range(1, 9)}
        for (lo, hi), certified in zip(GAUSS_BANDS, GAUSS_CERTIFIED_FROM):
            nodes = _band(lo)[0](lo, 0.0, 0.0)[4]
            rule = rules[nodes]
            assert error(0.999 * certified, rule) > 2.0**-53 >= error(1.001 * certified, rule)
            errors = [error(lo * (hi / lo) ** (k / 6), rule) for k in range(7)]
            assert 0.0 < errors[-1] and errors[0] <= 2.0**-53
            assert all(a > b for a, b in zip(errors, errors[1:])), nodes
            if nodes > 1:
                assert error(lo, rules[nodes - 1]) > 2.0**-53, nodes
        assert 1.9e-17 < error(30.0, rules[8]) < 2.0e-17


@pytest.mark.parametrize("w", [0.0, 0.5, 1.0])
def test_gauss_rule_minus_the_kmax_15_series_is_order_z_minus_16(w):
    # the rule integrates u^k exactly for k <= 15, so with g(u) = 1/(q (q + w))
    # = sum_k g_k u^k and the rule's moments M_k = sum_i 2 W_i x_i^(2k),
    # Gauss - S_15 = sum_{k>=16} g_k M_k z^(-k-1/2): z^16.5 (Gauss - S_15)
    # tends to g_16 M_16, within O(1/z).  S_15 is the d-series to kmax = 15,
    # sum_k g_k Gamma(k + 1/2) z^(-k-1/2).
    with mpmath.workdps(80):
        rule = _hermite_rule(16)
        g = mpmath.taylor(lambda u: 1 / (mpmath.sqrt(1 + u) * (mpmath.sqrt(1 + u) + w)), 0, 16)
        half = mpmath.mpf(1) / 2

        def series(z):
            return mpmath.fsum(g[k] * mpmath.gamma(k + half) * z ** (-k - half) for k in range(16))

        limit = g[16] * mpmath.fsum(2 * weight * x**32 for x, weight in rule)
        for z in (1e2, 1e3, 1e4):
            z = mpmath.mpf(z)
            scaled = z**16.5 * (_gauss_rule_mp(z, w, rule) - series(z))
            assert abs(scaled / limit - 1) <= 20 / z, z
        # the float kernels show the same gap while it is above their rounding
        eight_nodes = oracle._gauss_kernel(oracle._GAUSS_RULES[0][1])
        for z in (30.0, 35.0, 40.0):
            gauss = eight_nodes(z, w, w)[0]
            gap = gauss - _series_kernel(15)(z, w, w)[0]
            assert abs(gap - float(_gauss_rule_mp(z, w, rule) - series(z))) <= 1e-15 * gauss, z


def test_gauss_route_agrees_with_the_trapezoid_at_every_w_minus():
    # seeded points with z >= 30, on both sides of the transition, with
    # w_minus < 0, 0 <= w_minus < 0.05 (the band the old gate sent to
    # quadrature) and w_minus >= 0.05; the two rules share nothing but the split
    rng = random.Random(2202)
    bands = {"negative": [], "small": [], "rest": []}
    while len(bands["small"]) < 25 or min(len(v) for v in bands.values()) < 25:
        p, x = draw_point(rng)
        g = geometry(p, x)
        if g.z < 30.0:
            continue
        band = "negative" if g.w_minus < 0.0 else "small" if g.w_minus < 0.05 else "rest"
        if len(bands[band]) < 300:
            bands[band].append((p, x))
    complemented = set()
    for points in bands.values():
        for p, x in points:
            r = cdf(p, x)
            kernel, method = _band(geometry(p, x).z)
            assert (r.method, r.kmax_used) == (method, _work(kernel, p, x))
            assert r.method is Method.GAUSS_SPLIT
            assert 0.0 <= r.error_estimate <= 1e-16
            assert abs(r.value - cdf_quad_split(p, x).value) <= 4.5e-16, (p, x)
            complemented.add(r.complemented)
    assert complemented == {False, True}


def _either_side_of_z(p, limit: float, side: float) -> tuple[float, float]:
    """The adjacent doubles x, on ``side`` of mu, with z(x) < ``limit`` <= z(next x).

    With delta = 1, z = 2 alpha omega reaches ``limit`` at |x - mu| = reach.
    """
    reach = math.sqrt((limit / (2.0 * p.alpha)) ** 2 - 1.0)
    outer = p.mu + side * (reach + 0.1)  # z > limit
    inner = p.mu + side * (reach - 0.1)  # z < limit
    for _ in range(200):
        mid = 0.5 * (outer + inner)
        if mid in (outer, inner):
            break
        if geometry(p, mid).z >= limit:
            outer = mid
        else:
            inner = mid
    assert math.nextafter(inner, outer) == outer
    return inner, outer


@pytest.mark.parametrize("beta", [-6.0, -2.0, 0.0, 2.0, 6.0])
def test_cdf_has_no_jump_where_z_crosses_30(beta):
    # z = 2 alpha omega = 30 at two x, one each side of mu; the trapezoid
    # route ends one double short of each, and the Gauss route starts there
    p = validate(8.0, beta, 3.0, 1.0)
    for side in (-1.0, 1.0):
        inner, outer = _either_side_of_z(p, 30.0, side)
        below, above = cdf(p, inner), cdf(p, outer)
        assert (below.method, above.method) == (Method.QUAD_SPLIT, Method.GAUSS_SPLIT)
        assert abs(above.value - below.value) <= 4.5e-16, (side, below, above)


@pytest.mark.parametrize("tilt", [-0.8, -0.4, 0.0, 0.4, 0.8])
def test_cdf_has_no_jump_where_z_crosses_the_small_z_limit(tilt):
    # the same at the small-z crossover: the series ends one double short of
    # each x where z = _SMALL_Z_LIMIT, and the trapezoid starts there; with
    # delta = 1, z = 2 alpha omega >= 2 alpha, so alpha < _SMALL_Z_LIMIT / 2
    for alpha in (0.01, 0.03):
        p = validate(alpha, tilt * alpha, 3.0, 1.0)
        for side in (-1.0, 1.0):
            inner, outer = _either_side_of_z(p, _SMALL_Z_LIMIT, side)
            below, above = cdf(p, inner), cdf(p, outer)
            assert (below.method, above.method) == (Method.SMALL_Z_SERIES, Method.QUAD_SPLIT)
            assert abs(above.value - below.value) <= 4.5e-16, (alpha, side, below, above)


@pytest.mark.parametrize("tilt", [-0.6, 0.6])
@pytest.mark.parametrize("edge", _BAND_EDGES)
def test_cdf_has_no_jump_at_a_band_edge(edge, tilt):
    # alpha = 0.4 edge puts z = edge at |x - mu| = 0.75, where x = x0 on the
    # side of the tilt: the band below ends one double short of each such x,
    # and the next band, with one order more or one node fewer, starts
    # there.  Near x0 at large alpha F itself moves by up to 7e-13 from one
    # double to the next, so the two bands' kernels are compared at the same
    # x, the first of the upper band, where both are certified
    band = _BAND_EDGES.index(edge)
    p = validate(0.4 * edge, 0.4 * edge * tilt, 3.0, 1.0)
    for side in (-1.0, 1.0):
        inner, outer = _either_side_of_z(p, edge, side)
        below, above = cdf(p, inner), cdf(p, outer)
        (kernel_below, method_below), (kernel_above, method_above) = _BANDS[band : band + 2]
        assert (below.method, below.kmax_used) == (method_below, _work(kernel_below, p, inner))
        assert (above.method, above.kmax_used) == (method_above, _work(kernel_above, p, outer))
        value = oracle._evaluate(p, outer, above.complemented, _BANDS[band : band + 1], ()).value
        if above.complemented:
            value = 1.0 - value
        assert abs(above.value - value) <= 4.5e-16, (side, above, value)


def test_split_route_reports_its_certified_error_bound():
    # the estimate is |c_plus| eps + |c_minus| eps, eps = 2^-53 K_low the
    # bound the trapezoid step is certified to in advance; so it stays far
    # within 0.5e-12 plus a clamping of rounding size, and bounds the true
    # error up to rounding, judged on the reference set's rows that ``cdf``
    # sends to the trapezoid
    rows = 0
    for row in read_values():
        p = validate(*row[1:5])
        try:
            if cdf(p, row.x).method is not Method.QUAD_SPLIT:
                continue
        except NigError:  # z leaves the double range
            continue
        value, _, _, error, _ = oracle._evaluate(p, row.x, False, oracle._TRAPEZOID, ())
        assert 0.0 <= error <= 0.5e-12 + 1e-15
        assert abs(value - float(row.F)) <= 100.0 * (error + 1e-15), row
        rows += 1
    assert rows >= 300


def test_direct_route_reports_its_bound_and_node_count():
    # on the criterion-07 points the record carries the nodes summed and the
    # bound eps = 2^-53 M(0) / (2 pi); M(0) bounds the integral of |f|, so
    # eps is at least 2^-53 |I|, and the split oracle judges it
    rng = random.Random(17)
    estimates = []
    while len(estimates) < 50:
        p, x = draw_point(rng)
        g = geometry(p, x)
        if abs(g.nu - p.tau) <= 0.05 or not 5.0 <= g.z <= 200.0:
            continue
        value, method, work, error, complemented = cdf_quad_direct(p, x)
        assert (method, complemented) == (Method.QUAD_DIRECT, False) and work > 1
        integral = value if g.s_plus > 0.0 else value - 1.0
        assert 2.0**-53 * abs(integral) <= error <= 1e-15
        assert abs(value - cdf_quad_split(p, x).value) <= 100.0 * (error + 1e-15)
        estimates.append(error)
    assert max(estimates) > 0.0


def _points_where_the_split_weight_underflows(count: int) -> list:
    """Seeded points with E = exp(-z s_plus^2) == 0, on both sides of the transition."""
    rng = random.Random(745)
    points = []
    while len(points) < count:
        alpha = math.exp(rng.uniform(0.0, math.log(1e3)))
        delta = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
        p = validate(alpha, alpha * rng.uniform(-0.95, 0.95), 0.0, delta)
        x = rng.choice((-1.0, 1.0)) * delta * 10.0 ** rng.uniform(0.0, 4.0)
        g = geometry(p, x)
        if math.exp(-g.z * (g.s_plus * g.s_plus)) == 0.0:
            points.append((p, x, g))
    return points


@pytest.mark.parametrize(
    "entry", [cdf, cdf_asym, cdf_quad_split], ids=["auto", "asym", "quad-split"]
)
def test_split_skips_the_minus_part_where_its_weight_underflows(monkeypatch, entry):
    # with E = 0 both minus-part terms are exactly 0, so _split neither
    # evaluates erfcx nor changes F: F is the bare erfc term of the plus part,
    # and as it calls no kernel the record reports no work
    minus_parts = []
    split = oracle._split

    def recorded(*args):
        parts = split(*args)
        minus_parts.append(parts[1])
        return parts

    def refused(x):
        raise AssertionError("erfcx evaluated for a minus part of weight 0")

    monkeypatch.setattr(oracle, "_split", recorded)
    monkeypatch.setattr(oracle, "_erfcx", refused)
    taken = set()
    for p, x, g in _points_where_the_split_weight_underflows(60):
        minus_parts.clear()
        r = entry(p, x)
        assert minus_parts == [0.0]
        assert r.kmax_used == 0
        taken.add((r.method, r.complemented))
        if r.complemented:
            assert r.value == 1.0 - 0.5 * math.erfc(-g.zeta_plus)
        else:
            assert r.value == 0.5 * math.erfc(g.zeta_plus)
    if entry is cdf:
        assert taken == {(Method.GAUSS_SPLIT, True), (Method.GAUSS_SPLIT, False)}


def _clamped_by_min_max(raw, error):
    """(value, estimate) by the clamp min(1.0, max(0.0, raw)) and error + |raw - value|."""
    value = min(1.0, max(0.0, raw))
    return value, error + abs(raw - value)


def test_evaluate_clamps_as_min_and_max_do(monkeypatch):
    # ``_evaluate`` clamps by comparisons; its value and estimate must be the
    # doubles that min and max give.  A one-band stub kernel with K = NaN or
    # +-1e300 sends the split's raw to NaN and past both ends, on F, on G
    # and on the policy's flip; no value may come back as -0.0, and the
    # record's work is the stub's
    p = validate(ALPHA, 2.0, MU, DELTA)
    seen = set()
    for k in (math.nan, 1e300, -1e300):
        def stub(z, w_plus, w_minus, k=k):
            return k, k, 1e-17, 1e-17, 7

        band = ((stub, Method.QUAD_SPLIT),)
        for x in (-1.0, 3.5, 5.0, 12.0):
            g = geometry(p, x)
            for side in (False, True, None):
                if side is None:
                    upper = flip = g.zeta_plus < 0.0
                else:
                    upper, flip = side, False
                plus, minus, error, _ = oracle._split(g, upper, stub)
                raw = plus - minus if upper else plus + minus
                value, estimate = _clamped_by_min_max(raw, error)
                if flip:
                    value = 1.0 - value
                r = oracle._evaluate(p, x, side, band, ())
                assert (r.value.hex(), r.error_estimate.hex()) == (value.hex(), estimate.hex())
                assert math.copysign(1.0, r.value) == 1.0, (k, x, side)
                assert r.kmax_used == 7
                seen.add("nan" if raw != raw else "high" if raw > 1.0 else "low")
    assert seen == {"nan", "high", "low"}
    # the clamp's edges, raw given by a stub split: -0.0 maps to +0.0, NaN to
    # 0.0 with a NaN estimate, 1.0 and the smallest subnormal stay
    edges = (-0.0, 0.0, 5e-324, 0.5, 1.0, math.nextafter(1.0, 2.0), math.inf, -math.inf, math.nan)
    for raw in edges:
        monkeypatch.setattr(
            oracle, "_split", lambda g, upper, kernel, raw=raw: (raw, -0.0, 0.25, 0)
        )
        r = oracle._evaluate(p, 5.0, False, oracle._TRAPEZOID, ())
        value, estimate = _clamped_by_min_max(raw, 0.25)
        assert (r.value.hex(), r.error_estimate.hex()) == (value.hex(), estimate.hex()), raw
        assert math.copysign(1.0, r.value) == 1.0, raw
