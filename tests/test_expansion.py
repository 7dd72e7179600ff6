"""Asymptotic expansions against the quadrature oracle and each other."""

import math
import os
import random
import sys
from fractions import Fraction

import pytest

from nigcdf import (
    DomainError,
    EvalResult,
    Geometry,
    Method,
    NigError,
    cdf,
    cdf_asym,
    cdf_quad_direct,
    cdf_quad_split,
    geometry,
    sf_asym,
    transition_point,
    validate,
)
from nigcdf import expansion, oracle
from nigcdf.cli import _ROUTES
from nigcdf.expansion import DEFAULT_KMAX, _series_kernel
from nigcdf.oracle import _GAUSS_RULES, _SMALL_Z_LIMIT, _kernel
from nigcdf.params import _geometry
from nigcdf.selftest import draw_point

ALPHA, MU, DELTA = 8.0, 3.0, 2.0
BETAS = (-4.0, 2.0, 7.5)

# allowed |cdf_asym - cdf_quad_split| at the transition points, kmax=5:
# twice the published absolute errors of the benchmark rows
ASYM_ERR_ALLOWANCE = {-4.0: 6.2e-8, 2.0: 3.4e-9, 7.5: 9.4e-10}


def _bench(beta):
    return validate(ALPHA, beta, MU, DELTA)


def _parts(g, upper=False):
    """(F_plus, or G_plus when ``upper``; F_minus) of the split with the kmax = 5 series."""
    plus, minus, _, _ = oracle._split(g, upper, _series_kernel(5))
    return plus, minus


def test_f_plus_is_half_at_transition():
    for beta in BETAS:
        p = _bench(beta)
        g = geometry(p, transition_point(p))
        assert _parts(g)[0] == pytest.approx(0.5, abs=1e-13)
        assert _parts(g, upper=True)[0] == pytest.approx(0.5, abs=1e-13)


def test_f_plus_matches_oracle_remainder():
    # F - F_minus computed by quadrature isolates the plus part
    p = _bench(-4.0)
    f_plus, f_minus = _parts(geometry(p, 6.0))
    assert abs(f_plus - (cdf_quad_split(p, 6.0).value - f_minus)) <= 1e-8


def test_g_plus_matches_oracle_remainder():
    p = _bench(7.5)
    g_plus, f_minus = _parts(geometry(p, 15.0), upper=True)
    oracle_g = 1.0 - cdf_quad_split(p, 15.0).value
    assert abs((g_plus - f_minus) - oracle_g) <= 1e-9


def test_plus_parts_are_complementary():
    rng = random.Random(21)
    for _ in range(200):
        p, x = draw_point(rng)
        g = geometry(p, x)
        assert abs(_parts(g)[0] + _parts(g, upper=True)[0] - 1.0) <= 1e-14


def test_forced_asym_is_accurate_where_w_minus_is_small():
    # the signed minus part on both sides of w_minus = 0: every forced
    # expansion route stays within criterion 08's 1e-7 of the oracle where
    # the auto route would fall back to quadrature
    named = validate(4.930440369386361, -4.613514519933387, -3.609729115647383,
                     0.2793600458756222)
    points = [(named, -6.868752472828687)]
    rng = random.Random(99)
    for _ in range(4000):
        p, x = draw_point(rng)
        g = geometry(p, x)
        if g.z >= 30.0 and g.w_minus < 0.05:
            points.append((p, x))
    assert len(points) >= 1000
    for p, x in points:
        ref = cdf_quad_split(p, x).value
        assert abs(cdf_asym(p, x).value - ref) <= 1e-7
        assert abs(1.0 - sf_asym(p, x).value - ref) <= 1e-7


def test_f_minus_vanishes_where_w_minus_changes_sign():
    # w_minus = 0 at x = mu - beta delta / gamma, the mirror image of the
    # transition point; the signed minus part shrinks to zero from both sides
    # with the sign of w_minus, and F stays on the oracle through the change
    p = _bench(-4.0)
    x_w0 = p.mu - p.beta * p.delta / p.gamma
    for dx in (-1e-6, -1e-9, 1e-9, 1e-6):
        g = geometry(p, x_w0 + dx)
        f_minus = _parts(g)[1]
        assert f_minus * g.w_minus > 0.0
        assert abs(f_minus) <= 1e-11
        assert abs(cdf_asym(p, x_w0 + dx).value - cdf_quad_split(p, x_w0 + dx).value) <= 1e-11


def test_cdf_asym_at_transition_matches_oracle():
    for beta in BETAS:
        p = _bench(beta)
        x0 = transition_point(p)
        asym = cdf_asym(p, x0, kmax=5).value
        quad = cdf_quad_split(p, x0).value
        assert abs(asym - quad) <= ASYM_ERR_ALLOWANCE[beta]


def test_cdf_asym_truncation_error_shrinks_with_kmax():
    for beta in BETAS:
        p = _bench(beta)
        x0 = transition_point(p)
        ref = cdf_quad_split(p, x0).value
        errs = [abs(cdf_asym(p, x0, kmax=k).value - ref) for k in range(6)]
        assert all(a > b for a, b in zip(errs, errs[1:]))


def test_cdf_asym_plus_sf_asym_is_one():
    for beta in BETAS:
        p = _bench(beta)
        for i in range(100):
            x = -2.0 + 14.0 * i / 99.0
            f = cdf_asym(p, x).value
            g = sf_asym(p, x).value
            assert abs(f + g - 1.0) <= 1e-12


def test_cdf_asym_smooth_through_transition():
    # strictly increasing microsteps, no jump beyond 10x the local secant
    for beta in BETAS:
        p = _bench(beta)
        x0 = transition_point(p)
        xs = [x0 + j * 1e-3 for j in range(-5, 6)]
        vals = [cdf_asym(p, x).value for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        secant = (vals[-1] - vals[0]) / (xs[-1] - xs[0])
        jumps = [abs(b - a) for a, b in zip(vals, vals[1:])]
        assert max(jumps) <= 10.0 * secant * 1e-3


def test_cdf_asym_clamps_to_unit_interval():
    p = _bench(2.0)
    assert cdf_asym(p, -7.0).value >= 0.0
    assert cdf_asym(p, 23.0).value <= 1.0
    assert sf_asym(p, 23.0).value >= 0.0
    # at z = 1.0 the series diverges, and the split leaves [0, 1] for F and
    # for G; the estimate adds the distance clamped off to the kernel's
    q = validate(0.5, 0.125, 3.0, 0.1)
    for entry, upper, bound in ((cdf_asym, False, 0.0), (sf_asym, True, 1.0)):
        plus, minus, error, _ = oracle._split(geometry(q, 2.0), upper, _series_kernel(DEFAULT_KMAX))
        raw = plus - minus if upper else plus + minus
        r = entry(q, 2.0)
        assert r.value == bound and r.error_estimate == error + abs(raw - bound), r


EVAL_RESULT_FIELDS = ("value", "method", "kmax_used", "error_estimate", "complemented")


def test_eval_result_fields():
    p = _bench(2.0)
    r = cdf_asym(p, 4.0, kmax=3)
    assert isinstance(r, EvalResult)
    assert r.method is Method.UNIFORM_ASYM
    assert r.kmax_used == 3
    assert r.error_estimate >= 0.0
    assert not r.complemented
    assert EvalResult._fields == EVAL_RESULT_FIELDS
    assert EvalResult(0.5, Method.QUAD_SPLIT, 0, 1e-13).complemented is False
    assert hash(r) == hash(cdf_asym(p, 4.0, kmax=3))


def test_every_route_returns_a_complete_eval_result():
    # the records are built field by field inside the package; each must be
    # the same EvalResult as one built through the public constructor.  The
    # routes of ``nigcdf eval --method`` include the two quadrature routes
    rng = random.Random(17)
    points = [draw_point(rng) for _ in range(300)]
    # z < 0.07: the small-z series, left and right of the transition
    points += [(validate(0.5, 0.125, 3.0, 0.06), x) for x in (3.0, 3.03)]
    taken = set()
    for p, x in points:
        results = [cdf(p, x), cdf_asym(p, x), sf_asym(p, x)]
        for route in _ROUTES.values():
            try:
                results.append(route(p, x, DEFAULT_KMAX))
            except NigError:
                pass
        for r in results:
            assert type(r) is EvalResult
            assert r == EvalResult(**r._asdict())
            assert type(r.complemented) is bool
            taken.add((r.method, r.complemented))
    complemented = {Method.GAUSS_SPLIT, Method.QUAD_SPLIT, Method.SMALL_Z_SERIES}
    assert taken == {(m, False) for m in Method} | {(m, True) for m in complemented}


@pytest.mark.parametrize("field", EVAL_RESULT_FIELDS)
def test_eval_result_is_immutable(field):
    r = cdf(_bench(2.0), 5.0)
    with pytest.raises(AttributeError):
        setattr(r, field, 0.0)


def test_error_estimate_tracks_actual_error():
    # heuristic, but it must not undershoot by orders of magnitude
    for beta in BETAS:
        p = _bench(beta)
        x0 = transition_point(p)
        r = cdf_asym(p, x0, kmax=5)
        actual = abs(r.value - cdf_quad_split(p, x0).value)
        assert actual <= 100.0 * (r.error_estimate + 1e-15)


def test_policy_uses_asym_in_the_trusted_region():
    # the auto route takes the Gauss rule here; cdf_asym keeps the series
    p = _bench(2.0)
    x0 = transition_point(p)
    r = cdf_asym(p, x0)
    assert r.method is Method.UNIFORM_ASYM
    assert not r.complemented
    assert cdf(p, x0).method is Method.GAUSS_SPLIT


def test_policy_complements_right_of_transition():
    p = _bench(-4.0)
    r = cdf(p, 20.0)
    assert r.complemented
    assert r.method is Method.GAUSS_SPLIT
    assert 0.0 <= r.value <= 1.0
    assert abs(r.value - cdf_quad_split(p, 20.0).value) <= 1e-9


def test_policy_falls_back_to_quadrature_for_small_z():
    # z = 2 alpha delta at x = mu: below the crossover the small-z series,
    # from the crossover, inclusive, up to the Gauss rule's 30 the trapezoid
    p = validate(0.5, 0.125, 3.0, 0.06)
    assert geometry(p, 3.0).z == pytest.approx(0.06)
    r = cdf(p, 3.0)
    assert r.method is Method.SMALL_Z_SERIES
    assert r.kmax_used == 8
    for delta in (_SMALL_Z_LIMIT, 1.0, 10.0):
        p = validate(1.0, 0.25, 3.0, 0.5 * delta)
        assert _SMALL_Z_LIMIT <= geometry(p, 3.0).z == delta < _GAUSS_RULES[0][0]
        r = cdf(p, 3.0)
        assert r.method is Method.QUAD_SPLIT
        assert r.kmax_used == oracle._step(delta)[1] + 1


def test_small_z_route_agrees_with_forced_quad_split(monkeypatch):
    # seeded draws with z from 1e-12 up to the crossover, on both sides of
    # w_minus = 0; the route takes no trapezoid node, so the policy's
    # trapezoid bands get a kernel that fails, and the split oracle gets its
    # own trapezoid back
    rng = random.Random(1606)
    draws = []
    while len(draws) < 200:
        alpha = 10.0 ** rng.uniform(-6.0, 1.0)
        delta = 10.0 ** rng.uniform(-12.0, 0.0) / alpha
        p = validate(alpha, alpha * rng.uniform(-0.99, 0.99), rng.uniform(-2.0, 2.0), delta)
        x = p.mu + delta * rng.uniform(-10.0, 10.0)
        if geometry(p, x).z < _SMALL_Z_LIMIT:
            draws.append((p, x))

    def no_trapezoid(*args):
        raise AssertionError("the small-z route took a trapezoid node")

    bands = tuple(
        (no_trapezoid if method is Method.QUAD_SPLIT else kernel, method)
        for kernel, method in expansion._BANDS
    )
    monkeypatch.setattr(expansion, "_BANDS", bands)
    results = [cdf(p, x) for p, x in draws]
    monkeypatch.undo()
    signs = set()
    for (p, x), r in zip(draws, results):
        assert r.method is Method.SMALL_Z_SERIES and r.kmax_used == 8
        assert 0.0 <= r.error_estimate <= 1e-15
        assert abs(r.value - cdf_quad_split(p, x).value) <= 1e-13
        signs.add(geometry(p, x).w_minus > 0.0)
    assert signs == {False, True}


def test_policy_takes_the_gauss_rule_at_small_w_minus():
    # the fixed-order series once sent such points to quadrature; the Gauss
    # rule holds its bound at any w_minus
    p = _bench(-4.0)
    g = geometry(p, 1.0)
    assert g.z >= 30.0 and g.w_minus < 0.05
    assert cdf(p, 1.0).method is Method.GAUSS_SPLIT


def test_policy_forced_methods():
    # cdf is the policy alone: a forced route is reached through its own
    # function, or through the routes of ``nigcdf eval --method``
    p = _bench(2.0)
    with pytest.raises(TypeError):
        cdf(p, 5.0, method="asym")
    with pytest.raises(TypeError):
        cdf(p, 5.0, kmax=DEFAULT_KMAX)
    assert cdf_asym(p, 5.0).method is Method.UNIFORM_ASYM
    taken = {m: _ROUTES[m](p, 5.0, DEFAULT_KMAX).method for m in _ROUTES}
    assert taken == {"auto": Method.GAUSS_SPLIT, "asym": Method.UNIFORM_ASYM,
                     "quad-split": Method.QUAD_SPLIT, "quad-direct": Method.QUAD_DIRECT}


# (parameters, x range, points): the benchmark rows, all on the Gauss band,
# then grids across the transition point on the lower bands: two on the
# small-z band that reach the trapezoid (z = 0.5) at their ends, and one on
# the trapezoid band that crosses into the Gauss band (z = 30) at x = 15
MONOTONE_GRIDS = [((ALPHA, beta, MU, DELTA), (MU - 10.0, MU + 20.0), 400) for beta in BETAS] + [
    ((0.5, 0.125, 3.0, 0.06), (2.5, 3.49), 2000),
    ((1.0, 0.2, 0.0, 1.0), (-12.0, 20.0), 2000),
    ((0.03, 0.012, 0.0, 1.0), (-8.2, 8.2), 2000),
]


def test_cdf_monotone_on_benchmark_grids():
    for params, (lo, hi), n in MONOTONE_GRIDS:
        p = validate(*params)
        prev = -1.0
        for i in range(n):
            x = lo + (hi - lo) * i / (n - 1)
            v = cdf(p, x).value
            assert 0.0 <= v <= 1.0
            assert v >= prev, (params, x)
            prev = v


@pytest.mark.parametrize(
    "params,x,method",
    [((0.5, 0.125, 3.0, 0.06), 2.98, Method.SMALL_Z_SERIES),
     ((0.5, 0.125, 3.0, 0.06), 3.03, Method.SMALL_Z_SERIES),
     ((1.0, 0.2, 0.0, 1.0), -1.0, Method.QUAD_SPLIT),
     ((1.0, 0.2, 0.0, 1.0), 3.0, Method.QUAD_SPLIT),
     ((8.0, 2.0, 3.0, 2.0), 1.0, Method.GAUSS_SPLIT),
     ((8.0, 2.0, 3.0, 2.0), 5.0, Method.GAUSS_SPLIT)],
    ids=[f"{band}-{side}" for band in ("small-z", "trapezoid", "gauss")
         for side in ("left", "right")],
)
def test_cdf_complements_right_of_the_transition_on_every_band(params, x, method):
    # one policy path: every band evaluates G and flips it where zeta_plus < 0
    p = validate(*params)
    r = cdf(p, x)
    assert r.method is method
    assert r.complemented == (geometry(p, x).zeta_plus < 0.0) == (x > transition_point(p))


FORCED_EXPANSIONS = [cdf_asym, sf_asym]


@pytest.mark.parametrize("entry", FORCED_EXPANSIONS, ids=["cdf_asym", "sf_asym"])
@pytest.mark.parametrize(
    "params,x,kmax",
    [((1e-60, 0.0, 0.0, 1e-60), 0.0, 5),  # z = 2e-120
     ((1e-60, 0.0, 0.0, 1e-60), 1e-60, 5),
     ((1e-8, -5e-9, 0.0, 1e-8), 1e-9, 25),  # z = 2e-16
     ((1.0, 0.5, 0.0, 1e-20), 1e-21, 25)],
)
def test_forced_expansions_keep_the_contract_where_the_series_overflows(
    entry, params, x, kmax
):
    # z^k or y^k = 1/((1 + w) z)^k, or the row P_kmax, leaves the double
    # range here; the result must still be a probability or a DomainError
    # that says why
    try:
        value = entry(validate(*params), x, kmax).value
    except DomainError as exc:
        assert f"kmax={kmax}" in str(exc) and "z=" in str(exc)
    else:
        assert 0.0 <= value <= 1.0


@pytest.mark.parametrize("entry", FORCED_EXPANSIONS, ids=["cdf_asym", "sf_asym"])
def test_forced_expansions_refuse_kmax_past_the_last_finite_row(entry):
    # z = 593: row 152 of the coefficients is the first that overflows, so
    # kmax = 152 is refused as an argument before any row is built
    with pytest.raises(DomainError, match="kmax must be"):
        entry(validate(8.0, 7.5, 3.0, 2.0), 40.0, 152)


# (method, x) with p = _bench(2.0): the auto Gauss route, complemented and
# not, the same at w_minus < 0 (z >= 32 at every x, so no auto point takes
# the trapezoid), and each other route
ROUTES = [("auto", 20.0), ("auto", 3.0), ("auto", 1.0), ("asym", 5.0),
          ("quad-split", 5.0), ("quad-direct", 5.0)]
# the public function of each route
ENTRIES = {"auto": cdf, "asym": cdf_asym, "quad-split": cdf_quad_split,
           "quad-direct": cdf_quad_direct}


# x of the wrong type (None, a string, a complex, a list) or not finite
BAD_X = [{"x": None}, {"x": "five"}, {"x": 1j}, {"x": [5.0]},
         {"x": math.nan}, {"x": math.inf}, {"x": -math.inf}, {"x": 10**400}]
# kmax of the wrong type (a bool, a string, a float, None) or out of range
BAD_ARGS = [{"kmax": True}, {"kmax": "5"}, {"kmax": -1}, {"kmax": 2.0},
            {"kmax": math.nan}, {"kmax": 152}, {"kmax": None}, {"kmax": 10**400}]


@pytest.mark.parametrize("method,x", ROUTES)
@pytest.mark.parametrize("bad", BAD_X)
def test_cdf_checks_every_argument_on_every_route(method, x, bad):
    # x, the one argument besides the validated p, is refused by the
    # public function of each route before any routing
    p = _bench(2.0)
    ENTRIES[method](p, x)  # the point itself evaluates
    with pytest.raises(DomainError):
        ENTRIES[method](p, **bad)


@pytest.mark.parametrize("bad", BAD_X)
def test_cdf_checks_every_argument_on_the_other_auto_routes(bad):
    # ROUTES has no auto point below z = 30: here the trapezoid and the small-z series
    for params, x, method in (((1.0, 0.2, 0.0, 1.0), 0.5, Method.QUAD_SPLIT),
                              ((0.5, 0.125, 3.0, 0.06), 3.0, Method.SMALL_Z_SERIES)):
        p = validate(*params)
        assert cdf(p, x).method is method
        with pytest.raises(DomainError):
            cdf(p, **bad)


@pytest.mark.parametrize("entry", FORCED_EXPANSIONS, ids=["cdf_asym", "sf_asym"])
@pytest.mark.parametrize("bad", BAD_ARGS)
def test_asym_expansions_check_kmax(entry, bad):
    # the two functions that read kmax refuse each bad value where it is read
    p = _bench(2.0)
    entry(p, 5.0)
    with pytest.raises(DomainError, match="kmax must be"):
        entry(p, 5.0, **bad)


def test_auto_routes_take_the_routes_they_name():
    p = _bench(2.0)
    taken = [(r.method, r.complemented) for r in (cdf(p, x) for _, x in ROUTES[:3])]
    assert taken == [(Method.GAUSS_SPLIT, True), (Method.GAUSS_SPLIT, False),
                     (Method.GAUSS_SPLIT, False)]
    assert geometry(p, 1.0).w_minus < 0.0


@pytest.mark.parametrize(
    "entry,x",
    [pytest.param(cdf, x, id=str(x)) for x in (20.0, 3.0, 1.0)]
    + [pytest.param(cdf_quad_direct, x, id=f"quad-direct-{x}") for x in (20.0, 1.0)],
)
def test_cdf_computes_the_geometry_once(monkeypatch, entry, x):
    # cdf: a complemented Gauss point, and two Gauss points, one at w_minus < 0;
    # cdf_quad_direct on both sides of the transition, nu < tau at x = 20, and
    # without validating the parameters again.  Both compute the geometry
    # inside oracle, as the plain tuple of params._geometry
    calls = []

    def counted(build):
        def wrapper(p, x):
            calls.append(x)
            return build(p, x)

        return wrapper

    def refused(*args):
        raise AssertionError("validate called inside cdf")

    monkeypatch.setattr("nigcdf.oracle._geometry", counted(_geometry))
    monkeypatch.setattr("nigcdf.oracle.validate", refused)
    entry(_bench(2.0), x)
    assert calls == [x]


def test_series_kernel_is_the_asymptotic_series_of_the_trapezoid_kernel():
    # both kernels of the one split compute K(z, w); the series is off by
    # about its first omitted term, the last retained term is no bound (it
    # falls short of the error by up to three orders), and rounding adds a
    # few ulps of K
    rng = random.Random(23)
    for _ in range(3000):
        z = math.exp(rng.uniform(math.log(30.0), math.log(1e4)))
        w = math.exp(rng.uniform(math.log(1e-13), 0.0))
        kmax = rng.choice((5, 10))
        k_series = _series_kernel(kmax)(z, w, w)[0]
        k_trap = _kernel(z, w, w)[0]
        omitted = _series_kernel(kmax + 1)(z, w, w)[2]
        assert abs(k_series - k_trap) <= 10.0 * omitted + 1e-15 * k_trap


def _cdf_outcome(p, x, entry):
    try:
        return entry(p, x)
    except NigError as exc:
        return type(exc), str(exc)


def test_cdf_routes_on_x_as_a_float():
    # x0 = 3.5164 for these parameters; every x is routed as float(x) is,
    # including the Fraction just right of x0 that rounds to x0 itself
    p = validate("8", "2", "3", "2")
    x0 = transition_point(p)
    left = ("3.5", 3, Fraction(7, 2))
    right = ("5", 5, Fraction(11, 2), Fraction(x0) + Fraction(1, 10**30))
    for x in left + right:
        for method, entry in ENTRIES.items():
            assert _cdf_outcome(p, x, entry) == _cdf_outcome(p, float(x), entry), (x, method)
        r = cdf(p, x)
        assert r.method is Method.GAUSS_SPLIT
        assert r.complemented == (float(x) > x0)


def test_geometry_keeps_its_record_and_its_errors():
    # the public record holds the evaluator's plain tuple field for field,
    # and both refuse a non-finite x and a z outside the double range with
    # the same messages
    rng = random.Random(4141)
    for _ in range(200):
        p, x = draw_point(rng)
        g = geometry(p, x)
        assert type(g) is Geometry and type(_geometry(p, x)) is tuple
        assert g == _geometry(p, x) and g == Geometry(**g._asdict())
        xi = x - p.mu
        omega = math.hypot(xi, p.delta)
        nu = math.atan2(p.delta, xi)
        z = 2.0 * p.alpha * omega
        s_plus, s_minus = math.sin(0.5 * (nu - p.tau)), math.sin(0.5 * (nu + p.tau))
        expected = (xi, omega, nu, z, s_plus, s_minus, math.cos(0.5 * (nu - p.tau)),
                    math.cos(0.5 * (nu + p.tau)), s_plus * math.sqrt(z), s_minus * math.sqrt(z))
        assert tuple(g) == expected
    p = validate(8.0, 2.0, 3.0, 2.0)
    cases = [
        (p, math.inf, "x must be finite, got inf"),
        (p, math.nan, "x must be finite, got nan"),
        (validate(1e300, 0.0, 0.0, 1e10), 0.0,
         "z = 2*alpha*omega = inf leaves the positive double range "
         "(alpha = 1e+300, omega = 10000000000.0)"),
        (validate(1e-300, 0.0, 0.0, 1e-300), 0.0,
         "z = 2*alpha*omega = 0.0 leaves the positive double range "
         "(alpha = 1e-300, omega = 1e-300)"),
    ]
    for q, x, message in cases:
        for call in (geometry, _geometry, cdf, cdf_asym, sf_asym, cdf_quad_split):
            with pytest.raises(DomainError) as info:
                call(q, x)
            assert str(info.value) == message, call


class _Real(float):
    """A float subclass, as numpy.float64 is."""


def _package_calls(run):
    """The functions of ``src/nigcdf`` entered by Python-level calls while ``run()`` runs, in order."""
    root = os.path.dirname(oracle.__file__)
    names = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(root):
            names.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return names


def test_cdf_makes_the_pinned_python_calls_a_point():
    # the hot path's layers, as a cost: each Python-level call that one cdf
    # call makes in the package.  A layer added back fails here.  Every point
    # takes cdf, the evaluator oracle._evaluate, params._geometry,
    # oracle._split, the band's kernel and the minus part's special._erfcx;
    # the trapezoid band's kernel, one per rung, holds its step and calls
    # nothing, and the small-z kernel calls _small_z_m and _small_z_one for
    # each w.  A finite float x passes _geometry's inline guard; an int or a
    # float subclass, as numpy.float64 is, takes _require_finite once, and
    # the same result
    p = validate(8.0, 2.0, 3.0, 2.0)
    head = ["cdf", "_evaluate", "_geometry", "_split"]
    assert _package_calls(lambda: cdf(p, 5.0)) == head + ["kernel", "_erfcx"]
    fields = [f.hex() if type(f) is float else f for f in cdf(p, 5.0)]
    for x in (5, _Real(5.0)):
        assert _package_calls(lambda: cdf(p, x)) == [
            "cdf", "_evaluate", "_geometry", "_require_finite", "_split", "kernel", "_erfcx"
        ]
        assert [f.hex() if type(f) is float else f for f in cdf(p, x)] == fields
    trapezoid = validate(1.0, 0.2, 0.0, 1.0)
    assert cdf(trapezoid, 0.5).method is Method.QUAD_SPLIT
    assert _package_calls(lambda: cdf(trapezoid, 0.5)) == head + ["kernel", "_erfcx"]
    small = validate(0.5, 0.125, 3.0, 0.06)
    assert cdf(small, 3.0).method is Method.SMALL_Z_SERIES
    assert _package_calls(lambda: cdf(small, 3.0)) == head + [
        "_small_z_kernel", "_small_z_m", "_small_z_one", "_small_z_one", "_erfcx"
    ]
