"""Asymptotic expansions against the quadrature oracle and each other."""

import math
import random
from fractions import Fraction

import pytest

from nigcdf import (
    DomainError,
    EvalResult,
    Method,
    NigError,
    cdf,
    cdf_asym,
    cdf_quad_split,
    f_minus_asym,
    f_plus_asym,
    g_plus_asym,
    geometry,
    sf_asym,
    transition_point,
    validate,
)
from nigcdf import oracle
from nigcdf.expansion import Z_MIN, _SMALL_Z_LIMIT, _SMALL_Z_ORDER, _series_kernel
from nigcdf.oracle import DEFAULT_TOL, _kernel
from nigcdf.selftest import draw_point

ALPHA, MU, DELTA = 8.0, 3.0, 2.0
BETAS = (-4.0, 2.0, 7.5)

# allowed |cdf_asym - cdf_quad_split| at the transition points, kmax=5:
# twice the published absolute errors of the benchmark rows
ASYM_ERR_ALLOWANCE = {-4.0: 6.2e-8, 2.0: 3.4e-9, 7.5: 9.4e-10}


def _bench(beta):
    return validate(ALPHA, beta, MU, DELTA)


def test_f_plus_is_half_at_transition():
    for beta in BETAS:
        p = _bench(beta)
        g = geometry(p, transition_point(p))
        assert f_plus_asym(g) == pytest.approx(0.5, abs=1e-13)
        assert g_plus_asym(g) == pytest.approx(0.5, abs=1e-13)


def test_f_plus_matches_oracle_remainder():
    # F - F_minus computed by quadrature isolates the plus part
    p = _bench(-4.0)
    g = geometry(p, 6.0)
    oracle_f_plus = cdf_quad_split(p, 6.0) - f_minus_asym(g)
    assert abs(f_plus_asym(g) - oracle_f_plus) <= 1e-8


def test_g_plus_matches_oracle_remainder():
    p = _bench(7.5)
    g = geometry(p, 15.0)
    oracle_g = 1.0 - cdf_quad_split(p, 15.0)
    assert abs((g_plus_asym(g) - f_minus_asym(g)) - oracle_g) <= 1e-9


def test_plus_parts_are_complementary():
    rng = random.Random(21)
    for _ in range(200):
        p, x = draw_point(rng)
        g = geometry(p, x)
        assert abs(f_plus_asym(g) + g_plus_asym(g) - 1.0) <= 1e-14


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
        ref = cdf_quad_split(p, x)
        assert abs(cdf(p, x, method="asym").value - ref) <= 1e-7
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
        f_minus = f_minus_asym(g)
        assert f_minus * g.w_minus > 0.0
        assert abs(f_minus) <= 1e-11
        assert abs(cdf_asym(p, x_w0 + dx).value - cdf_quad_split(p, x_w0 + dx)) <= 1e-11


def test_cdf_asym_at_transition_matches_oracle():
    for beta in BETAS:
        p = _bench(beta)
        x0 = transition_point(p)
        asym = cdf_asym(p, x0, kmax=5).value
        quad = cdf_quad_split(p, x0)
        assert abs(asym - quad) <= ASYM_ERR_ALLOWANCE[beta]


def test_cdf_asym_symmetric_median():
    p = validate(8.0, 0.0, 3.0, 2.0)
    assert cdf_asym(p, 3.0).value == pytest.approx(0.5, abs=1e-10)


def test_cdf_asym_truncation_error_shrinks_with_kmax():
    for beta in BETAS:
        p = _bench(beta)
        x0 = transition_point(p)
        ref = cdf_quad_split(p, x0)
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
        actual = abs(r.value - cdf_quad_split(p, x0))
        assert actual <= 100.0 * (r.error_estimate + 1e-15)


def test_policy_uses_asym_in_the_trusted_region():
    p = _bench(2.0)
    r = cdf(p, transition_point(p))
    assert r.method is Method.UNIFORM_ASYM
    assert not r.complemented


def test_policy_complements_right_of_transition():
    p = _bench(-4.0)
    r = cdf(p, 20.0)
    assert r.complemented
    assert r.method is Method.UNIFORM_ASYM
    assert 0.0 <= r.value <= 1.0
    assert abs(r.value - cdf_quad_split(p, 20.0)) <= 1e-9


def test_policy_falls_back_to_quadrature_for_small_z():
    # z = 2 alpha delta at x = mu: below the crossover the small-z series,
    # from the crossover, inclusive, up to Z_MIN the trapezoid
    p = validate(0.5, 0.125, 3.0, 0.1)
    assert geometry(p, 3.0).z == pytest.approx(0.1)
    r = cdf(p, 3.0)
    assert r.method is Method.SMALL_Z_SERIES
    assert r.kmax_used == _SMALL_Z_ORDER
    for delta in (_SMALL_Z_LIMIT, 1.0, 10.0):
        p = validate(1.0, 0.25, 3.0, 0.5 * delta)
        assert _SMALL_Z_LIMIT <= geometry(p, 3.0).z == delta < Z_MIN
        r = cdf(p, 3.0)
        assert r.method is Method.QUAD_SPLIT
        assert r.kmax_used == 0


def test_small_z_route_agrees_with_forced_quad_split(monkeypatch):
    # seeded draws with z from 1e-12 up to the crossover, on both sides of
    # w_minus = 0; the route takes no trapezoid node, so the trapezoid kernel
    # is swapped for one that fails, and the forced route gets it back
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

    monkeypatch.setattr(oracle, "_kernel", no_trapezoid)
    results = [cdf(p, x) for p, x in draws]
    monkeypatch.undo()
    signs = set()
    for (p, x), r in zip(draws, results):
        assert r.method is Method.SMALL_Z_SERIES and r.kmax_used == _SMALL_Z_ORDER
        assert 0.0 <= r.error_estimate <= 1e-15
        assert abs(r.value - cdf(p, x, method="quad-split", tol=1e-13).value) <= 1e-13
        signs.add(geometry(p, x).w_minus > 0.0)
    assert signs == {False, True}


def test_policy_falls_back_to_quadrature_for_small_w_minus():
    p = _bench(-4.0)
    g = geometry(p, 1.0)
    assert g.z >= 30.0 and g.w_minus < 0.05
    assert cdf(p, 1.0).method is Method.QUAD_SPLIT


def test_policy_forced_methods():
    p = _bench(2.0)
    assert cdf(p, 5.0, method="asym").method is Method.UNIFORM_ASYM
    assert cdf(p, 5.0, method="quad-split").method is Method.QUAD_SPLIT
    assert cdf(p, 5.0, method="quad-direct").method is Method.QUAD_DIRECT
    with pytest.raises(DomainError):
        cdf(p, 5.0, method="fastest")


def test_policy_routes_agree_with_each_other():
    p = _bench(2.0)
    for x in (1.0, 5.0, 8.0):
        ref = cdf(p, x, method="quad-split").value
        assert abs(cdf(p, x).value - ref) <= 1e-7
        assert abs(cdf(p, x, method="quad-direct").value - ref) <= 1e-10


def test_cdf_monotone_on_benchmark_grids():
    for beta in BETAS:
        p = _bench(beta)
        prev = -1.0
        for i in range(400):
            x = MU - 10.0 + 30.0 * i / 399.0
            v = cdf(p, x).value
            assert 0.0 <= v <= 1.0
            assert v >= prev
            prev = v


@pytest.mark.parametrize("method", ["auto", "asym", "quad-split"])
@pytest.mark.parametrize("params", [(1e-300, 0.0, 0.0, 1e-300), (1e300, 0.0, 0.0, 1e10)])
def test_cdf_refuses_z_outside_the_double_range(method, params):
    # valid parameters whose z = 2 alpha omega underflows to 0 or overflows to inf
    p = validate(*params)
    with pytest.raises(DomainError, match="z = 2"):
        cdf(p, 0.0, method=method)


FORCED_EXPANSIONS = [
    lambda p, x, kmax: cdf(p, x, method="asym", kmax=kmax),
    lambda p, x, kmax: cdf_asym(p, x, kmax=kmax),
    lambda p, x, kmax: sf_asym(p, x, kmax=kmax),
]


@pytest.mark.parametrize("entry", FORCED_EXPANSIONS, ids=["cdf-asym", "cdf_asym", "sf_asym"])
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


@pytest.mark.parametrize("entry", FORCED_EXPANSIONS, ids=["cdf-asym", "cdf_asym", "sf_asym"])
def test_forced_expansions_refuse_kmax_past_the_last_finite_row(entry):
    # z = 593: row 152 of the coefficients is the first that overflows, so
    # kmax = 152 is refused as an argument before any row is built
    with pytest.raises(DomainError, match="kmax must be"):
        entry(validate(8.0, 7.5, 3.0, 2.0), 40.0, 152)


# (method, x) with p = _bench(2.0): the auto asym route, complemented and
# not, the auto quadrature route, and each forced route
ROUTES = [("auto", 20.0), ("auto", 3.0), ("auto", 1.0), ("asym", 5.0),
          ("quad-split", 5.0), ("quad-direct", 5.0)]


@pytest.mark.parametrize("method,x", ROUTES)
@pytest.mark.parametrize(
    "bad", [{"tol": -1.0}, {"tol": "tight"}, {"kmax": -1}, {"kmax": 2.0},
            {"tol": math.nan}, {"kmax": 152}, {"tol": 2.0}, {"tol": math.inf}],
)
def test_cdf_checks_every_argument_on_every_route(method, x, bad):
    p = _bench(2.0)
    cdf(p, x, method=method)  # the point itself evaluates
    with pytest.raises(DomainError):
        cdf(p, x, method=method, **bad)


def test_auto_routes_take_the_routes_they_name():
    p = _bench(2.0)
    taken = [(r.method, r.complemented) for r in (cdf(p, x) for _, x in ROUTES[:3])]
    assert taken == [(Method.UNIFORM_ASYM, True), (Method.UNIFORM_ASYM, False),
                     (Method.QUAD_SPLIT, False)]


@pytest.mark.parametrize(
    "method,x",
    [pytest.param("auto", x, id=str(x)) for x in (20.0, 3.0, 1.0)]
    + [pytest.param("quad-direct", x, id=f"quad-direct-{x}") for x in (20.0, 1.0)],
)
def test_cdf_computes_the_geometry_once(monkeypatch, method, x):
    # auto: a complemented asym point, an asym point and a quad-split point;
    # quad-direct on both sides of the transition, nu < tau at x = 20, and
    # without validating the parameters again
    calls = []

    def counted(p, x):
        calls.append(x)
        return geometry(p, x)

    def refused(*args):
        raise AssertionError("validate called inside cdf")

    monkeypatch.setattr("nigcdf.expansion.geometry", counted)
    monkeypatch.setattr("nigcdf.oracle.geometry", counted)
    monkeypatch.setattr("nigcdf.oracle.validate", refused)
    cdf(_bench(2.0), x, method=method)
    assert calls == [x]


def test_auto_route_equals_the_forced_expansions_bit_for_bit():
    rng = random.Random(41)
    asym = 0
    for _ in range(2000):
        p, x = draw_point(rng)
        r = cdf(p, x)
        if r.method is not Method.UNIFORM_ASYM:
            continue
        asym += 1
        if r.complemented:
            assert r.value == 1.0 - sf_asym(p, x).value
            assert r.error_estimate == sf_asym(p, x).error_estimate
        else:
            assert r == cdf_asym(p, x)
    assert asym >= 400


def test_series_kernel_is_the_asymptotic_series_of_the_trapezoid_kernel():
    # both kernels of the one split compute K(z, w); the series is off by
    # about its first omitted term, the last retained term is no bound (it
    # falls short of the error by up to three orders), and rounding adds a
    # few ulps of K
    rng = random.Random(23)
    coef = 1.0 / (2.0 * math.pi)  # the largest weight a kernel has in F
    for _ in range(3000):
        z = math.exp(rng.uniform(math.log(30.0), math.log(1e4)))
        w = math.exp(rng.uniform(math.log(1e-13), 0.0))
        kmax = rng.choice((5, 10))
        k_series, _, _, _ = _series_kernel(z, w, w, coef, coef, kmax)
        k_trap, _, _, _ = _kernel(z, w, w, coef, coef, DEFAULT_TOL)
        omitted = _series_kernel(z, w, w, coef, 0.0, kmax + 1)[2]
        assert abs(k_series - k_trap) <= 10.0 * omitted + 1e-15 * k_trap


def _cdf_outcome(p, x, method):
    try:
        return cdf(p, x, method=method)
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
        for method in ("auto", "asym", "quad-split", "quad-direct"):
            assert _cdf_outcome(p, x, method) == _cdf_outcome(p, float(x), method), (x, method)
        r = cdf(p, x)
        assert r.method is Method.UNIFORM_ASYM
        assert r.complemented == (float(x) > x0)
