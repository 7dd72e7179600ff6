"""Parameter validation and the per-point geometry."""

import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nigcdf import (
    DomainError,
    Geometry,
    Parameters,
    cdf,
    cdf_quad_direct,
    d_coefficients,
    erfc,
    erfcx,
    geometry,
    reflect,
    transition_point,
    validate,
)
from nigcdf.selftest import draw_point

# benchmark family used throughout the suite
ALPHA, MU, DELTA = 8.0, 3.0, 2.0
BETAS = (-4.0, 2.0, 7.5)

# published transition points for the benchmark family
X0_PUBLISHED = {-4.0: 1.845299462, 2.0: 3.516397780, 7.5: 8.388159062}


def _alphas():
    return st.floats(min_value=0.05, max_value=50.0, allow_nan=False)


@st.composite
def param_sets(draw):
    alpha = draw(_alphas())
    frac = draw(st.floats(min_value=-0.95, max_value=0.95))
    mu = draw(st.floats(min_value=-5.0, max_value=5.0))
    delta = draw(st.floats(min_value=0.1, max_value=8.0))
    return validate(alpha, alpha * frac, mu, delta)


def test_validate_derives_gamma_and_tau():
    p = validate(8.0, -4.0, 3.0, 2.0)
    assert p.gamma == pytest.approx(math.sqrt(48.0), rel=1e-15)
    assert p.tau == pytest.approx(2.0 * math.pi / 3.0, rel=1e-15)


def test_validate_symmetric_case():
    p = validate(8.0, 0.0, 3.0, 2.0)
    assert p.gamma == 8.0
    assert p.tau == pytest.approx(math.pi / 2.0, rel=1e-15)


@pytest.mark.parametrize(
    "args",
    [
        (8.0, 8.0, 3.0, 2.0),  # |beta| = alpha excluded
        (8.0, -8.0, 3.0, 2.0),
        (8.0, 9.0, 3.0, 2.0),
        (0.0, 0.0, 3.0, 2.0),
        (-1.0, 0.0, 3.0, 2.0),
        (8.0, 2.0, 3.0, 0.0),
        (8.0, 2.0, 3.0, -2.0),
        (math.inf, 2.0, 3.0, 2.0),
        (8.0, math.nan, 3.0, 2.0),
        (8.0, 2.0, "x", 2.0),
        (8.0, 2.0, 3.0, None),
    ],
)
def test_validate_rejects_bad_domains(args):
    with pytest.raises(DomainError):
        validate(*args)


# (alpha - beta)(alpha + beta) underflows to 0 or overflows to inf in
# doubles for these pairs, though gamma itself is a normal double
GAMMA_EXTREMES = [
    (1.3952116312638158e-186, -1.3562192504497023e-186),
    (1e-300, 0.0),
    (1e200, 5e199),
    (1.7e308, -1.6e308),
]


@pytest.mark.parametrize("alpha,beta", GAMMA_EXTREMES)
def test_gamma_and_tau_where_the_product_leaves_the_double_range(alpha, beta):
    p = validate(alpha, beta, 0.0, 1.0)
    with mpmath.workdps(30):
        gamma = mpmath.sqrt(mpmath.mpf(alpha) ** 2 - mpmath.mpf(beta) ** 2)
        tau = mpmath.atan2(gamma, beta)
    assert p.gamma == pytest.approx(float(gamma), rel=1e-15)
    assert p.tau == pytest.approx(float(tau), rel=1e-15)


def _scaled_gamma(alpha, beta):
    """gamma from alpha and beta scaled by 2^-frexp(alpha)[1]: ``validate``'s form past 1e+-100."""
    e = math.frexp(alpha)[1]
    a, b = math.ldexp(alpha, -e), math.ldexp(beta, -e)
    return math.ldexp(math.sqrt((a - b) * (a + b)), e)


def _gamma_alphas(rng):
    """The unscaled range's edges and neighbours, the double range's ends, seeded alphas."""
    edges = [1e-100, 1e100]
    alphas = [math.nextafter(edge, toward) for edge in edges for toward in (0.0, math.inf)]
    alphas += edges + [1e-300, 1e-308, 5e-324, 1e300, 1.7e308, math.nextafter(math.inf, 0.0)]
    for lo, hi, n in ((1e-160, 1e-90, 3000), (1e90, 1e160, 1000), (1e-300, 1e300, 2000)):
        alphas += [math.exp(rng.uniform(math.log(lo), math.log(hi))) for _ in range(n)]
    return alphas


def test_gamma_takes_the_scaled_form_bit_for_bit_on_both_sides_of_the_switch():
    # inside 1e-100 < alpha < 1e100 validate forms (alpha - beta)(alpha + beta)
    # unscaled; gamma must be the scaled form's double there too, and tau
    # the atan2 of it.  beta next to -+alpha makes the product smallest,
    # about alpha^2 2^-53, which a wider switch would let go subnormal
    rng = random.Random(1010)
    checked = 0
    for alpha in _gamma_alphas(rng):
        near = math.nextafter(alpha, 0.0)
        betas = [near, -near, 0.0, 5e-324, -5e-324]
        betas += [alpha * rng.choice((-1.0, 1.0)) * (1.0 - 10.0 ** rng.uniform(-16.0, 0.0))]
        for beta in betas:
            if not abs(beta) < alpha:  # the subnormal alphas' own neighbours
                continue
            p = validate(alpha, beta, 0.0, 1.0)
            gamma = _scaled_gamma(alpha, beta)
            assert (p.gamma.hex(), p.tau.hex()) == (gamma.hex(), math.atan2(gamma, beta).hex()), (
                alpha, beta
            )
            checked += 1
    assert checked > 35000


def test_parameters_are_frozen():
    p = validate(8.0, 2.0, 3.0, 2.0)
    with pytest.raises(AttributeError):
        p.alpha = 9.0


GEOMETRY_FIELDS = (
    "xi", "omega", "nu", "z", "s_plus", "s_minus", "w_plus", "w_minus",
    "zeta_plus", "zeta_minus",
)


@pytest.mark.parametrize("field", GEOMETRY_FIELDS)
def test_geometry_is_immutable(field):
    g = geometry(validate(8.0, 2.0, 3.0, 2.0), 5.0)
    with pytest.raises(AttributeError):
        setattr(g, field, 1.0)


@pytest.mark.parametrize("beta", BETAS)
def test_transition_point_matches_published_values(beta):
    p = validate(ALPHA, beta, MU, DELTA)
    assert abs(transition_point(p) - X0_PUBLISHED[beta]) <= 1e-8


def test_transition_point_symmetric_case_is_mu():
    assert transition_point(validate(8.0, 0.0, 3.0, 2.0)) == 3.0


@given(param_sets())
def test_parameter_invariants(p: Parameters):
    assert p.gamma > 0.0
    assert abs(p.gamma * p.gamma + p.beta * p.beta - p.alpha * p.alpha) <= 1e-12 * p.alpha**2
    assert abs(p.alpha * math.sin(p.tau) - p.gamma) <= 1e-13 * p.alpha
    assert abs(p.alpha * math.cos(p.tau) - p.beta) <= 1e-13 * p.alpha
    assert 0.0 < p.tau < math.pi


def test_geometry_frozen_point_values():
    # one fully pinned evaluation: p=(8,2,3,2) at x=5
    p = validate(8.0, 2.0, 3.0, 2.0)
    g = geometry(p, 5.0)
    assert g.xi == 2.0
    assert g.omega == pytest.approx(math.sqrt(8.0), rel=1e-15)
    assert g.nu == pytest.approx(math.pi / 4.0, rel=1e-15)
    assert p.tau == pytest.approx(1.318116071652818, rel=1e-14)
    assert g.z == pytest.approx(45.254833995939045, rel=1e-14)
    assert g.s_plus == pytest.approx(-0.2632205423422586, rel=1e-13)
    assert g.s_minus == pytest.approx(0.8682961768845987, rel=1e-13)
    assert g.w_plus == pytest.approx(0.9647356871646489, rel=1e-13)
    assert g.w_minus == pytest.approx(0.49604611600897525, rel=1e-13)
    assert g.zeta_plus == pytest.approx(-1.770729683813951, rel=1e-13)
    assert g.zeta_minus == pytest.approx(5.841177140166114, rel=1e-13)
    assert transition_point(p) == pytest.approx(3.516397779494322, rel=1e-14)
    assert Geometry._fields == GEOMETRY_FIELDS
    assert hash(g) == hash(geometry(p, 5.0))


def test_validate_and_geometry_build_their_records():
    # built field by field inside the package; transition_point, which
    # gives the eval record its x0, is mu + beta*delta/gamma bit for bit
    rng = random.Random(29)
    for _ in range(500):
        p, x = draw_point(rng)
        q = validate(p.alpha, p.beta, p.mu, p.delta)
        assert type(q) is Parameters and q == Parameters(**q._asdict())
        g = geometry(q, x)
        assert type(g) is Geometry and g == Geometry(**g._asdict())
        assert transition_point(q) == q.mu + q.beta * q.delta / q.gamma


def test_geometry_at_transition_point():
    p = validate(ALPHA, -4.0, MU, DELTA)
    g = geometry(p, transition_point(p))
    assert g.nu == pytest.approx(p.tau, abs=1e-14)
    assert abs(g.s_plus) <= 1e-14
    assert abs(g.zeta_plus) <= 1e-13
    assert g.z == pytest.approx(36.95041722, abs=1e-7)


def test_geometry_published_z_values():
    for beta, z_ref in ((-4.0, 36.95041722), (2.0, 33.04945788), (7.5, 91.95791466)):
        p = validate(ALPHA, beta, MU, DELTA)
        g = geometry(p, transition_point(p))
        assert abs(g.z - z_ref) <= 1e-7


def test_geometry_rejects_bad_x():
    p = validate(8.0, 2.0, 3.0, 2.0)
    for bad in (math.inf, -math.inf, math.nan, "five", None):
        for call in (geometry, reflect):  # reflect checks x as geometry does
            with pytest.raises(DomainError):
                call(p, bad)


_P = validate(8.0, 2.0, 3.0, 2.0)

# numbers that float() turns into OverflowError rather than inf; the last
# is an int too long for repr, which the error message must not quote
HUGE_INPUTS = {
    "validate": lambda: validate(10**400, 0, 0, 1),
    "cdf-x": lambda: cdf(_P, 10**400),
    "cdf-fraction": lambda: cdf(_P, Fraction(10**400, 3)),
    "cdf_quad_direct": lambda: cdf_quad_direct(_P, 10**400),
    "geometry": lambda: geometry(_P, -10**400),
    "reflect": lambda: reflect(_P, 10**400),
    "erfc": lambda: erfc(10**400),
    "erfcx": lambda: erfcx(-10**400),
    "d_coefficients": lambda: d_coefficients(10**400, 3),
    "cdf-5000-digits": lambda: cdf(_P, -10**5000),
}


@pytest.mark.parametrize("call", list(HUGE_INPUTS.values()), ids=list(HUGE_INPUTS))
def test_numbers_beyond_the_double_range_are_domain_errors(call):
    with pytest.raises(DomainError, match="must be finite"):
        call()


def test_reflect_takes_x_as_a_float():
    assert reflect(_P, "1") == (validate(8.0, -2.0, -3.0, 2.0), -1.0)
    assert type(reflect(_P, 1)[1]) is float


@given(param_sets(), st.floats(min_value=-15.0, max_value=15.0))
def test_geometry_invariants(p, t):
    x = p.mu + p.delta * t
    g = geometry(p, x)
    assert 0.0 < g.nu < math.pi
    assert g.omega >= p.delta
    assert g.z == 2.0 * p.alpha * g.omega
    assert g.s_minus > 0.0  # (nu+tau)/2 lies in (0, pi)
    assert g.w_plus > 0.0  # |nu-tau|/2 lies below pi/2
    assert abs(g.s_plus * g.s_plus + g.w_plus * g.w_plus - 1.0) <= 1e-15
    assert abs(g.s_minus * g.s_minus + g.w_minus * g.w_minus - 1.0) <= 1e-15
    assert g.zeta_plus == pytest.approx(g.s_plus * math.sqrt(g.z), rel=1e-15, abs=1e-300)
    assert g.zeta_minus == pytest.approx(g.s_minus * math.sqrt(g.z), rel=1e-15)


@given(param_sets(), st.floats(min_value=-15.0, max_value=15.0))
def test_zeta_plus_sign_tracks_transition_side(p, t):
    x = p.mu + p.delta * t
    g = geometry(p, x)
    x0 = transition_point(p)
    if abs(x - x0) > 1e-9 * (1.0 + abs(x0)):
        assert (g.zeta_plus > 0.0) == (x < x0)


@pytest.mark.parametrize("beta", BETAS)
def test_geometry_continuous_across_transition(beta):
    p = validate(ALPHA, beta, MU, DELTA)
    x0 = transition_point(p)
    left = geometry(p, x0 - 1e-9)
    right = geometry(p, x0 + 1e-9)
    for field in (
        "xi",
        "omega",
        "nu",
        "z",
        "s_plus",
        "s_minus",
        "w_plus",
        "w_minus",
        "zeta_plus",
        "zeta_minus",
    ):
        a = getattr(left, field)
        b = getattr(right, field)
        assert abs(a - b) <= 1e-8 * (1.0 + max(abs(a), abs(b)))
