"""Distribution parameters and per-evaluation geometry.

The normal inverse Gaussian distribution is parameterized by tail weight
``alpha``, asymmetry ``beta``, location ``mu``, and scale ``delta``.  Every
evaluation method in this package works in polar-style coordinates derived
from the point ``x``: a radius ``omega``, two angles ``nu`` and ``tau``, and
the large parameter ``z = 2*alpha*omega``.  This module validates parameters
and computes those quantities once, so the expansion and quadrature code can
stay purely algebraic.  ``_geometry`` holds that arithmetic and returns a
plain tuple: the reference form of the geometry, which the public
``geometry`` wraps in the ``Geometry`` record and the direct oracle
``oracle.cdf_quad_direct`` unpacks.  The split's evaluator
``oracle._evaluate`` runs the same statements inline, with the same x
check and the same z-range error from ``_z_range_error``, and the tests
hold it to ``_geometry`` bit for bit.
"""

import math
from typing import NamedTuple

from .errors import DomainError

__all__ = ["Parameters", "Geometry", "validate", "transition_point", "geometry"]

# the math names and ``tuple.__new__`` that ``validate``, ``geometry`` and
# ``_geometry`` call, bound once: a module global is one lookup a call,
# ``math.sin`` two
_INF = math.inf
_hypot, _atan2, _sin, _cos, _sqrt = math.hypot, math.atan2, math.sin, math.cos, math.sqrt
_frexp, _ldexp, _tuple_new = math.frexp, math.ldexp, tuple.__new__


# the records are NamedTuples: one builds in a fraction of a frozen dataclass's
# time, and without dataclasses the package's import loads neither
# ``dataclasses`` nor ``inspect``.  Their field annotations are types,
# evaluated when the class is defined: deferred as strings, each field would
# cost ``typing`` a ForwardRef to compile, and the import would load
# ``__future__``.  Inside the package each is built by
# ``tuple.__new__(Cls, (...))`` with every field given, defaults included
class Parameters(NamedTuple):
    """Validated distribution parameters plus derived constants.

    ``gamma = sqrt(alpha^2 - beta^2)`` and ``tau = arccos(beta/alpha)`` are
    fixed per distribution, so they are computed once here.  Invariants:
    ``gamma^2 + beta^2 = alpha^2``, ``alpha*sin(tau) = gamma``, and
    ``alpha*cos(tau) = beta``, all to machine relative accuracy.
    """

    alpha: float
    beta: float
    mu: float
    delta: float
    gamma: float
    tau: float


class Geometry(NamedTuple):
    """Everything the expansions need at a single point x.

    ``s_plus = sin((nu-tau)/2)`` carries the sign of ``x0 - x``, x0 the
    ``transition_point``, and vanishes exactly there, so the sign of
    ``zeta_plus`` tells the side of x0 and the record keeps no x0;
    ``s_minus = sin((nu+tau)/2)`` is always positive.  ``w_plus``/``w_minus``
    are the matching cosines; ``w_minus`` goes negative once ``nu + tau``
    exceeds pi.  The squared pole locations are sigma_plus^2 = -s_plus^2 and
    sigma_minus^2 = -s_minus^2, and ``zeta_plus = s_plus*sqrt(z)``,
    ``zeta_minus = s_minus*sqrt(z)`` are the error-function arguments; both
    are finite, as z is and |s| <= 1.
    """

    xi: float
    omega: float
    nu: float
    z: float
    s_plus: float
    s_minus: float
    w_plus: float
    w_minus: float
    zeta_plus: float
    zeta_minus: float


def _require_finite(name: str, value: float) -> float:
    """``value`` as a finite float, or DomainError; the package's one real-number check."""
    try:
        value = float(value)
    except OverflowError as exc:  # a huge int or Fraction; repr fails past 4300 digits
        raise DomainError(f"{name} must be finite, got a number beyond the double range") from exc
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be a real number, got {value!r}") from exc
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def _z_range_error(z: float, alpha: float, omega: float) -> DomainError:
    """The DomainError for a z = 2*alpha*omega outside (0, inf), one message for every route."""
    return DomainError(
        f"z = 2*alpha*omega = {z!r} leaves the positive double range "
        f"(alpha = {alpha!r}, omega = {omega!r})"
    )


def validate(alpha: float, beta: float, mu: float, delta: float) -> Parameters:
    """Check the parameter domain and derive gamma and tau.

    Requires ``alpha > 0``, ``delta > 0``, and ``-alpha < beta < alpha``
    (strict), and raises DomainError otherwise.  Then ``gamma`` is
    positive and finite and ``0 < tau < pi`` for every valid input.
    ``gamma`` is sqrt((alpha - beta)(alpha + beta)), formed unscaled for
    1e-100 < alpha < 1e100 and with alpha and beta first scaled by one
    power of two outside that range; the two forms give the same double
    wherever the unscaled one stays in the normal range.
    """
    # four finite floats pass unchanged; anything else takes the one check, in order
    if not (
        alpha.__class__ is beta.__class__ is mu.__class__ is delta.__class__ is float
        and -_INF < alpha < _INF and -_INF < beta < _INF
        and -_INF < mu < _INF and -_INF < delta < _INF
    ):
        alpha = _require_finite("alpha", alpha)
        beta = _require_finite("beta", beta)
        mu = _require_finite("mu", mu)
        delta = _require_finite("delta", delta)
    if alpha <= 0.0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    if delta <= 0.0:
        raise DomainError(f"delta must be positive, got {delta}")
    if abs(beta) >= alpha:
        raise DomainError(f"need -alpha < beta < alpha, got beta={beta}, alpha={alpha}")
    # factored form avoids cancellation when |beta| approaches alpha.  For
    # |beta| < alpha the smaller factor is exact and at least an ulp of alpha,
    # so the product lies between about alpha^2 2^-53 and 2 alpha^2: inside
    # 1e-100 < alpha < 1e100 it and both factors stay normal.  There scaling
    # alpha and beta by 2^-e, e = frexp(alpha)[1], changes no rounding: each
    # step rounds the same significand, and sqrt halves the even exponent 2e
    # exactly; a beta that the scaling would push below the normal range
    # lies far under half an ulp of alpha, so alpha -+ beta rounds to alpha
    # in both forms.  Outside that range the scaling, which is exact, keeps
    # the product from underflowing to 0 or overflowing to inf
    if 1e-100 < alpha < 1e100:
        gamma = _sqrt((alpha - beta) * (alpha + beta))
    else:
        e = _frexp(alpha)[1]
        a, b = _ldexp(alpha, -e), _ldexp(beta, -e)
        gamma = _ldexp(_sqrt((a - b) * (a + b)), e)
    # atan2 stays accurate where acos(beta/alpha) loses digits, same angle
    tau = _atan2(gamma, beta)
    return _tuple_new(Parameters, (alpha, beta, mu, delta, gamma, tau))


def transition_point(p: Parameters) -> float:
    """The x where the integrand's pole meets the saddle point.

    Equals ``mu + beta*delta/gamma``, which is also the distribution mean;
    the CDF there is close to one half.
    """
    return p.mu + p.beta * p.delta / p.gamma


def geometry(p: Parameters, x: float) -> Geometry:
    """Compute all per-evaluation quantities at the point x.

    ``nu`` is taken in (0, pi) via a two-argument arctangent so that one code
    path serves both signs of ``xi = x - mu``.  Raises DomainError when
    x is not finite, or when ``z = 2*alpha*omega`` underflows to 0 or
    overflows to inf for valid parameters.  The record of ``_geometry``.
    """
    return _tuple_new(Geometry, _geometry(p, x))


def _geometry(p: Parameters, x: float) -> tuple[float, ...]:
    """The fields of ``geometry(p, x)`` in order, as a plain tuple; the same checks.

    The reference form of the geometry arithmetic.  ``geometry`` wraps it
    in the record, the direct oracle ``oracle.cdf_quad_direct`` unpacks it
    (CPython unpacks an exact tuple on a specialised path, and a NamedTuple
    generically), and the tests build the reference form of the split
    routes from it.  ``oracle._evaluate`` runs these statements inline, so
    a point of a split route builds no tuple; an edit here must be made
    there too, and ``tests/test_oracle.py`` holds the two bit for bit.  A
    finite float x passes an inline guard, ``x.__class__ is float and
    -inf < x < inf``, which for a float is exactly ``isfinite``, as NaN
    fails it; any other x, an int, a float subclass, a string, NaN or an
    infinity, takes ``_require_finite``, so it gets the same value or the
    same DomainError.
    """
    if x.__class__ is not float or not -_INF < x < _INF:
        x = _require_finite("x", x)
    alpha, _, mu, delta, _, tau = p
    xi = x - mu
    omega = _hypot(xi, delta)
    nu = _atan2(delta, xi)
    z = 2.0 * alpha * omega
    # every route divides by z or takes it into an erfc argument
    if not 0.0 < z < _INF:
        raise _z_range_error(z, alpha, omega)
    half_diff = 0.5 * (nu - tau)
    half_sum = 0.5 * (nu + tau)
    s_plus = _sin(half_diff)
    w_plus = _cos(half_diff)
    s_minus = _sin(half_sum)
    w_minus = _cos(half_sum)
    sqrt_z = _sqrt(z)
    return xi, omega, nu, z, s_plus, s_minus, w_plus, w_minus, s_plus * sqrt_z, s_minus * sqrt_z

