"""Asymptotic evaluation of the CDF and its complement.

The CDF splits exactly as F = F_plus + F_minus and the complement as
G = G_plus - F_minus: erfc terms plus remainder integrals K(z, w), the one
split of ``oracle._split``.  The uniform expansion is that split with each
K replaced by its asymptotic series (the pole-saddle form of Temme),
K(z, w) ~ sqrt(pi/z) / (1 + w) * sum_k d_k(w) / z^k.  ``_series_kernel``
hands both series to the split, each summed by the straight-line function
that ``coeffs._horner`` compiles, once per kmax, from the polynomial rows
of ``coeffs._rows``.  The leading erfc(-+zeta_plus) keeps F_plus and
G_plus smooth through the transition point, and F_minus takes one signed
form on both sides of w_minus = 0.  A forced expansion at a z so small
that a series leaves the double range raises DomainError naming z and
kmax.

The public functions are thin callers: they check their arguments, build
the geometry when given (p, x), and call the split.  ``cdf`` adds the
evaluation policy.  Below z = 0.5 the same split takes
``oracle._small_z_kernel``, a convergent series in z, whatever w_minus;
from there the trapezoid kernel of the quadrature oracle takes z < Z_MIN
and w_minus < W_MINUS_MIN; the rest goes to the expansions, with
complement-first evaluation right of the transition so the smaller of F
and G is the one computed directly.  ``W_MINUS_MIN`` is an accuracy gate of
the fixed-order series, not a limit of the coefficients, and it is signed:
every negative w_minus goes to quadrature, whatever its magnitude, and
only w_minus >= W_MINUS_MIN to the series.  Every argument is checked
before routing, and the geometry is computed once.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .coeffs import _check_kmax, _horner
from .errors import DomainError
from .params import Geometry, Parameters, _require_finite, geometry
from . import oracle

__all__ = [
    "Method",
    "EvalResult",
    "Z_MIN",
    "W_MINUS_MIN",
    "DEFAULT_KMAX",
    "f_plus_asym",
    "f_minus_asym",
    "g_plus_asym",
    "cdf_asym",
    "sf_asym",
    "cdf",
]

Z_MIN = 30.0
W_MINUS_MIN = 0.05
DEFAULT_KMAX = 5
# below this z the auto route takes oracle._small_z_kernel at this odd order.
# At order 13 the kernel is within 7.3e-16 relative of mpmath up to z = 0.6,
# but 1.7e-14 at z = 0.8, so a higher crossover needs a higher order.  On a
# shared 2-vCPU host a point took about 14 us on it at every z, against
# 30 to 50 us on the trapezoid below z = 0.1 and about 19 us from 0.5 to 3.
_SMALL_Z_LIMIT = 0.5
_SMALL_Z_ORDER = 13


class Method(Enum):
    UNIFORM_ASYM = "uniform_asym"
    QUAD_SPLIT = "quad_split"
    QUAD_DIRECT = "quad_direct"
    SMALL_Z_SERIES = "small_z_series"


# a NamedTuple, not a frozen dataclass, for the reason given at params.Parameters
class EvalResult(NamedTuple):
    """One evaluation: probability, route taken, and an error estimate.

    ``error_estimate`` is, on the three split routes (UNIFORM_ASYM,
    SMALL_Z_SERIES and QUAD_SPLIT), |c_plus| dK_plus + |c_minus| dK_minus:
    each remainder kernel's error measure, weighted as the kernel enters
    the value.  The asymptotic series' dK is the magnitude of its last
    retained term, a heuristic rather than a bound; the convergent small-z
    series' is the magnitude of its last term, n = 13, as it enters K; the
    trapezoid's is its change in the last level.  On QUAD_DIRECT it is the
    change of the integral in the last step halving.  Each includes the
    distance by which the value was clamped into [0, 1].  ``kmax_used`` is
    the series order: kmax on UNIFORM_ASYM, 13 on SMALL_Z_SERIES, 0 on the
    quadrature routes.  ``complemented`` records that the value was
    produced as 1 minus the directly computed complement.
    """

    value: float
    method: Method
    kmax_used: int
    error_estimate: float
    complemented: bool = False


_METHODS = ("auto", "asym", "quad-split", "quad-direct")


def _series_kernel(
    z: float, w_plus: float, w_minus: float, c_plus: float, c_minus: float, kmax: int
) -> tuple[float, float, float, float]:
    """Both remainder kernels of ``oracle._split`` by their series, and their last terms.

    K(z, w) ~ sqrt(pi/z) / (1 + w) * sum_k d_k(w) / z^k.  With
    d_k(w) = P_k(w) / (1 + w)^k the sum is sum_k P_k(w) y^k,
    y = 1 / ((1 + w) z), which the function compiled by ``coeffs._horner``
    sums together with P_kmax(w) and y^kmax; the last term is
    sqrt(pi/z) / (1 + w) * P_kmax(w) * y^kmax.  One sqrt(pi/z) serves both
    series, and the minus series is skipped when its weight c_minus is 0.
    Raises DomainError when a series or its last term leaves the double
    range, which needs z far below Z_MIN: z below about 2e-56 at kmax = 5,
    or 7e-12 at kmax = 25, whatever w.  ``kmax`` must already be checked.
    """
    horner = _horner(kmax)
    root = math.sqrt(math.pi / z)
    u = 1.0 + w_plus
    total, last, yk = horner(w_plus, 1.0 / (u * z))
    scale = root / u
    k_plus, last_plus = scale * total, abs(scale * last) * yk
    k_minus = last_minus = 0.0
    if c_minus != 0.0:
        u = 1.0 + w_minus
        total, last, yk = horner(w_minus, 1.0 / (u * z))
        scale = root / u
        k_minus, last_minus = scale * total, abs(scale * last) * yk
    if not (math.isfinite(k_plus + last_plus) and math.isfinite(k_minus + last_minus)):
        raise DomainError(
            f"the expansion of order kmax={kmax} leaves the double range at z={z!r}"
        )
    return k_plus, k_minus, last_plus, last_minus


def _expand(g: Geometry, kmax: int, upper: bool, complemented: bool) -> EvalResult:
    """F (or G when ``upper``) by the split with the series kernel, clamped to [0, 1].

    With ``complemented`` the G so computed is returned flipped to F.
    """
    value, error = oracle._evaluate(g, upper, _series_kernel, kmax)
    if complemented:
        value = 1.0 - value
    return EvalResult(value, Method.UNIFORM_ASYM, kmax, error, complemented)


def f_plus_asym(g: Geometry, kmax: int = DEFAULT_KMAX) -> float:
    """Uniform expansion of the plus part; leading term erfc(zeta_plus)/2."""
    return oracle._split(g, False, _series_kernel, _check_kmax(kmax))[0]


def g_plus_asym(g: Geometry, kmax: int = DEFAULT_KMAX) -> float:
    """Uniform expansion of the complement's plus part.

    Satisfies f_plus_asym + g_plus_asym = 1 up to rounding: the erfc halves
    are complementary and the series corrections cancel exactly.
    """
    return oracle._split(g, True, _series_kernel, _check_kmax(kmax))[0]


def f_minus_asym(g: Geometry, kmax: int = DEFAULT_KMAX) -> float:
    """The small minus-part correction by its signed uniform expansion.

    sgn(w_minus) times (1/2) e^{2 gamma delta} erfc(zeta_minus) minus the
    d-series at |w_minus|, on both sides of w_minus = 0; 0 where |w_minus|
    is negligible.  Its accuracy at a fixed ``kmax`` falls as |w_minus|
    nears zero.  ``cdf`` routes every w_minus < W_MINUS_MIN to quadrature,
    which takes each negative w_minus, however far from zero.
    """
    return oracle._split(g, False, _series_kernel, _check_kmax(kmax))[1]


def cdf_asym(p: Parameters, x: float, kmax: int = DEFAULT_KMAX) -> EvalResult:
    """F by the asymptotic expansions alone, clamped to [0, 1]."""
    return _expand(geometry(p, x), _check_kmax(kmax), False, False)


def sf_asym(p: Parameters, x: float, kmax: int = DEFAULT_KMAX) -> EvalResult:
    """G = 1 - F by the asymptotic expansions alone, clamped to [0, 1]."""
    return _expand(geometry(p, x), _check_kmax(kmax), True, False)


def _check_route_args(method: str, kmax: int, tol: float) -> tuple[int, float]:
    """``cdf``'s checks of method, kmax and tol; returns kmax and tol as checked."""
    if method not in _METHODS:
        raise DomainError(
            f"unknown method {method!r}; expected auto, asym, quad-split, or quad-direct"
        )
    return _check_kmax(kmax), oracle._check_tol(tol)


def _route(
    p: Parameters, x: float, g: Geometry, method: str, kmax: int, tol: float
) -> EvalResult:
    """``cdf`` at ``g = geometry(p, x)``: x a float, the rest checked by ``_check_route_args``."""
    if method == "quad-direct":
        value, error = oracle._quad_direct(p, g, tol)
        return EvalResult(value, Method.QUAD_DIRECT, 0, error)
    if method == "asym":
        return _expand(g, kmax, False, False)
    if method == "quad-split" or g.z < Z_MIN or g.w_minus < W_MINUS_MIN:
        if method == "auto" and g.z < _SMALL_Z_LIMIT:
            value, error = oracle._evaluate(g, False, oracle._small_z_kernel, _SMALL_Z_ORDER)
            return EvalResult(value, Method.SMALL_Z_SERIES, _SMALL_Z_ORDER, error)
        value, error = oracle._evaluate(g, False, oracle._kernel, tol)
        return EvalResult(value, Method.QUAD_SPLIT, 0, error)
    right = x > g.x0
    return _expand(g, kmax, right, right)


def cdf(
    p: Parameters,
    x: float,
    method: str = "auto",
    kmax: int = DEFAULT_KMAX,
    tol: float = oracle.DEFAULT_TOL,
) -> EvalResult:
    """F with route selection.

    ``auto``: below z = 0.5 the split with the convergent small-z series
    (SMALL_Z_SERIES), whatever w_minus, which needs no quadrature node and
    ignores ``tol``, as its error is at the rounding level; then quadrature
    when z < Z_MIN or w_minus < W_MINUS_MIN, where the fixed-order series
    does not reach the accuracy of the quadrature (the w_minus gate is
    signed, so every negative w_minus takes quadrature); otherwise the
    expansions, evaluating the complement and flipping when x lies right of
    the transition point so the smaller function is the one computed.
    ``asym``, ``quad-split``, ``quad-direct`` force a route, and forced
    ``quad-split`` keeps the trapezoid at every z; forced ``asym``
    evaluates the same signed minus part at any w_minus.  Every argument is
    checked before routing, whichever route the point takes; the geometry
    is computed once.
    """
    kmax, tol = _check_route_args(method, kmax, tol)
    x = _require_finite("x", x)
    return _route(p, x, geometry(p, x), method, kmax, tol)
