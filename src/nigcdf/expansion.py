"""Asymptotic evaluation of the CDF and its complement.

The CDF splits exactly as F = F_plus + F_minus and the complement as
G = G_plus - F_minus: erfc terms plus remainder integrals K(z, w), the one
split of ``oracle._split``.  The uniform expansion is that split with each
K replaced by its asymptotic series (the pole-saddle form of Temme),
K(z, w) ~ sqrt(pi/z) / (1 + w) * sum_k d_k(w) / z^k.
``_series_kernel(kmax)`` is the kernel that hands both series to the
split, each summed by Horner in 1 / ((1 + w) z) over the values at w of the
polynomial rows of ``coeffs._rows``.  The leading erfc(-+zeta_plus) keeps
F_plus and G_plus smooth through the transition point, and F_minus takes
one signed form on both sides of w_minus = 0.  An expansion at a z so
small that a series leaves the double range raises DomainError naming z
and kmax.

The public functions are thin callers: they check their arguments, build
the geometry from (p, x), and call the split.  ``cdf(p, x)`` is the
evaluation policy and takes no other argument: it gives each z band the
split with its own kernel, whatever w_minus, read from one table of bands
by their lower z edges, built at import: below z = 0.25 a convergent
series in z from ``oracle._small_z_kernel``, of order 1 to 11; from z = 30
a Gauss rule from ``oracle._gauss_kernel``, of 8 nodes down to 1; between
the two the trapezoid kernel of the quadrature oracle.  Each band's order
or node count is the least that certifies 2^-53 K at its lower edge.  On
every band the complement is evaluated first right of the transition
point, where zeta_plus < 0, so the smaller of F and G is the one computed
directly.
The paper's series, at the order asked for, serves only ``cdf_asym`` and
``sf_asym``; the quadrature oracles have their own functions,
``oracle.cdf_quad_split`` and ``oracle.cdf_quad_direct``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from enum import Enum
from typing import NamedTuple

from .coeffs import _check_kmax, _row_values
from .errors import DomainError
from .params import Geometry, Parameters, geometry
from . import oracle

__all__ = [
    "Method",
    "EvalResult",
    "DEFAULT_KMAX",
    "cdf_asym",
    "sf_asym",
    "cdf",
]

DEFAULT_KMAX = 5


class Method(Enum):
    UNIFORM_ASYM = "uniform_asym"
    QUAD_SPLIT = "quad_split"
    QUAD_DIRECT = "quad_direct"
    SMALL_Z_SERIES = "small_z_series"
    GAUSS_SPLIT = "gauss_split"


# a NamedTuple, not a frozen dataclass, for the reason given at params.Parameters
class EvalResult(NamedTuple):
    """One evaluation: probability, route taken, and an error estimate.

    ``error_estimate`` is, on the four split routes (UNIFORM_ASYM,
    GAUSS_SPLIT, SMALL_Z_SERIES and QUAD_SPLIT), |c_plus| dK_plus +
    |c_minus| dK_minus: each remainder kernel's error measure, weighted as
    the kernel enters the value.  The asymptotic series' dK is the
    magnitude of its last retained term, a heuristic rather than a bound;
    the Gauss rule's is 2^-53 K, the trapezoid's 2^-53 times a lower bound
    on K, and the convergent small-z series' a majorant of its omitted
    terms as they enter K, at most 2^-53 K: bounds that hold before
    rounding rather than measured changes.  Where |w_minus| < 1e-13 the
    split drops F_minus, and the estimate adds E |w_minus| / pi,
    E = e^{z sigma_plus^2}, which bounds the dropped term to first order.
    On QUAD_DIRECT it is the change of the integral in the last step
    halving, at most 1e-12.  Each includes the distance by which the value
    was clamped into [0, 1].
    ``kmax_used`` is the work done: the series order, kmax on UNIFORM_ASYM
    and the order its z band sums, 1 to 11, on SMALL_Z_SERIES; the node
    count its z band sums, 8 down to 1, on GAUSS_SPLIT; 0 on the
    quadrature routes.
    ``complemented`` records that the value was produced as 1 minus the
    directly computed complement: on ``cdf``, at every point with
    zeta_plus < 0, right of the transition point.
    """

    value: float
    method: Method
    kmax_used: int
    error_estimate: float
    complemented: bool = False


def _series_kernel(kmax: int) -> oracle._Kernel:
    """The kernel of ``oracle._split`` that sums both remainders by their series to ``kmax``.

    K(z, w) ~ sqrt(pi/z) / (1 + w) * sum_k d_k(w) / z^k.  With
    d_k(w) = P_k(w) / (1 + w)^k the sum is sum_k P_k(w) y^k,
    y = 1 / ((1 + w) z), summed by Horner in y over the row values
    ``coeffs._row_values(w, kmax)`` from P_kmax down; each dK is the last
    term, sqrt(pi/z) / (1 + w) * P_kmax(w) * y^kmax.  One sqrt(pi/z) serves
    both series.  The kernel raises DomainError when a series or its last
    term leaves the double range, which needs z far below 1: z below about
    2e-56 at kmax = 5, or 7e-12 at kmax = 25, whatever w.  ``kmax`` must
    already be checked, as the rows past ``coeffs._KMAX_LIMIT`` are not
    finite.
    """

    def kernel(z: float, w_plus: float, w_minus: float) -> tuple[float, float, float, float]:
        root = math.sqrt(math.pi / z)
        parts = []
        for w in (w_plus, w_minus):
            u = 1.0 + w
            y = 1.0 / (u * z)
            rows = _row_values(w, kmax)
            last = total = rows.pop()
            yk = 1.0
            for p in reversed(rows):
                total = total * y + p
                yk *= y
            scale = root / u
            parts += (scale * total, abs(scale * last) * yk)
        k_plus, last_plus, k_minus, last_minus = parts
        if not (math.isfinite(k_plus + last_plus) and math.isfinite(k_minus + last_minus)):
            raise DomainError(
                f"the expansion of order kmax={kmax} leaves the double range at z={z!r}"
            )
        return k_plus, k_minus, last_plus, last_minus

    return kernel


def _expand(g: Geometry, kmax: int, upper: bool) -> EvalResult:
    """F (or G when ``upper``) by the split with the series kernel, clamped to [0, 1]."""
    value, error = oracle._evaluate(g, upper, _series_kernel(kmax))
    return tuple.__new__(EvalResult, (value, Method.UNIFORM_ASYM, kmax, error, False))


def cdf_asym(p: Parameters, x: float, kmax: int = DEFAULT_KMAX) -> EvalResult:
    """F by the asymptotic expansions alone, clamped to [0, 1]."""
    return _expand(geometry(p, x), _check_kmax(kmax), False)


def sf_asym(p: Parameters, x: float, kmax: int = DEFAULT_KMAX) -> EvalResult:
    """G = 1 - F by the asymptotic expansions alone, clamped to [0, 1]."""
    return _expand(geometry(p, x), _check_kmax(kmax), True)


def _trapezoid(g: Geometry) -> EvalResult:
    """F by the split with the trapezoid kernel of the quadrature oracle, at any z."""
    value, error = oracle._evaluate(g, False, oracle._kernel)
    return tuple.__new__(EvalResult, (value, Method.QUAD_SPLIT, 0, error, False))


# the z bands of ``cdf``: band i holds the z from _BAND_EDGES[i - 1] (from 0
# for i = 0) up to _BAND_EDGES[i], and _BANDS[i] is its (kernel, method,
# work): the small-z series of order 1 to 11, the trapezoid from
# oracle._SMALL_Z_LIMIT, then the Gauss rules of 8 nodes down to 1
_BAND_EDGES = (*oracle._SMALL_Z_EDGES, oracle._SMALL_Z_LIMIT, *(edge for edge, _ in oracle._GAUSS_RULES))
_BANDS = (
    *(
        (oracle._small_z_kernel(order), Method.SMALL_Z_SERIES, order)
        for order in range(1, len(oracle._SMALL_Z_EDGES) + 2)
    ),
    (oracle._kernel, Method.QUAD_SPLIT, 0),
    *(
        (oracle._gauss_kernel(rule), Method.GAUSS_SPLIT, len(rule))
        for _, rule in oracle._GAUSS_RULES
    ),
)


def _auto(g: Geometry) -> EvalResult:
    """The policy of ``cdf`` at ``g = geometry(p, x)``: 1 - G wherever zeta_plus < 0."""
    kernel, method, work = _BANDS[bisect_right(_BAND_EDGES, g.z)]
    right = g.zeta_plus < 0.0
    value, error = oracle._evaluate(g, right, kernel)
    if right:
        value = 1.0 - value
    return tuple.__new__(EvalResult, (value, method, work, error, right))


def cdf(p: Parameters, x: float) -> EvalResult:
    """F by the evaluation policy.

    The split, whatever w_minus, with the kernel of its z band: below
    z = 0.25 the convergent small-z series (SMALL_Z_SERIES), which needs no
    quadrature node, summed to the order its band needs; from z = 30 a
    Gauss rule (GAUSS_SPLIT) of the fewest nodes its band needs, 8 at
    z = 30 and 1 from z = 6.72e7; between the two the trapezoid
    (QUAD_SPLIT).  All three take each K to within 2^-53 before rounding.
    On every band the complement is evaluated and flipped when x lies
    right of the transition point (zeta_plus < 0), so the smaller function
    is the one computed.  Every split route calls its
    kernel as ``kernel(z, w_plus, |w_minus|)`` and reports the estimate
    described at ``EvalResult``.  ``geometry`` checks x and is computed
    once.  The other routes have their own functions: the paper's series
    to a chosen order in ``cdf_asym`` and ``sf_asym``, the quadrature
    oracles in ``oracle.cdf_quad_split`` and ``oracle.cdf_quad_direct``.
    """
    return _auto(geometry(p, x))
