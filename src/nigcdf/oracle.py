"""The exact split of the CDF, and reference values by two quadrature routes.

``_split`` splits the CDF exactly into erfc terms plus two pole-free
remainder integrals K(z, w), valid for every point, the transition point
included.  It takes K, and the work done, from a kernel, called as
``kernel(z, w_plus, w_minus)``: the expansion's asymptotic series, for
``cdf_asym`` and ``sf_asym``; a Gauss rule built by ``_gauss_kernel``,
which the policy ``expansion.cdf`` takes from z = 30; the convergent
series in z of ``_small_z_kernel``, which that policy takes below z = 0.07;
and the trapezoid, for the policy between the two by one kernel per rung
of its step's ladder, built by ``_rung_kernel``, and for the primary
oracle ``cdf_quad_split`` at every z by ``_kernel``; the judge that shares
no rule with any split route is the direct oracle ``cdf_quad_direct``.
Below |w_minus| = 1e-13 the split drops the minus part where its bound
E |w_minus| / pi is no more than the kernel's own bound on that part, as
the asymptotic series' often is, and its error estimate then takes
E |w_minus| / pi for what it dropped; elsewhere it keeps it.  Every split
route reaches ``_split`` through one evaluator, ``_evaluate(p, x, side,
bands, edges)``: it computes the geometry by ``params._geometry``, takes
x's z band, a (kernel, method) pair, from a table of bands, clamps the
value into [0, 1] and, for the policy, returns 1 - G right of the
transition point; its record's work is the kernel's.  A forced route
passes a table of one band, ``_TRAPEZOID`` for ``cdf_quad_split``.

Each of the policy's Gauss kernels does the least work that its z band
needs: the bands' lower edges in ``_GAUSS_RULES`` are where a rule with
fewer nodes certifies 2^-53 K.  The Gauss rules are the ones for the
weight u^{-1/2} e^{-z u}, u = sigma^2: the N-node rule's nodes are the
squared positive nodes of the order-2N Gauss-Hermite rule over z.  Before
rounding each underestimates K, by at most 2^-53 K from its band's edge
on: 8 nodes from z = 30 down to 1 node from z = 6.72e7, so its error
bound needs no table.

The small-z series is exact at infinite order: K(0, w) in closed form, an
erf term, and the integral M of e^{a t} K_0(t/2) over [0, z], summed from
the ascending series of K_0 (DLMF 10.31-10.32) by one loop that steps its
coefficients by their three-term recurrence.  A majorant of its terms
bounds the tail; summed to order 8 at every z, the tail stays within
2^-53 K below z = 0.07, the crossover.

The trapezoid puts both integrals on one grid in ``t``, ``sigma = sinh(t)``:
the map turns the algebraic ``1/sigma^2`` tail into a double-exponential
one, so the truncation grows only like ``log(1/z)`` as z -> 0 (about 16 at
z = 1e-12, against 6e6 in sigma).  It sums one level, at a step chosen in
advance from the Trefethen-Weideman bound on a strip, so that before
rounding the sum is within eps = 2^-53 K_low of K, K_low a closed-form
lower bound on K; that bound, not a measured change, is the error
estimate the split reports.  The step is rounded down to a ladder of
powers of 2^(-1/16).  The policy's band 0.07 <= z < 30 spans 9 rungs, and
the policy takes it as 9 bands, each from its rung's exact first double
(``_RUNG_EDGES``), each with its own kernel, step and node table, built
at import: a call there costs no ``_step``, only eps and the last node
index from z, and a node's sinh^2 t and cosh t come from the table, so
it costs one exp and one division per integral.  ``_kernel`` calls the
same kernels wherever a table holds the nodes its z needs.  A call takes
at most 21 nodes for z >= 1, 32 for z >= 0.07, 39 for z >= 1e-2, 131 for
z >= 1e-12 and 2,998 at the smallest positive double, the most at any z.
This grid is the split oracle's only rule.

The secondary oracle integrates the steepest-descent representation
directly, by one trapezoid level whose step and last node it fixes in
advance from a strip bound of its own, as the split's trapezoid does; it
degenerates when the poles approach the saddle, so it refuses a band
around the transition.  One integral I serves both sides of that band:
F = I for nu > tau, and F = 1 + I for nu < tau, where the contour has
crossed the plus pole, whose residue is 1.
"""

import math
from bisect import bisect_right
from collections.abc import Callable
from enum import Enum
from typing import NamedTuple

from .errors import NearTransitionError
from .params import Parameters, _geometry, _require_finite, validate
from .special import _erfcx

__all__ = [
    "cdf_quad_split",
    "cdf_quad_direct",
    "reflect",
]

# the direct oracle refuses |s_plus| <= this, that is |nu - tau| <= 0.02
_NEAR_TRANSITION_S = math.sin(0.01)
# ln 2^55: the direct oracle's ln(4 / 2^-53), the most its strip's growth may
# take, and the exponent its truncation needs
_DIRECT_LOG = 55.0 * math.log(2.0)
# the direct oracle's reach where alpha omega is tiny
_DIRECT_REACH = _DIRECT_LOG + math.log(8.0 / math.pi) + 0.01
# below this |w_minus| the two halves of the minus part cancel to within
# E |w_minus| / pi; ``_split`` takes it as zero, and adds that to its
# estimate, where that is at most the kernel's bound c_minus dK_minus
_W_MINUS_NEGLIGIBLE = 1e-13
# the trapezoid kernel's error bound, relative to a lower bound on K
_TARGET_REL = 2.0**-53
# kernel(z, w_plus, w_minus) -> (K_plus, K_minus, dK_plus, dK_minus, work)
_Sums = tuple[float, float, float, float, int]
_Kernel = Callable[[float, float, float], _Sums]


class Method(Enum):
    UNIFORM_ASYM = "uniform_asym"
    QUAD_SPLIT = "quad_split"
    QUAD_DIRECT = "quad_direct"
    SMALL_Z_SERIES = "small_z_series"
    GAUSS_SPLIT = "gauss_split"


# a NamedTuple, not a frozen dataclass, for the reason given at params.Parameters;
# defined here, where both oracles build it, and exported by ``expansion``
class EvalResult(NamedTuple):
    """The record of every public route: probability, route taken, and an error estimate.

    ``error_estimate`` is, on the four split routes (UNIFORM_ASYM,
    GAUSS_SPLIT, SMALL_Z_SERIES and QUAD_SPLIT), |c_plus| dK_plus +
    |c_minus| dK_minus: each remainder kernel's error measure, weighted as
    the kernel enters the value.  The asymptotic series' dK is the
    magnitude of its last retained term, a heuristic rather than a bound;
    the Gauss rule's is 2^-53 K, the trapezoid's 2^-53 times a lower bound
    on K, and the convergent small-z series' a majorant of its omitted
    terms as they enter K, at most 2^-53 K: bounds that hold before
    rounding rather than measured changes.  Where |w_minus| < 1e-13 and
    E |w_minus| / pi, E = e^{z sigma_plus^2}, which bounds F_minus to first
    order, is at most |c_minus| dK_minus, the split drops F_minus and
    reports E |w_minus| / pi in place of |c_minus| dK_minus.  The bounded
    kernels' dK, near 2^-53 K, allows that only below |w_minus| of about
    1e-16.
    On QUAD_DIRECT it is 2^-53 times a bound on the integral of |f| over
    2 pi, f the direct integrand, also a bound before rounding.  Each
    includes the distance by which the value was clamped into [0, 1].
    ``kmax_used`` is the work the route reports: what it summed, its nodes,
    t = 0 included, or its series order; on a split route the kernel's, and
    0 where E underflows and the split calls no kernel.
    ``complemented`` records that the value was produced as 1 minus the
    directly computed complement: on ``cdf``, at every point with
    zeta_plus < 0, right of the transition point.
    """

    value: float
    method: Method
    kmax_used: int
    error_estimate: float
    complemented: bool = False


# below this z ``expansion.cdf`` takes ``_small_z_kernel`` (order 8 certifies
# 2^-53 K to z = 0.0973), from it the trapezoid, whose node tables start here.
# On a shared 2-vCPU host (CPython 3.11, ``timeit``, min of 7, three rounds)
# a rung kernel took 0.80-1.07 times as long a call as the order-8 series at
# 0.0578, 0.065, 0.07 and 0.08, and 0.64-0.86 at 0.0973, 0.15 and 0.24
# against the orders 9 to 11 that the series needs there: the crossover lies
# near z = 0.07
_SMALL_Z_LIMIT = 0.07
_SMALL_Z_ORDER = 8  # the order of ``_small_z_kernel``'s series, its work
# (2n+1) / (n+1)^2, 1 / (n+1)^2, 2 / (n+1) and 1 / (n+2) for each step
# n -> n + 1 of the recurrences of ``_small_z_m``, n = 1 .. 7, to order 8
_SMALL_Z_STEPS = tuple(
    ((2 * n + 1) / (n + 1) ** 2, 1 / (n + 1) ** 2, 2 / (n + 1), 1 / (n + 2))
    for n in range(1, _SMALL_Z_ORDER)
)
# the bound 2 t_{N+1} of ``_small_z_kernel`` on the terms of M past order
# N = _SMALL_Z_ORDER is z^(N+2) (H_floor((N+1)/2) + 1/(N+2) - Lambda) / (N+2)!:
# this power, offset and scale; at N = 8, z^10 (H_4 + 1/10 - Lambda) / 10!
_SMALL_Z_TAIL_POWER = _SMALL_Z_ORDER + 2
_SMALL_Z_TAIL_OFFSET = (
    sum(1.0 / k for k in range(1, (_SMALL_Z_ORDER + 1) // 2 + 1)) + 1.0 / _SMALL_Z_TAIL_POWER
)
_SMALL_Z_TAIL_SCALE = 1.0 / math.factorial(_SMALL_Z_TAIL_POWER)
# (lower z edge, rule) of each rule of ``_gauss_kernel``, by rising z: the rule
# of N nodes, N = 8 down to 1, holds (x_i^2, 2 W_i) over the N positive nodes
# x_i of the order-2N Gauss-Hermite rule, smallest weight first: 50-digit
# mpmath (Golub-Welsch, then Newton on the normalised Hermite recurrence),
# rounded once.  At w = 0, the worst w, rule N certifies 2^-53 K from z =
# 26.18, 34.78, 50.32, 83.87, 181.3, 679.3, 10,779 and 6.71e7; each edge is
# that z rounded up, and the first is the trapezoid's upper end, 30
_GAUSS_RULES = (
    (30.0, (
        (float.fromhex("0x1.5fbf94e0e468dp+4"), float.fromhex("0x1.23e62febce393p-31")),
        (float.fromhex("0x1.df1fc2d7ffd78p+3"), float.fromhex("0x1.f26d457674892p-22")),
        (float.fromhex("0x1.42fc81eea0951p+3"), float.fromhex("0x1.c6f9810be5860p-15")),
        (float.fromhex("0x1.9eebdacdca993p+2"), float.fromhex("0x1.e8c90a9ef9aa7p-10")),
        (float.fromhex("0x1.e79cebe1bb3b6p+1"), float.fromhex("0x1.a60fe26755d4fp-6")),
        (float.fromhex("0x1.e7b586f59fa88p+0"), float.fromhex("0x1.574932ae292a7p-3")),
        (float.fromhex("0x1.5ac0647566296p-1"), float.fromhex("0x1.1f620c20579f4p-1")),
        (float.fromhex("0x1.3258f91c2758ap-4"), float.fromhex("0x1.040f552a19f20p+0")),
    )),
    (35.0, (
        (float.fromhex("0x1.2873d31a7e634p+4"), float.fromhex("0x1.2879e3fc189a5p-26")),
        (float.fromhex("0x1.7fae05e229f54p+3"), float.fromhex("0x1.3c84958ff0c41p-17")),
        (float.fromhex("0x1.e3763b7726af1p+2"), float.fromhex("0x1.745772989a757p-11")),
        (float.fromhex("0x1.18f25ddd2e47ep+2"), float.fromhex("0x1.013b082935900p-6")),
        (float.fromhex("0x1.171da28f68a73p+1"), float.fromhex("0x1.189942515b4ebp-3")),
        (float.fromhex("0x1.8b55a9552b9e1p-1"), float.fromhex("0x1.17a8ff2d23f15p-1")),
        (float.fromhex("0x1.5ca202c0f28f3p-4"), float.fromhex("0x1.12a3cb9f3069ap+0")),
    )),
    (51.0, (
        (float.fromhex("0x1.e428a16a34f21p+3"), float.fromhex("0x1.1d75b65601410p-21")),
        (float.fromhex("0x1.23f9d705393c3p+3"), float.fromhex("0x1.679b437e4bbdcp-13")),
        (float.fromhex("0x1.4c8dc35767244p+2"), float.fromhex("0x1.ffe329ad9cf5fp-8")),
        (float.fromhex("0x1.46bb433d480ccp+1"), float.fromhex("0x1.a6c5ca4dd8599p-4")),
        (float.fromhex("0x1.cbee5960c2dedp-1"), float.fromhex("0x1.0abe7f05c6b6fp-1")),
        (float.fromhex("0x1.9477bfc007490p-4"), float.fromhex("0x1.23e8c40416d39p+0")),
    )),
    (84.0, (
        (float.fromhex("0x1.79d47f0da3502p+3"), float.fromhex("0x1.005ed187f8cc3p-16")),
        (float.fromhex("0x1.9a8aee94b0762p+2"), float.fromhex("0x1.603a8a28ca7a5p-9")),
        (float.fromhex("0x1.8affff8722656p+1"), float.fromhex("0x1.157fc10b75837p-4")),
        (float.fromhex("0x1.13167efcf0c13p+0"), float.fromhex("0x1.ebcdcac8d7de7p-2")),
        (float.fromhex("0x1.e19cf34ee1a70p-4"), float.fromhex("0x1.38c2fcb47bb9ap+0")),
    )),
    (182.0, (
        (float.fromhex("0x1.12d61a8332157p+3"), float.fromhex("0x1.a2999ecb217f6p-12")),
        (float.fromhex("0x1.f6a6bd7175b20p+1"), float.fromhex("0x1.17ce409fe72bfp-5")),
        (float.fromhex("0x1.56cf1472aa3e3p+0"), float.fromhex("0x1.a994440b42f6cp-2")),
        (float.fromhex("0x1.2994e486cd93ep-3"), float.fromhex("0x1.5281dc79924d8p+0")),
    )),
    (680.0, (
        (float.fromhex("0x1.619f3b5c0b740p+2"), float.fromhex("0x1.28e0f4650c24bp-7")),
        (float.fromhex("0x1.c8d4844af1424p+0"), float.fromhex("0x1.41ac82e074c9cp-2")),
        (float.fromhex("0x1.85747227076d8p-3"), float.fromhex("0x1.7302a67a67abfp+0")),
    )),
    (10_780.0, (
        (float.fromhex("0x1.5cc470a049097p+1"), float.fromhex("0x1.4d0eb00fdaebdp-3")),
        (float.fromhex("0x1.19dc7afdb7b46p-2"), float.fromhex("0x1.9c1db31953993p+0")),
    )),
    (6.72e7, (
        (float.fromhex("0x1.0000000000000p-1"), float.fromhex("0x1.c5bf891b4ef6bp+0")),
    )),
)
# ln 4 - gamma_E, so that Lambda = ln z - ln 4 + gamma_E of ``_small_z_kernel``
# is one subtraction from ln z
_LOG_4_MINUS_GAMMA = math.log(4.0) - 0.5772156649015329
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)
_SQRT_PI = math.sqrt(math.pi)
_INV_SQRT_PI = 1.0 / _SQRT_PI
# the strip half-width y of ``_step`` is sqrt(R0 / z), R0 = 55 ln 2, capped at
# pi/4; at the cap 4 M / eps is this constant times e^{z/2} (sqrt z + sqrt(z + 2))
_SQRT_R0 = math.sqrt(55.0 * math.log(2.0))
_QUARTER_PI = 0.25 * math.pi
_WIDE_STRIP_RATIO = 4.0 * math.sqrt(2.0) * math.pi / (_TARGET_REL * _SQRT_PI)
# the names ``_split`` and ``_evaluate`` call, bound once: a module global is
# one lookup a call, ``math.exp`` two; 2 pi is an exact doubling
_TWO_PI = 2.0 * math.pi
_exp, _erfc, _tuple_new = math.exp, math.erfc, tuple.__new__
_sqrt, _log, _asinh = math.sqrt, math.log, math.asinh


def _kernel(z: float, w_plus: float, w_minus: float) -> _Sums:
    """K(z, w_plus) and K(z, w_minus) on one certified trapezoid level, and their error bound.

    K(z, w) is the integral of e^{-z sigma^2} / (q (q + w)) over the real
    line, q = sqrt(1+sigma^2), for w in [0, 1].  The one rule evaluates both
    on one trapezoid grid in t, sigma = sinh(t):

        K(z, w) = integral of f(t) = e^{-z sinh^2 t} / (cosh t + w) dt,

    whose integrand is even and analytic in the strip |Im t| < pi/2.
    ``_step`` fixes the step h and the last node in advance: before
    rounding, the sum differs from K by at most eps = 2^-53 K_low <=
    2^-53 K(z, w).  That eps is returned as dK for both kernels, so
    ``_split`` reports a bound that holds, not a measured change.  Both
    kernels share every node's exp.

    This is the trapezoid at any z, for ``cdf_quad_split``: it takes h from
    ``_step``.  Where its rung has a table in ``_TABLES`` that holds z's
    last node, it calls that rung's kernel in ``_RUNG_KERNELS``, the one
    the policy's band holds; elsewhere it computes the nodes
    (sinh^2 t, cosh t) at t = k h by ``_nodes``, keeping nothing, and sums
    them by a ``_rung_kernel(h, nodes)`` of its own.  Either way the sum
    and eps are ``_step``'s, bit for bit.  The policy's trapezoid band calls
    its rung's kernel directly and needs no ``_step``.
    The node terms fall with t, so they are summed from the last node
    back, smallest first: summed from t = 0 on in blocks of 32, the
    rounding reached 5.9e-16 of K on a seeded sample where this order stays
    within 3.0e-16.  Against 40-digit mpmath, K, rounding included, stayed
    within 3.2e-16 relative over 300 seeded calls, z log-uniform over
    [1e-300, 1e16].  A call takes at most 21 nodes for z >= 1, 32 for
    z >= 0.07, 39 for z >= 1e-2, 131 for z >= 1e-12 and 2,998 at the
    smallest positive double, the most at any z, so it needs no budget and
    never raises.
    """
    h, last, _, _ = _step(z)
    if len(_TABLES.get(h, ())) >= last:
        return _RUNG_KERNELS[h](z, w_plus, w_minus)
    return _rung_kernel(h, _nodes(h, last))(z, w_plus, w_minus)


def _rung_kernel(h: float, nodes: tuple[tuple[float, float], ...]) -> _Kernel:
    """The trapezoid of ``_kernel`` at the step h, over ``nodes``: valid for every z on h's rung.

    A call computes only what moves with z on a rung, by the expressions
    of ``_step``: eps = 2^-53 K_low and the last node index, from
    Lambda = ln(4 h / eps) + 0.01, at two sqrts, a log, a sqrt and an
    asinh.  ``nodes`` must hold at least the last node of every z the
    kernel is called at.  So at every z whose step ``_step`` puts on h's
    rung the call sums the nodes and reports the eps that ``_step``
    certifies, bit for bit, and as its work the node count last + 1.
    """
    two_h = 2.0 * h
    four_h = 4.0 * h
    eps_scale = _TARGET_REL * _SQRT_PI

    def kernel(z: float, w_plus: float, w_minus: float) -> _Sums:
        root_z = _sqrt(z)
        eps = eps_scale / (root_z + _sqrt(z + 2.0))
        last = int(_asinh(_sqrt(_log(four_h / eps) + 0.01) / root_z) / h)
        exp = math.exp
        neg_z = -z
        # the node terms fall with t, so summed from t = last h down to t = h,
        # smallest first; the t = 0 node, weighted 1/2, comes last
        sum_plus = sum_minus = 0.0
        for s2, c in reversed(nodes[:last]):
            e = exp(neg_z * s2)
            sum_plus += e / (c + w_plus)
            sum_minus += e / (c + w_minus)
        sum_plus += 0.5 / (1.0 + w_plus)
        sum_minus += 0.5 / (1.0 + w_minus)
        return two_h * sum_plus, two_h * sum_minus, eps, eps, last + 1

    return kernel


def _step(z: float) -> tuple[float, int, float, float]:
    """The certified trapezoid of ``_kernel`` at z: (step h, last node index, y, eps).

    The step: on the strip |Im t| <= y <= pi/4, Re sinh^2(x + ib) =
    sinh^2 x cos 2b - sin^2 b and |cosh(x + ib) + w| >= cos y (cosh x + w), so

        |f(x + ib)| <= e^{z sin^2 y} e^{-z cos 2y sinh^2 x} / (cos y (cosh x + w)),

    and, as K(u, 0) = pi erfcx(sqrt u) <= min(pi, sqrt(pi/u)), every line
    integral of |f| is at most M = e^{z sin^2 y} min(pi, sqrt(pi/(z cos 2y))) / cos y.
    By Trefethen & Weideman (SIAM Rev. 56, 2014, Thm 5.1) the untruncated
    trapezoid sum then differs from K by at most B = 2M / (e^{2 pi y / h} - 1).
    K(z, w) >= K(z, 1) >= (pi/2) erfcx(sqrt z) > K_low = sqrt(pi) /
    (sqrt z + sqrt(z + 2)) (A&S 7.1.13), and eps = 2^-53 K_low.  The step
    h_cert = 2 pi y / ln(4 M / eps) makes B <= eps/2.

    The ladder: h is h_cert rounded down to the largest rung 2^(-j/16),
    j an integer, at or below it, so ``_kernel`` reads its nodes from a
    table kept per rung.  A smaller step only shrinks B, so eps is
    unchanged; h > 2^(-1/16) h_cert, so the rounding adds at most 4.4 %
    nodes.

    y = min(pi/4, sqrt(R0 / z)) is about where h peaks, since at large z
    ln M grows like z y^2; R0 = 55 ln 2 is the large-z limit of
    ln(2 min(pi, sqrt(pi/z)) / eps), within 0.01 of it wherever y < pi/4,
    that is for z > 16 R0 / pi^2, about 62.  At the cap y = pi/4,
    M = sqrt(2) pi e^{z/2}.  min(pi, sqrt(pi/u)) is formed as
    sqrt(pi) / max(1/sqrt(pi), sqrt(u)), which never divides by u = 0.

    The truncation: the nodes run to T = asinh(sqrt(Lambda / z)).  For
    t >= T, sinh^2 t >= S^2 + 2 S C (t - T), with S = sinh T and
    C = cosh T >= 1, and cosh t + w >= 1, so the nodes dropped on each side
    sum to at most h e^{-Lambda} / (1 - e^{-r}), r = 2 z S C h =
    2 h sqrt(Lambda (Lambda + z)).  With Lambda = ln(4 h / eps) + 0.01, from
    the rounded h, that is (eps/4) e^{ln(1/(1 - e^{-r})) - 0.01}.  At
    h_cert, r >= 6.1 over every positive double z; the ladder takes at most
    2^(-1/16) off it, so r >= 5.8 (5.92 at the least over 400,001
    log-spaced z), ln(1/(1 - e^{-r})) <= 0.003 < 0.01, and both sides stay
    within eps/2.  Lambda lies in [35.8, 37.7], so T grows like log(1/z)
    as z -> 0.
    """
    root_z = math.sqrt(z)
    scale = root_z + math.sqrt(z + 2.0)  # sqrt(pi) / K_low
    eps = _TARGET_REL * _SQRT_PI / scale
    y = _SQRT_R0 / root_z
    if y >= _QUARTER_PI:
        y = _QUARTER_PI
        log_ratio = 0.5 * z + math.log(_WIDE_STRIP_RATIO * scale)  # ln(4 M / eps)
    else:
        sin_y = math.sin(y)
        rest = max(_INV_SQRT_PI, math.sqrt(z * math.cos(2.0 * y))) * math.cos(y) * eps
        log_ratio = z * (sin_y * sin_y) + math.log(4.0 * _SQRT_PI / rest)
    h_cert = 2.0 * math.pi * y / log_ratio
    # the largest rung 2^(-j/16) at or below h_cert.  log2 and the power
    # round: less 1e-9, the guess for j is never one too many, and at most
    # one too few, which the check corrects
    j = math.ceil(-16.0 * math.log2(h_cert) - 1e-9)
    h = 2.0 ** (-j / 16)
    if h > h_cert:
        h = 2.0 ** (-(j + 1) / 16)
    lam = math.log(4.0 * h / eps) + 0.01
    return h, int(math.asinh(math.sqrt(lam) / root_z) / h), y, eps


def _nodes(h: float, count: int) -> tuple[tuple[float, float], ...]:
    """The nodes (sinh^2(k h), cosh(k h)), k = 1 .. count, each from the double t = k h alone."""
    sinh, cosh = math.sinh, math.cosh
    nodes = []
    for k in range(1, count + 1):
        t = k * h
        s = sinh(t)
        nodes.append((s * s, cosh(t)))
    return tuple(nodes)


# the first double z of each rung of ``_step``'s ladder in the policy's
# trapezoid band 0.07 <= z < 30, by rising z: the band's lower edge, then
# the rungs j = 50 .. 57, from z = 1.93563, 4.87014, 8.22574, 11.8721,
# 15.7644, 19.8855, 24.2297 and 28.7973 on, found by bisecting ``_step`` to
# adjacent doubles.  ``expansion._BAND_EDGES`` takes them as the lower edges
# of the rung bands, so a bisect over them puts every z on the rung
# ``_step`` gives it
_RUNG_EDGES = (
    _SMALL_Z_LIMIT,
    float.fromhex("0x1.ef856a7a52de0p+0"),
    float.fromhex("0x1.37b04d80a5dd8p+2"),
    float.fromhex("0x1.07393f8fe1087p+3"),
    float.fromhex("0x1.7be8633996ae4p+3"),
    float.fromhex("0x1.f8763b32256dcp+3"),
    float.fromhex("0x1.3e2b06405c507p+4"),
    float.fromhex("0x1.83ad0422d994bp+4"),
    float.fromhex("0x1.ccc1dbe2ca8dap+4"),
)
# the trapezoid's node tables by step h, by rising z, each sized by ``_step``
# at its rung's edge: on a rung the last node falls as z rises, so the one
# at the rung's first double serves every z of the rung.  137 nodes on the
# 9 rungs of the band, built once here and never written after, so never
# locked
_TABLES = {h: _nodes(h, last) for h, last, _, _ in map(_step, _RUNG_EDGES)}
# one ``_rung_kernel`` per table, by step: ``expansion._BANDS`` holds them as
# the policy's trapezoid bands, and ``_kernel`` calls the one of z's rung
# wherever its table holds z's last node
_RUNG_KERNELS = {h: _rung_kernel(h, nodes) for h, nodes in _TABLES.items()}


def _small_z_kernel(z: float, w_plus: float, w_minus: float) -> _Sums:
    """K(z, w_plus) and K(z, w_minus) by their small-z series to order 8, and their bounds.

    The same kernels as ``_kernel``, exact for every z > 0 at infinite
    order; the auto route of ``expansion.cdf`` takes them below a measured
    crossover in z.  With s^2 = (1 - w)(1 + w) and the integral
    e^{z/2} K_0(z/2) of e^{-z sigma^2} / q (DLMF 10.32), K solves
    dK/dz = s^2 K - sqrt(pi/z) + w e^{z/2} K_0(z/2) from
    K(0, w) = 2 atan2(s, w) / s, so

        K(z, w) = e^{s^2 z} [2 atan2(s, w) / s - pi erf(s sqrt z) / s + w M],

    M = integral over [0, z] of e^{a t} K_0(t/2) dt, a = w^2 - 1/2.  By the
    ascending series of K_0 (DLMF 10.31), e^{a t} K_0(t/2) =
    sum_n (B_n - Lambda(t) A_n) t^n, Lambda(t) = ln t - ln 4 + gamma_E,
    with A_n and B_n the Taylor coefficients of e^{a t} I_0(t/2) and of its
    K_0 companion.  Both solve t g'' + (1 - 2 a t) g' + ((a^2 - 1/4) t - a) g
    = 0, so, with w^2 s^2 = 1/4 - a^2,

        (n+1)^2 A_{n+1} = (2n+1) a A_n + w^2 s^2 A_{n-1},  A_0 = 1, A_1 = a,
        (n+1)^2 B_{n+1} = (2n+1) a B_n + w^2 s^2 B_{n-1} + 2(n+1) A_{n+1} - 2 a A_n,

    from B_0 = B_1 = 0.  One loop steps alpha_n = A_n z^n and
    beta_n = B_n z^n for both w at once, and sums
    M = z sum_{n=0..8} (beta_n + alpha_n (1/(n+1) - Lambda)) / (n+1),
    Lambda = Lambda(z), never formed as ln(z/4), which underflows at the
    smallest double.  Both factors stay smooth as s -> 0: atan2(s, w) / s
    tends to 1/w, and erf(y) / y is taken by its Taylor series below
    y = 1e-4.  No trapezoid node is used.

    Each dK bounds the truncation before rounding.  With |a| <= 1/2 and
    binomial(2k, k) <= 4^k, e^{a t} I_0(t/2) <= e^{t/2} cosh(t/2)
    coefficientwise, so |A_n| <= 1/(2 n!) for n >= 1; the companion
    e^{a t} sum_k H_k (t/4)^{2k} / k!^2, H_k the harmonic numbers, gives
    |B_n| <= H_{floor(n/2)} / (2 n!) the same way.  Below z = 1/4,
    Lambda < -2.19, so term n of M is at most t_n =
    z^{n+1} (H_{floor(n/2)} + 1/(n+1) - Lambda) / (2 (n+1)!), each t_n
    under half the one before, and the terms past order 8 sum to at most
    2 t_9 = z^10 (H_4 + 1/10 - Lambda) / 10!.  M enters K times
    w e^{s^2 z}, so dK = w e^{s^2 z} 2 t_9; below about z = 1.7e-31, where
    z^10 leaves the normal range, dK is under 1e-300 K and only as exact as
    that power.  As w e^{(1 - w^2) z} rises with w for z <= 1/2, it is at
    most 1, and dK <= 2^-53 K_low <= 2^-53 K (K_low of ``_step``) wherever
    2 t_9 <= 2^-53 K_low: up to z = 0.0973, past the crossover, while
    order 7 stops short of it.
    """
    lam = math.log(z) - _LOG_4_MINUS_GAMMA
    m_plus, m_minus = _small_z_m(z, lam, w_plus, w_minus)
    tail = z**_SMALL_Z_TAIL_POWER * (_SMALL_Z_TAIL_OFFSET - lam) * _SMALL_Z_TAIL_SCALE
    root_z = math.sqrt(z)
    k_plus, dk_plus = _small_z_one(z, root_z, w_plus, m_plus, tail)
    k_minus, dk_minus = _small_z_one(z, root_z, w_minus, m_minus, tail)
    return k_plus, k_minus, dk_plus, dk_minus, _SMALL_Z_ORDER


def _small_z_m(z: float, lam: float, w_plus: float, w_minus: float) -> tuple[float, float]:
    """M of ``_small_z_kernel`` at w_plus and w_minus to order 8, given Lambda(z).

    One loop steps both pairs (alpha_n, beta_n) by their recurrences, one
    step of ``_SMALL_Z_STEPS`` per order past 1.
    """
    zz = z * z
    w2_plus = w_plus * w_plus
    w2_minus = w_minus * w_minus
    az_plus = (w2_plus - 0.5) * z
    az_minus = (w2_minus - 0.5) * z
    c_plus = w2_plus * ((1.0 - w_plus) * (1.0 + w_plus)) * zz  # w^2 s^2 z^2
    c_minus = w2_minus * ((1.0 - w_minus) * (1.0 + w_minus)) * zz
    # alpha_n, beta_n, their predecessors, and M / z summed over n = 0 and 1
    al_plus, al_minus = az_plus, az_minus
    al0_plus = al0_minus = 1.0
    be_plus = be_minus = be0_plus = be0_minus = 0.0
    m_plus = 1.0 - lam + 0.5 * az_plus * (0.5 - lam)
    m_minus = 1.0 - lam + 0.5 * az_minus * (0.5 - lam)
    for p, q, r, inv in _SMALL_Z_STEPS:
        x_plus = az_plus * al_plus
        x_minus = az_minus * al_minus
        al0_plus, al_plus = al_plus, p * x_plus + q * (c_plus * al0_plus)
        al0_minus, al_minus = al_minus, p * x_minus + q * (c_minus * al0_minus)
        be0_plus, be_plus = be_plus, (
            p * (az_plus * be_plus) + q * (c_plus * be0_plus) + r * al_plus - 2.0 * q * x_plus
        )
        be0_minus, be_minus = be_minus, (
            p * (az_minus * be_minus) + q * (c_minus * be0_minus) + r * al_minus - 2.0 * q * x_minus
        )
        m_plus += (be_plus + al_plus * (inv - lam)) * inv
        m_minus += (be_minus + al_minus * (inv - lam)) * inv
    return z * m_plus, z * m_minus


def _small_z_one(z: float, root_z: float, w: float, m: float, tail: float) -> tuple[float, float]:
    """K(z, w) and its bound for ``_small_z_kernel``, given sqrt(z), M and the bound on M's tail."""
    s2 = (1.0 - w) * (1.0 + w)
    s = math.sqrt(s2)
    arg = s * root_z
    if arg < 1e-4:
        ratio = _TWO_OVER_SQRT_PI * (1.0 - arg * arg / 3.0)  # erf(arg) / arg
    else:
        ratio = math.erf(arg) / arg
    angle = math.atan2(s, w) / s if s > 0.0 else 1.0 / w
    growth = math.exp(s2 * z)
    return growth * (2.0 * angle - math.pi * root_z * ratio + w * m), growth * w * tail


def _gauss_kernel(rule: tuple[tuple[float, float], ...]) -> _Kernel:
    """The kernel that takes K(z, w_plus) and K(z, w_minus) from a Gauss rule of ``_GAUSS_RULES``.

    In u = sigma^2, K(z, w) is the integral over u > 0 of u^{-1/2} e^{-z u}
    g(u), g(u) = 1 / (q (q + w)), q = sqrt(1 + u).  The N-node Gauss rule
    for the weight u^{-1/2} e^{-z u} has the nodes x_i^2 / z, x_i the
    positive nodes of the order-2N Gauss-Hermite rule, so

        K(z, w) ~ z^{-1/2} sum_i 2 W_i / (q_i (q_i + w)),  q_i = sqrt(1 + x_i^2 / z).

    It is exact through the d-series term k = 2N - 1, and it converges
    where that series diverges: it is the Pade (Stieltjes) form of the same
    series.  For w in [0, 1], g is a Stieltjes function, so every even
    derivative of g is positive and, before rounding, the rule
    underestimates K.  Its relative error is largest at w = 0, where
    K(z, 0) = pi erfcx(sqrt z), and falls with z; ``_GAUSS_RULES`` gives
    each rule from where that error is within 2^-53 (the 8-node rule's is
    1.93e-17 at z = 30, where the auto route of ``expansion.cdf`` starts
    taking it).  So each dK is 2^-53 K, one bound for every w, as on the
    trapezoid.  Both sums share each sqrt, and no node calls exp.
    """
    nodes = len(rule)

    def kernel(z: float, w_plus: float, w_minus: float) -> _Sums:
        sqrt = math.sqrt
        sum_plus = sum_minus = 0.0
        for node, weight in rule:
            q = sqrt(1.0 + node / z)
            sum_plus += weight / (q * (q + w_plus))
            sum_minus += weight / (q * (q + w_minus))
        root = sqrt(z)
        k_plus = sum_plus / root
        k_minus = sum_minus / root
        return k_plus, k_minus, _TARGET_REL * k_plus, _TARGET_REL * k_minus, nodes

    return kernel


# the trapezoid at any z as a one-band table of ``_evaluate``, for
# ``cdf_quad_split``; between the small-z and Gauss bands ``expansion._BANDS``
# takes a ``_rung_kernel`` per rung
_TRAPEZOID = ((_kernel, Method.QUAD_SPLIT),)


def cdf_quad_split(p: Parameters, x: float) -> EvalResult:
    """High-accuracy CDF by ``_split`` with the trapezoid ``_kernel``; valid for every z > 0.

    The kernel's step is certified in advance to 2^-53 of K, and the
    record of ``_evaluate`` reports that bound as its estimate.
    """
    return _evaluate(p, x, False, _TRAPEZOID, ())


def _split(g: tuple[float, ...], upper: bool, kernel: _Kernel) -> tuple[float, float, float, int]:
    """The exact erfc split at one geometry, each remainder K(z, w) taken from ``kernel``.

    ``g`` holds the fields of ``Geometry`` in order: the plain tuple of
    ``params._geometry`` or the record itself.

    With E = e^{z sigma_plus^2} <= 1, weights c = s E / (2 pi) for each part
    and sgn = sign(w_minus):

        F_plus  = 1/2 erfc(zeta_plus)  - c_plus K(z, w_plus)
        G_plus  = 1/2 erfc(-zeta_plus) + c_plus K(z, w_plus)
        F_minus = sgn [ 1/2 E erfcx(zeta_minus) - c_minus K(z, |w_minus|) ]

    so F = F_plus + F_minus and G = G_plus - F_minus; the erfcx form keeps
    both factors of (1/2) e^{2 gamma delta} erfc(zeta_minus) at or below
    one.  ``kernel(z, w_plus, |w_minus|)`` returns (K_plus, K_minus,
    dK_plus, dK_minus, work), dK its error measure; where E underflows to 0,
    which makes both weights and both terms of F_minus exactly 0, it is not
    called and the work is 0.  The estimate is |c_plus| dK_plus + |c_minus|
    dK_minus.  Below ``_W_MINUS_NEGLIGIBLE`` F_minus is at most
    E |w_minus| / pi + O(w_minus^2): it vanishes at w_minus = 0, s_minus
    moves only at second order in w_minus, and dK/dw(z, 0), the integral of
    -e^{-z sinh^2 t} / cosh^2 t, lies in [-2, 0).  Where that bound is also
    at most c_minus dK_minus, as it often is for the asymptotic series,
    which cannot resolve F_minus near 0, F_minus is dropped and the bound
    replaces c_minus dK_minus in the estimate; a bounded kernel's dK_minus,
    near 2^-53 K, keeps F_minus down to |w_minus| of about 1e-16.  Returns
    (F_plus, or G_plus when ``upper``; F_minus; the estimate; the work).
    """
    _, _, _, z, s_plus, s_minus, w_plus, signed_w_minus, zeta_plus, zeta_minus = g
    damp = _exp(-z * (s_plus * s_plus))
    w_minus = abs(signed_w_minus)
    c_plus = s_plus * damp / _TWO_PI
    c_minus = s_minus * damp / _TWO_PI
    k_plus = k_minus = dk_plus = dk_minus = 0.0
    work = 0
    if c_plus != 0.0 or c_minus != 0.0:
        k_plus, k_minus, dk_plus, dk_minus, work = kernel(z, w_plus, w_minus)
    if upper:
        plus = 0.5 * _erfc(-zeta_plus) + c_plus * k_plus
    else:
        plus = 0.5 * _erfc(zeta_plus) - c_plus * k_plus
    error = abs(c_plus) * dk_plus
    # E w_minus / pi <= c_minus dK_minus: dropping F_minus costs no more than keeping it
    if damp == 0.0 or (w_minus < _W_MINUS_NEGLIGIBLE and 2.0 * w_minus <= s_minus * dk_minus):
        return plus, 0.0, error + damp * w_minus / math.pi, work
    minus = 0.5 * damp * _erfcx(zeta_minus) - c_minus * k_minus
    if signed_w_minus < 0.0:
        minus = -minus
    return plus, minus, error + c_minus * dk_minus, work


def _evaluate(
    p: Parameters,
    x: float,
    side: bool | None,
    bands: tuple[tuple[_Kernel, Method], ...],
    edges: tuple[float, ...],
) -> EvalResult:
    """The one evaluator of every split route: F or G at x by ``_split``, clamped to [0, 1].

    Checks x and computes the geometry once, by ``params._geometry``, then
    takes (kernel, method) = ``bands[bisect_right(edges, z)]``: the bands
    by their lower z edges, ``edges = ()`` for a one-band table.
    ``side`` False gives F and True gives G; ``side`` None is the policy of
    ``expansion.cdf``, which computes G and returns 1 - G where
    zeta_plus < 0, right of the transition point, and F elsewhere, and
    reports that flip as ``complemented``.  The estimate is the weighted
    kernel error of ``_split`` plus the distance by which the value was
    clamped, and the work is the one ``_split`` passes on from the kernel.
    """
    g = _geometry(p, x)
    kernel, method = bands[bisect_right(edges, g[3])]  # z
    if side is None:
        upper = flip = g[8] < 0.0  # zeta_plus
    else:
        upper, flip = side, False
    plus, minus, error, work = _split(g, upper, kernel)
    raw = plus - minus if upper else plus + minus
    # clamp into [0, 1] by comparisons, cheaper than min and max and equal to
    # min(1.0, max(0.0, raw)): -0.0 and NaN give 0.0
    if 0.0 < raw <= 1.0:
        value = raw
    else:
        value = 1.0 if raw > 1.0 else 0.0
        error += abs(raw - value)
    if flip:
        value = 1.0 - value
    return _tuple_new(EvalResult, (value, method, work, error, flip))


def cdf_quad_direct(p: Parameters, x: float) -> EvalResult:
    """Independent CDF oracle: one certified trapezoid level on the steepest-descent integral.

    Only defined away from the transition: |s_plus| <= sin 0.01, that is
    |nu - tau| <= 0.02, raises NearTransitionError as the integrand's poles
    pinch the contour there.  One integral I = (1/2 pi) int f over the real
    line serves both sides: F = I for s_plus > 0, and elsewhere, where the
    contour has crossed the plus pole, F = 1 + I, the 1 being that pole's
    residue.  f is even, so the rule sums the nodes t = k h, k = 0 .. last,
    from the last one back, and the record's work is that node count,
    last + 1, known before summing.

    The step: with theta = 2 asin |s_plus| >= 0.02, the distance from the
    real line to the nearest pole, f is analytic on |Im s| <= y < theta.
    There, with u = sinh(x/2), Re sinh^2((x + ib)/2) = u^2 cos b -
    sin^2(b/2), so each factor of the denominator is at least
    c u^2 + d_pm, c = cos y, d_pm = s_pm^2 - sin^2(y/2) > 0; |cosh s| <=
    1 + 2 u^2, and |e^{A - alpha omega cosh s}| <= e^{A - alpha omega c}.
    With dx <= 2 du two rational integrals bound every line integral of |f|
    by

        M(y) = e^{A - alpha omega c} sin nu pi Q(y) / 2,
        Q(y) = ((a + b) / sqrt(d_+ d_-) + 2 a / c) / (sqrt(c) (sqrt(d_+) + sqrt(d_-))),

    a = |cos tau|, b = |cos nu|.  The target eps = 2^-53 M(0) / (2 pi)
    scales with the integrand's own size, so it is relative wherever f
    keeps one sign.  By Trefethen & Weideman (SIAM Rev. 56, 2014, Thm 5.1)
    the untruncated sum is within 2 M(y) / (2 pi (e^{2 pi y / h} - 1)) of
    I, so h = 2 pi y / ln(4 M(y) / (2^-53 M(0))) keeps it within eps/2; the
    ratio is formed in logs, as ln 2^55 + 2 alpha omega sin^2(y/2) +
    ln(Q(y) / Q(0)).  y = min(sqrt(2 ln 2^55 / (alpha omega)), 0.85 theta,
    1.5), so the strip's growth e^{alpha omega (1 - cos y)} stays within
    2^55.

    The truncation: on x >= 0 the majorant g = e^{A - alpha omega cosh x}
    R(x), R = sin nu (a cosh x + b) / ((v + 2 s_+^2)(v + 2 s_-^2)) the
    rational factor above on the real line, v = cosh x - 1, does not rise:
    R falls with v, as s_pm^2 <= 1.  So the nodes past S sum to at most
    the integral of g past S, and each side drops at most (1/2 pi) of
    that.  Both bounds below keep it within 2^-55 M(0), so the two sides
    within eps/2.  As the integral of R over
    the line is at most M(0) e^{alpha omega - A}, the tail is at most
    e^{-alpha omega (cosh S - 1)} M(0) / 2, which S = acosh(1 + ln 2^55 /
    (alpha omega)) makes small enough.  Where alpha omega is tiny R's own
    decay serves: for x >= S, R <= 2 sin nu (a + b) e^{-x} / kappa^2,
    kappa = 1 - 1/cosh S, while M(0) >= e^{A - alpha omega} sin nu (a + b)
    pi / 4, so S = ln 2^55 + ln(8 / pi) + 0.01 does.  The rule takes the
    smaller S, and last = ceil(S / h).

    The estimate is eps, a bound that holds before rounding, plus the
    distance by which F was clamped into [0, 1].
    """
    xi, omega, _, _, s_plus, s_minus, _, _, _, _ = _geometry(p, x)
    if abs(s_plus) <= _NEAR_TRANSITION_S:
        raise NearTransitionError(
            f"|nu - tau| = {2.0 * math.asin(abs(s_plus)):.4g} is within 0.02; "
            "the split oracle handles the transition region"
        )
    aw = p.alpha * omega
    big_a = p.delta * p.gamma + p.beta * xi  # equals aw - z s_plus^2 <= aw
    sp2 = s_plus * s_plus
    sm2 = s_minus * s_minus
    sin_nu = p.delta / omega
    cos_nu = xi / omega
    cos_tau = p.beta / p.alpha

    def f(s: float) -> float:
        ch = math.cosh(s)
        sh2 = math.sinh(0.5 * s) ** 2
        # factored denominator: equal to (ch - cos tau cos nu)^2 - sin^2 tau sin^2 nu
        # but positive term by term, no cancellation
        den = 4.0 * (sh2 + sp2) * (sh2 + sm2)
        return math.exp(big_a - aw * ch) * sin_nu * (cos_tau * ch - cos_nu) / den

    def q(c: float, half: float) -> float:
        # Q at cos y = c and sin^2(y/2) = half
        root_p, root_m = math.sqrt(sp2 - half), math.sqrt(sm2 - half)
        rational = (abs(cos_tau) + abs(cos_nu)) / (root_p * root_m) + 2.0 * abs(cos_tau) / c
        return rational / (math.sqrt(c) * (root_p + root_m))

    # 1.7 asin |s_plus| is 0.85 theta
    y = min(math.sqrt(2.0 * _DIRECT_LOG / aw), 1.7 * math.asin(abs(s_plus)), 1.5)
    half = math.sin(0.5 * y) ** 2
    q0 = q(1.0, 0.0)
    # aw (2 half), not 2 aw half: 2 aw overflows for aw past half the largest double
    h = _TWO_PI * y / (_DIRECT_LOG + aw * (2.0 * half) + math.log(q(math.cos(y), half) / q0))
    last = math.ceil(min(_DIRECT_REACH, math.acosh(1.0 + _DIRECT_LOG / aw)) / h)
    total = 0.0
    for k in range(last, 0, -1):  # smallest terms first
        total += f(k * h)
    cur = h * (total + 0.5 * f(0.0)) / math.pi  # 2 for evenness, over 2 pi
    eps = 2.0**-55 * sin_nu * q0 * math.exp(big_a - aw)
    raw = cur if s_plus > 0.0 else 1.0 + cur
    # the clamp of ``_evaluate``; an unclamped raw adds 0.0 to eps
    value = raw if 0.0 < raw <= 1.0 else (1.0 if raw > 1.0 else 0.0)
    error = eps + abs(raw - value)
    return _tuple_new(EvalResult, (value, Method.QUAD_DIRECT, last + 1, error, False))


def reflect(p: Parameters, x: float) -> tuple[Parameters, float]:
    """Mirror the evaluation: F(x; p) = 1 - F(-x; reflected p).

    Flips the signs of beta and mu, negates x, and is its own inverse.
    Raises DomainError unless x is a finite real number.
    """
    return validate(p.alpha, -p.beta, -p.mu, p.delta), -_require_finite("x", x)
