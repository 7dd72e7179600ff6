"""The exact split of the CDF, and reference values by two quadrature routes.

``_split`` splits the CDF exactly into erfc terms plus two pole-free
remainder integrals K(z, w), valid for every point, the transition point
included.  It takes K from one of four kernels, all called as
``kernel(z, w_plus, w_minus)``: the expansion's asymptotic series,
for ``cdf_asym`` and ``sf_asym``; ``_gauss_kernel``, an 8-node Gauss rule,
which the policy ``expansion.cdf`` takes from z = 30; ``_small_z_kernel``,
a convergent series in z, which that policy takes below z = 0.5; and the
trapezoid ``_kernel``, for the policy between the two, and for the
primary oracle ``cdf_quad_split`` at every z; the judge that shares no
rule with any split route is the direct oracle ``cdf_quad_direct``.  Below
|w_minus| = 1e-13 the split drops the minus part, and its error estimate
takes E |w_minus| / pi for what it dropped.

The Gauss rule is the one for the weight u^{-1/2} e^{-z u}, u = sigma^2:
its nodes are the squared positive nodes of the order-16 Gauss-Hermite
rule over z.  Before rounding it underestimates K, by at most 2^-53 K from
z = 26.2 on, so its error bound needs no table.

The small-z series is exact at infinite order: K(0, w) in closed form, an
erf term, and the integral M of e^{a t} K_0(t/2) over [0, z], summed from
the ascending series of K_0 (DLMF 10.31-10.32) by one straight-line
function compiled on first use.  At order ``_SMALL_Z_ORDER`` = 13 it
stays within 7.3e-16 relative of mpmath up to z = 0.6.  Timed point by
point against the certified trapezoid on a shared 2-vCPU host, it was
2.9, 1.5 and 1.2 times faster at z = 1e-12, 1e-4 and 0.015, and level
with it, within 5 %, from z = 0.1 to 3.

The trapezoid puts both integrals on one grid in ``t``, ``sigma = sinh(t)``:
the map turns the algebraic ``1/sigma^2`` tail into a double-exponential
one, so the truncation grows only like ``log(1/z)`` as z -> 0 (about 16 at
z = 1e-12, against 6e6 in sigma).  It sums one level, at a step chosen in
advance from the Trefethen-Weideman bound on a strip, so that before
rounding the sum is within eps = 2^-53 K_low of K, K_low a closed-form
lower bound on K; that bound, not a measured change, is the error
estimate the split reports.  Each node costs one exp: sinh t and cosh t
step from node to node by a hyperbolic rotation.  A call takes at most
21 nodes for z >= 1, 39 for z >= 1e-2,
131 for z >= 1e-12 and 2,991 at the smallest positive double, under a
fixed node budget.  This grid is the split oracle's only rule.

The secondary oracle integrates the steepest-descent representation
directly with a nested trapezoid rule; it degenerates when the poles
approach the saddle, so it refuses a band around the transition.  One
integral I serves both sides of that band: F = I for nu > tau, and
F = 1 + I for nu < tau, where the contour has crossed the plus pole,
whose residue is 1.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .coeffs import _small_z_horner
from .errors import ConvergenceError, NearTransitionError
from .params import Geometry, Parameters, _require_finite, geometry, validate
from .special import _erfcx

__all__ = [
    "cdf_quad_split",
    "cdf_quad_direct",
    "reflect",
]

# the direct oracle stops once one step halving moves its integral by at most this
_DIRECT_TOL = 1e-12
_NEAR_TRANSITION_GAP = 0.02
# below this |w_minus| the two halves of the minus part cancel to within
# E |w_minus| / pi; ``_split`` takes it as zero and adds that to its estimate
_W_MINUS_NEGLIGIBLE = 1e-13
# node evaluations allowed per trapezoid kernel call; the certified step takes
# at most 131 nodes for z >= 1e-12 and 2,991 at the smallest double z
_NODE_BUDGET = 4096
# the trapezoid kernel's error bound, relative to a lower bound on K
_TARGET_REL = 2.0**-53
# nodes per block of the trapezoid kernel: each block restarts the rotation
_RESTART = 32
# kernel(z, w_plus, w_minus) -> (K_plus, K_minus, dK_plus, dK_minus)
_Kernel = Callable[[float, float, float], tuple[float, float, float, float]]
# the odd order of ``_small_z_kernel``: within 7.3e-16 relative of mpmath up to
# z = 0.6, but 1.7e-14 at z = 0.8, so a higher crossover needs a higher order
_SMALL_Z_ORDER = 13
# (x_i^2, 2 W_i) over the 8 positive nodes x_i of the order-16 Gauss-Hermite
# rule, smallest weight first, for ``_gauss_kernel``: 50-digit mpmath
# (Golub-Welsch, then Newton on the normalised Hermite recurrence), rounded once
_GAUSS_RULE = (
    (float.fromhex("0x1.5fbf94e0e468dp+4"), float.fromhex("0x1.23e62febce393p-31")),
    (float.fromhex("0x1.df1fc2d7ffd78p+3"), float.fromhex("0x1.f26d457674892p-22")),
    (float.fromhex("0x1.42fc81eea0951p+3"), float.fromhex("0x1.c6f9810be5860p-15")),
    (float.fromhex("0x1.9eebdacdca993p+2"), float.fromhex("0x1.e8c90a9ef9aa7p-10")),
    (float.fromhex("0x1.e79cebe1bb3b6p+1"), float.fromhex("0x1.a60fe26755d4fp-6")),
    (float.fromhex("0x1.e7b586f59fa88p+0"), float.fromhex("0x1.574932ae292a7p-3")),
    (float.fromhex("0x1.5ac0647566296p-1"), float.fromhex("0x1.1f620c20579f4p-1")),
    (float.fromhex("0x1.3258f91c2758ap-4"), float.fromhex("0x1.040f552a19f20p+0")),
)
_GAUSS_NODES = len(_GAUSS_RULE)
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


def _kernel(z: float, w_plus: float, w_minus: float) -> tuple[float, float, float, float]:
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

    Each node costs one exp and a division per kernel: (sinh t, cosh t)
    steps from node to node by the hyperbolic rotation

        sinh(t + h) = sinh t + (sinh t (cosh h - 1) + cosh t sinh h),
        cosh(t + h) = cosh t + (cosh t (cosh h - 1) + sinh t sinh h),

    with cosh h - 1 = 2 sinh^2(h/2) taken without cancellation.  Rounded
    cosh h and sinh h would make the pair drift by about one unit of
    rounding per node, enough to move K by 8e-16 at z = 170; in this form
    the step's own rounding adds only about h units per node.  Every
    ``_RESTART`` nodes the pair is taken afresh from sinh and cosh, and the
    block's partial sums join the totals.  Against 40-digit mpmath, K,
    rounding included, stayed within 8.4e-16 relative over 300 seeded
    calls, z log-uniform over [1e-300, 1e16].  A call takes at most 21
    nodes for z >= 1, 39 for z >= 1e-2, 131 for z >= 1e-12 and 2,991 at
    the smallest positive double; past ``_NODE_BUDGET`` nodes it raises
    ConvergenceError before summing.
    """
    h, last, _, eps = _step(z)
    if last >= _NODE_BUDGET:
        raise ConvergenceError(
            f"the certified trapezoid step needs {last + 1} nodes at z={z!r}, "
            f"over the budget of {_NODE_BUDGET}"
        )
    exp, sinh, cosh = math.exp, math.sinh, math.cosh
    neg_z = -z
    step_s = sinh(h)
    half = sinh(0.5 * h)
    step_m = 2.0 * (half * half)  # cosh h - 1
    s, c = step_s, 1.0 + step_m
    # sums over the nodes t = k h >= 0, the t = 0 node weighted 1/2
    sum_plus = 0.5 / (1.0 + w_plus)
    sum_minus = 0.5 / (1.0 + w_minus)
    for first in range(1, last + 1, _RESTART):
        if first > 1:
            t = first * h
            s, c = sinh(t), cosh(t)
        part_plus = part_minus = 0.0
        for _ in range(min(_RESTART, last + 1 - first)):
            e = exp(neg_z * (s * s))
            part_plus += e / (c + w_plus)
            part_minus += e / (c + w_minus)
            s, c = s + (s * step_m + c * step_s), c + (c * step_m + s * step_s)
        sum_plus += part_plus
        sum_minus += part_minus
    return 2.0 * h * sum_plus, 2.0 * h * sum_minus, eps, eps


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
    h = 2 pi y / ln(4 M / eps) makes B <= eps/2.

    y = min(pi/4, sqrt(R0 / z)) is about where h peaks, since at large z
    ln M grows like z y^2; R0 = 55 ln 2 is the large-z limit of
    ln(2 min(pi, sqrt(pi/z)) / eps), within 0.01 of it wherever y < pi/4,
    that is for z > 16 R0 / pi^2, about 62.  At the cap y = pi/4,
    M = sqrt(2) pi e^{z/2}.  min(pi, sqrt(pi/u)) is formed as
    sqrt(pi) / max(1/sqrt(pi), sqrt(u)), which never divides by u = 0.

    The truncation: the nodes run to T = asinh(sqrt(Lambda / z)).  For
    t >= T, sinh^2 t >= S^2 + 2 S C (t - T), with S = sinh T and
    C = cosh T >= 1, and cosh t + w >= 1, so the nodes dropped on each side
    sum to at most h e^{-Lambda} / (1 - e^{-r}), r = 2 z S C h.  Over every
    positive double z, r >= 6.1, so Lambda = ln(4 h / eps) + 0.01 keeps
    both sides within eps/2.  Lambda lies in [35.8, 37.7], so T grows
    like log(1/z) as z -> 0.
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
    h = 2.0 * math.pi * y / log_ratio
    lam = math.log(4.0 * h / eps) + 0.01
    return h, int(math.asinh(math.sqrt(lam) / root_z) / h), y, eps


def _small_z_kernel(z: float, w_plus: float, w_minus: float) -> tuple[float, float, float, float]:
    """K(z, w_plus) and K(z, w_minus) by their convergent small-z series, and their last terms.

    The same kernels as ``_kernel``, exact for every z > 0 at infinite
    order; the auto route of ``expansion.cdf`` takes them below a measured
    crossover in z.  With s^2 = (1 - w)(1 + w) and the integral
    e^{z/2} K_0(z/2) of e^{-z sigma^2} / q (DLMF 10.32), K solves
    dK/dz = s^2 K - sqrt(pi/z) + w e^{z/2} K_0(z/2) from
    K(0, w) = 2 atan2(s, w) / s, so

        K(z, w) = e^{s^2 z} [2 atan2(s, w) / s - pi erf(s sqrt z) / s + w M],

    M = integral over [0, z] of e^{a t} K_0(t/2) dt, a = w^2 - 1/2.  The
    ascending series of K_0 (DLMF 10.31) turns M into
    sum_{n=0..13} z^{n+1} [U_n(a) - Lambda V_n(a)], Lambda = ln z - ln 4
    + gamma_E, which the function compiled by ``coeffs._small_z_horner``
    sums; Lambda is never formed as ln(z/4), which underflows at the
    smallest double.  Both factors stay smooth as s -> 0: atan2(s, w) / s
    tends to 1/w, and erf(y) / y is taken by its Taylor series below
    y = 1e-4.  The order 13 is ``_SMALL_Z_ORDER``, which must be odd.
    Each dK is the magnitude of the term n = 13, weighted as M enters K.
    The series converges, so this measures the truncation, but it is no
    bound: odd n holds only odd powers of a, so that term vanishes at
    w^2 = 1/2.  Below z = 0.5 the truncation lies far under the rounding
    of K.  No trapezoid node is used.
    """
    sums = _small_z_horner(_SMALL_Z_ORDER)
    root_z = math.sqrt(z)
    lam = math.log(z) - _LOG_4_MINUS_GAMMA
    y = z * z
    k_plus, dk_plus = _small_z_one(sums, z, root_z, lam, y, w_plus)
    k_minus, dk_minus = _small_z_one(sums, z, root_z, lam, y, w_minus)
    return k_plus, k_minus, dk_plus, dk_minus


def _small_z_one(
    sums: Callable[..., tuple[float, ...]], z: float, root_z: float, lam: float, y: float, w: float
) -> tuple[float, float]:
    """K(z, w) and its last term for ``_small_z_kernel``, given sqrt(z), Lambda and z^2."""
    s2 = (1.0 - w) * (1.0 + w)
    s = math.sqrt(s2)
    a = w * w - 0.5
    even_u, odd_u, even_v, odd_v, _, last_u, _, last_v, yk = sums(a * a, y)
    az = a * z
    m = z * ((even_u + az * odd_u) - lam * (even_v + az * odd_v))
    last = z * az * yk * (last_u - lam * last_v)
    arg = s * root_z
    if arg < 1e-4:
        ratio = _TWO_OVER_SQRT_PI * (1.0 - arg * arg / 3.0)  # erf(arg) / arg
    else:
        ratio = math.erf(arg) / arg
    angle = math.atan2(s, w) / s if s > 0.0 else 1.0 / w
    growth = math.exp(s2 * z)
    return growth * (2.0 * angle - math.pi * root_z * ratio + w * m), growth * w * abs(last)


def _gauss_kernel(z: float, w_plus: float, w_minus: float) -> tuple[float, float, float, float]:
    """K(z, w_plus) and K(z, w_minus) by the 8-node Gauss rule, and their error bound.

    In u = sigma^2, K(z, w) is the integral over u > 0 of u^{-1/2} e^{-z u}
    g(u), g(u) = 1 / (q (q + w)), q = sqrt(1 + u).  The Gauss rule for the
    weight u^{-1/2} e^{-z u} has the nodes x_i^2 / z, x_i the positive nodes
    of the order-16 Gauss-Hermite rule, so

        K(z, w) ~ z^{-1/2} sum_i 2 W_i / (q_i (q_i + w)),  q_i = sqrt(1 + x_i^2 / z).

    It is exact through the d-series term k = 15, and it converges where
    that series diverges: it is the Pade (Stieltjes) form of the same
    series.  For w in [0, 1], g is a Stieltjes function, so every even
    derivative of g is positive and, before rounding, the rule
    underestimates K.  Its relative error is largest at w = 0, where
    K(z, 0) = pi erfcx(sqrt z), and falls with z: 1.93e-17 at z = 30, where
    the auto route of ``expansion.cdf`` starts taking it (2^-53 is reached
    at z = 26.2), and 1.98e-20 at z = 50.  So each dK is 2^-53 K, one
    bound for every w, as on the trapezoid.  Both sums share each sqrt,
    and no node calls exp.
    """
    sqrt = math.sqrt
    sum_plus = sum_minus = 0.0
    for node, weight in _GAUSS_RULE:
        q = sqrt(1.0 + node / z)
        sum_plus += weight / (q * (q + w_plus))
        sum_minus += weight / (q * (q + w_minus))
    root = sqrt(z)
    k_plus = sum_plus / root
    k_minus = sum_minus / root
    return k_plus, k_minus, _TARGET_REL * k_plus, _TARGET_REL * k_minus


def cdf_quad_split(p: Parameters, x: float) -> float:
    """High-accuracy CDF by ``_split`` with the trapezoid ``_kernel``; valid for every z > 0.

    The kernel's step is certified in advance to 2^-53 of K.
    """
    return _evaluate(geometry(p, x), False, _kernel)[0]


def _split(g: Geometry, upper: bool, kernel: _Kernel) -> tuple[float, float, float]:
    """The exact erfc split at one geometry, each remainder K(z, w) taken from ``kernel``.

    With E = e^{z sigma_plus^2} <= 1, weights c = s E / (2 pi) for each part
    and sgn = sign(w_minus):

        F_plus  = 1/2 erfc(zeta_plus)  - c_plus K(z, w_plus)
        G_plus  = 1/2 erfc(-zeta_plus) + c_plus K(z, w_plus)
        F_minus = sgn [ 1/2 E erfcx(zeta_minus) - c_minus K(z, |w_minus|) ]

    so F = F_plus + F_minus and G = G_plus - F_minus; the erfcx form keeps
    both factors of (1/2) e^{2 gamma delta} erfc(zeta_minus) at or below
    one.  ``kernel(z, w_plus, |w_minus|)`` returns (K_plus, K_minus,
    dK_plus, dK_minus), dK its error measure; it is not called when both
    weights are 0.  The estimate is |c_plus| dK_plus + |c_minus| dK_minus.
    F_minus and c_minus are 0 where E underflows to 0, which makes both
    terms of F_minus exactly 0, and below ``_W_MINUS_NEGLIGIBLE``.  There
    F_minus is dropped, and E |w_minus| / pi joins the estimate: F_minus
    vanishes at w_minus = 0, s_minus moves only at second order in w_minus,
    and dK/dw(z, 0), the integral of -e^{-z sinh^2 t} / cosh^2 t, lies in
    [-2, 0), so |F_minus| <= E |w_minus| / pi + O(w_minus^2).  Returns
    (F_plus, or G_plus when ``upper``; F_minus; the estimate).
    """
    _, _, _, z, s_plus, s_minus, w_plus, signed_w_minus, zeta_plus, zeta_minus = g
    damp = math.exp(-z * (s_plus * s_plus))
    w_minus = abs(signed_w_minus)
    negligible = w_minus < _W_MINUS_NEGLIGIBLE or damp == 0.0
    c_plus = s_plus * damp / (2.0 * math.pi)
    c_minus = 0.0 if negligible else s_minus * damp / (2.0 * math.pi)
    k_plus = k_minus = dk_plus = dk_minus = 0.0
    if c_plus != 0.0 or c_minus != 0.0:
        k_plus, k_minus, dk_plus, dk_minus = kernel(z, w_plus, w_minus)
    if upper:
        plus = 0.5 * math.erfc(-zeta_plus) + c_plus * k_plus
    else:
        plus = 0.5 * math.erfc(zeta_plus) - c_plus * k_plus
    error = abs(c_plus) * dk_plus + abs(c_minus) * dk_minus
    if negligible:
        return plus, 0.0, error + damp * w_minus / math.pi
    minus = 0.5 * damp * _erfcx(zeta_minus) - c_minus * k_minus
    if signed_w_minus < 0.0:
        minus = -minus
    return plus, minus, error


def _evaluate(g: Geometry, upper: bool, kernel: _Kernel) -> tuple[float, float]:
    """F, or G when ``upper``, by ``_split`` clamped to [0, 1], and its error estimate.

    The estimate is the weighted kernel error of ``_split`` plus the
    distance by which the value was clamped.
    """
    plus, minus, error = _split(g, upper, kernel)
    raw = plus - minus if upper else plus + minus
    value = min(1.0, max(0.0, raw))
    return value, error + abs(raw - value)


def cdf_quad_direct(p: Parameters, x: float) -> float:
    """Independent CDF oracle: trapezoid on the steepest-descent integral.

    Only defined away from the transition: |nu - tau| <= 0.02 raises
    NearTransitionError because the integrand's poles pinch the contour
    there.  The same integral I serves both sides: F = I for nu > tau, and
    for nu < tau, where the contour has crossed the plus pole, F = 1 + I,
    the 1 being that pole's residue.
    """
    return _quad_direct(p, geometry(p, x))[0]


def _quad_direct(p: Parameters, g: Geometry) -> tuple[float, float]:
    """F at ``g`` by the direct integral of ``cdf_quad_direct``, and its error estimate.

    Halves the trapezoid step until one more halving changes the integral
    by at most ``_DIRECT_TOL``; the first level takes every node, each
    halving adds only the odd ones.  The estimate is that last change plus
    the distance by which F was clamped into [0, 1].
    """
    gap = g.nu - p.tau
    if abs(gap) <= _NEAR_TRANSITION_GAP:
        raise NearTransitionError(
            f"|nu - tau| = {abs(gap):.4g} is within {_NEAR_TRANSITION_GAP}; "
            "the split oracle handles the transition region"
        )
    aw = p.alpha * g.omega
    big_a = p.delta * p.gamma + p.beta * g.xi  # equals aw - z s_plus^2 <= aw
    sp2 = g.s_plus * g.s_plus
    sm2 = g.s_minus * g.s_minus
    sin_nu = p.delta / g.omega
    cos_nu = g.xi / g.omega
    cos_tau = p.beta / p.alpha

    def f(s: float) -> float:
        ch = math.cosh(s)
        sh2 = math.sinh(0.5 * s) ** 2
        # factored denominator: equal to (ch - cos tau cos nu)^2 - sin^2 tau sin^2 nu
        # but positive term by term, no cancellation
        den = 4.0 * (sh2 + sp2) * (sh2 + sm2)
        return math.exp(big_a - aw * ch) * sin_nu * (cos_tau * ch - cos_nu) / den

    tol = _DIRECT_TOL
    reach = math.log(10.0 / tol) + 10.0
    # |f(s)| <= (cosh s + 1)/(cosh s - 1)^2 ~ 2 e^{-s} whatever alpha omega, so past
    # s = reach the tail is below tol e^{-10}, even where reach / aw overflows
    S = min(reach, math.acosh(1.0 + reach / aw))
    h = min(0.25, 0.5 / math.sqrt(aw))
    total = 0.5 * f(0.0)
    stride = 1
    prev = math.nan
    for _ in range(15):  # the first level, then at most 14 halvings
        for k in range(1, int(S / h) + 1, stride):
            total += f(k * h)
        cur = h * total / math.pi  # 2 for evenness, over 2 pi
        change = abs(cur - prev)
        if change <= tol:
            raw = cur if gap > 0.0 else 1.0 + cur
            value = min(1.0, max(0.0, raw))
            return value, change + abs(raw - value)
        prev = cur
        h *= 0.5
        stride = 2
    raise ConvergenceError(
        f"direct-integral trapezoid did not stabilize to {tol:g} within 14 halvings"
    )


def reflect(p: Parameters, x: float) -> tuple[Parameters, float]:
    """Mirror the evaluation: F(x; p) = 1 - F(-x; reflected p).

    Flips the signs of beta and mu, negates x, and is its own inverse.
    Raises DomainError unless x is a finite real number.
    """
    return validate(p.alpha, -p.beta, -p.mu, p.delta), -_require_finite("x", x)
