"""The exact split of the CDF, and reference values by two quadrature routes.

``_split`` splits the CDF exactly into erfc terms plus two pole-free
remainder integrals K(z, w), valid for every point, the transition point
included.  It takes K from one of three kernels: the expansion's
asymptotic series, for large z; ``_small_z_kernel``, a convergent series
in z, which the auto route of ``expansion.cdf`` takes below z = 0.5; and
the trapezoid ``_kernel``, for the primary oracle ``cdf_quad_split`` and
the forced quad-split route at every z, so the oracle shares no series
with the routes it judges.

The small-z series is exact at infinite order: K(0, w) in closed form, an
erf term, and the integral M of e^{a t} K_0(t/2) over [0, z], summed from
the ascending series of K_0 (DLMF 10.31-10.32) by one straight-line
function compiled on first use.  At order 13 it stays within 7.3e-16
relative of mpmath up to z = 0.6.  On a shared 2-vCPU host a point took
about 14 us on it, against 18 to 50 us on the trapezoid below z = 0.5.

The trapezoid puts both integrals on one grid in ``t``, ``sigma = sinh(t)``:
the map turns the algebraic ``1/sigma^2`` tail into a double-exponential
one, so the truncation grows only like ``log(1/z)`` as z -> 0 (about 16 at
z = 1e-12, against 6e6 in sigma), and each step halving evaluates only the
new odd nodes.  Both kernels refine until their weighted change in F, the
error estimate the split reports, is at most tol/2.  A fixed node budget
bounds the work of every call: at the smallest tol, at most 29 node
evaluations for z >= 1, 77 for z >= 1e-2, 180 for z >= 1e-12 and 2,998 at
the smallest positive double.  This grid is the split oracle's only rule.

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
from .errors import ConvergenceError, DomainError, NearTransitionError
from .params import Geometry, Parameters, _require_finite, geometry, validate
from .special import _erfcx

__all__ = [
    "cdf_quad_split",
    "cdf_quad_direct",
    "reflect",
    "DEFAULT_TOL",
]

DEFAULT_TOL = 1e-12
_MIN_TOL = 1e-13
_NEAR_TRANSITION_GAP = 0.02
# below this |w_minus| the whole minus-part contribution is O(1e-13) and the
# two halves of the split cancel; treat it as zero instead of integrating
_W_MINUS_NEGLIGIBLE = 1e-13
# node evaluations allowed per trapezoid kernel call; at the smallest tol the
# kernels converge within 180 nodes for z >= 1e-12 and 2,998 at the smallest double z
_NODE_BUDGET = 4096
_Kernel = Callable[..., tuple[float, float, float, float]]
# ln 4 - gamma_E, so that Lambda = ln z - ln 4 + gamma_E of ``_small_z_kernel``
# is one subtraction from ln z
_LOG_4_MINUS_GAMMA = math.log(4.0) - 0.5772156649015329
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


def _check_tol(tol: float) -> float:
    tol = _require_finite("tol", tol)
    # F is a probability, so a tolerance above 1 asks for nothing
    if not _MIN_TOL <= tol <= 1.0:
        raise DomainError(f"tol must lie in [{_MIN_TOL:g}, 1], got {tol!r}")
    return tol


def _kernel(
    z: float, w_plus: float, w_minus: float, coef_plus: float, coef_minus: float, tol: float
) -> tuple[float, float, float, float]:
    """K(z, w_plus) and K(z, w_minus), the kernels of weights coef_plus and coef_minus in F.

    Returns both kernels and, after them, how much each changed in the
    last level: |K_h - K_2h| at the final step h.

    K(z, w) is the integral of e^{-z sigma^2} / (q (q + w)) over the real
    line, q = sqrt(1+sigma^2), for w in [0, 1].  ``tol`` is the absolute
    tolerance on F: both kernels are refined until one more level changes
    F by at most tol/2, |coef_plus| dK_plus + |coef_minus| dK_minus <= tol/2,
    the estimate that ``_split`` reports.
    The one rule evaluates both on one trapezoid grid in t, sigma = sinh(t):

        K(z, w) = integral of e^{-z sinh^2 t} / (cosh t + w) dt,

    whose integrand is even, and analytic and bounded in the strip
    |Im t| < pi/4, so the trapezoid rule converges geometrically in 1/h.
    Each node costs one sinh, one exp, one sqrt and a division per kernel;
    each halving adds only the odd nodes to the running sums, until the
    check has passed.  Past ``_NODE_BUDGET`` node evaluations the call
    raises ConvergenceError.  The grid is truncated at T = asinh(6/sqrt(z)),
    where the integrand has fallen to e^{-36}.  Past T,
    sinh^2 t >= sinh^2 T + 2 sinh T cosh T (t - T), so the dropped tail of K
    is at most e^{-36}/72, about 3e-18, and about 2e-17 of K at large z,
    far below any permitted tolerance.  The step starts at
    h0 = min(0.5, asinh(8/sqrt(z))/8), independent of T: the strip, not
    the span, sets the step at which the rule converges.  Cost per z:
    T/h0 is about 6 to 8 for z above 0.09, so a call takes at most 29
    nodes for z >= 1 and 77 for z >= 1e-2; below, T grows like log(1/z),
    to 180 nodes at most for z >= 1e-12, all at the smallest tol.
    """
    weight_plus, weight_minus, target = abs(coef_plus), abs(coef_minus), 0.5 * tol
    sinh, exp, sqrt = math.sinh, math.exp, math.sqrt
    neg_z = -z
    root_z = math.sqrt(z)
    trunc = math.asinh(6.0 / root_z)
    h = min(0.5, math.asinh(8.0 / root_z) / 8.0)
    # sums over the nodes t = k h >= 0, the t = 0 node weighted 1/2
    sum_plus = 0.5 / (1.0 + w_plus)
    sum_minus = 0.5 / (1.0 + w_minus)
    nodes = 1
    stride = 1  # the first level takes every node, each halving only the odd ones
    prev_plus = prev_minus = math.nan
    while True:
        last = int(trunc / h)
        nodes += len(range(1, last + 1, stride))
        if nodes > _NODE_BUDGET:
            raise ConvergenceError(
                f"trapezoid kernels did not stabilize to {target:g} within {_NODE_BUDGET} nodes"
            )
        for k in range(1, last + 1, stride):
            s = sinh(k * h)
            s2 = s * s
            e = exp(neg_z * s2)
            c = sqrt(1.0 + s2)
            sum_plus += e / (c + w_plus)
            sum_minus += e / (c + w_minus)
        cur_plus = 2.0 * h * sum_plus
        cur_minus = 2.0 * h * sum_minus
        dk_plus = abs(cur_plus - prev_plus)
        dk_minus = abs(cur_minus - prev_minus)
        if weight_plus * dk_plus + weight_minus * dk_minus <= target:
            return cur_plus, cur_minus, dk_plus, dk_minus
        prev_plus, prev_minus = cur_plus, cur_minus
        h *= 0.5
        stride = 2


def _small_z_kernel(
    z: float, w_plus: float, w_minus: float, coef_plus: float, coef_minus: float, order: int
) -> tuple[float, float, float, float]:
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
    sum_{n=0..order} z^{n+1} [U_n(a) - Lambda V_n(a)], Lambda = ln z - ln 4
    + gamma_E, which the function compiled by ``coeffs._small_z_horner``
    sums; Lambda is never formed as ln(z/4), which underflows at the
    smallest double.  Both factors stay smooth as s -> 0: atan2(s, w) / s
    tends to 1/w, and erf(y) / y is taken by its Taylor series below
    y = 1e-4.  ``order`` must be odd; the minus series is skipped when its
    weight c_minus is 0.  Each dK is the magnitude of the term n = order,
    weighted as M enters K.  The series converges, so this measures the
    truncation, but it is no bound: odd n holds only odd powers of a, so
    that term vanishes at w^2 = 1/2.  Below z = 0.5 the truncation lies far
    under the rounding of K.  No trapezoid node is used.
    """
    sums = _small_z_horner(order)
    root_z = math.sqrt(z)
    lam = math.log(z) - _LOG_4_MINUS_GAMMA
    y = z * z
    k_plus, dk_plus = _small_z_one(sums, z, root_z, lam, y, w_plus)
    k_minus = dk_minus = 0.0
    if coef_minus != 0.0:
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


def cdf_quad_split(p: Parameters, x: float, tol: float = DEFAULT_TOL) -> float:
    """High-accuracy CDF by ``_split`` with the trapezoid ``_kernel``; valid for every z > 0."""
    return _evaluate(geometry(p, x), False, _kernel, _check_tol(tol))[0]


def _split(g: Geometry, upper: bool, kernel: _Kernel, arg: float) -> tuple[float, float, float]:
    """The exact erfc split at one geometry, each remainder K(z, w) taken from ``kernel``.

    With E = e^{z sigma_plus^2} <= 1, weights c = s E / (2 pi) for each part
    and sgn = sign(w_minus):

        F_plus  = 1/2 erfc(zeta_plus)  - c_plus K(z, w_plus)
        G_plus  = 1/2 erfc(-zeta_plus) + c_plus K(z, w_plus)
        F_minus = sgn [ 1/2 E erfcx(zeta_minus) - c_minus K(z, |w_minus|) ]

    so F = F_plus + F_minus and G = G_plus - F_minus; the erfcx form keeps
    both factors of (1/2) e^{2 gamma delta} erfc(zeta_minus) at or below
    one.  Below ``_W_MINUS_NEGLIGIBLE`` F_minus is 0 and c_minus is 0.
    ``kernel(z, w_plus, |w_minus|, c_plus, c_minus, arg)`` returns
    (K_plus, K_minus, dK_plus, dK_minus), dK its error measure; it is not
    called when both weights are 0.  ``arg``, already checked, is ``tol``
    for ``_kernel`` and ``kmax`` for the series kernel.  Returns (F_plus,
    or G_plus when ``upper``; F_minus; |c_plus| dK_plus + |c_minus| dK_minus).
    """
    damp = math.exp(-g.z * (g.s_plus * g.s_plus))
    w_minus = abs(g.w_minus)
    negligible = w_minus < _W_MINUS_NEGLIGIBLE
    c_plus = g.s_plus * damp / (2.0 * math.pi)
    c_minus = 0.0 if negligible else g.s_minus * damp / (2.0 * math.pi)
    k_plus = k_minus = dk_plus = dk_minus = 0.0
    if c_plus != 0.0 or c_minus != 0.0:
        k_plus, k_minus, dk_plus, dk_minus = kernel(g.z, g.w_plus, w_minus, c_plus, c_minus, arg)
    if upper:
        plus = 0.5 * math.erfc(-g.zeta_plus) + c_plus * k_plus
    else:
        plus = 0.5 * math.erfc(g.zeta_plus) - c_plus * k_plus
    minus = 0.0
    if not negligible:
        minus = 0.5 * damp * _erfcx(g.zeta_minus) - c_minus * k_minus
        if g.w_minus < 0.0:
            minus = -minus
    return plus, minus, abs(c_plus) * dk_plus + abs(c_minus) * dk_minus


def _evaluate(g: Geometry, upper: bool, kernel: _Kernel, arg: float) -> tuple[float, float]:
    """F, or G when ``upper``, by ``_split`` clamped to [0, 1], and its error estimate.

    The estimate is the weighted kernel error of ``_split`` plus the
    distance by which the value was clamped.
    """
    plus, minus, error = _split(g, upper, kernel, arg)
    raw = plus - minus if upper else plus + minus
    value = min(1.0, max(0.0, raw))
    return value, error + abs(raw - value)


def cdf_quad_direct(p: Parameters, x: float, tol: float = DEFAULT_TOL) -> float:
    """Independent CDF oracle: trapezoid on the steepest-descent integral.

    Only defined away from the transition: |nu - tau| <= 0.02 raises
    NearTransitionError because the integrand's poles pinch the contour
    there.  The same integral I serves both sides: F = I for nu > tau, and
    for nu < tau, where the contour has crossed the plus pole, F = 1 + I,
    the 1 being that pole's residue.
    """
    tol = _check_tol(tol)
    return _quad_direct(p, geometry(p, x), tol)[0]


def _quad_direct(p: Parameters, g: Geometry, tol: float) -> tuple[float, float]:
    """F at ``g`` by the direct integral of ``cdf_quad_direct``, and its error estimate.

    ``tol`` must already be checked.  Halves the trapezoid step until one
    more halving changes the integral by at most ``tol``; the first level
    takes every node, each halving adds only the odd ones.  The estimate is
    that last change plus the distance by which F was clamped into [0, 1].
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
    """
    return validate(p.alpha, -p.beta, -p.mu, p.delta), -x
