"""Asymptotic evaluation of the CDF and its complement.

The CDF splits as F = F_plus + F_minus and the complement as
G = G_plus - F_minus.  Both parts use the uniform expansion: a leading erfc
term plus a power series in 1/z with coefficients d_k(w).  F_plus and
G_plus take erfc(-+zeta_plus), which stays smooth through the transition
point.  F_minus takes one signed form on both sides of w_minus = 0, the
same one the split oracle uses: sgn(w_minus) times its erfc term (built
from erfcx so nothing overflows) minus its series at |w_minus|, and zero
once |w_minus| is negligible.  The d_k are well conditioned down to the
smallest w this form uses.

Each series is summed by ``_series`` from the cached polynomial rows of
``coeffs._rows``, so no coefficient recursion runs per call; a forced
expansion at a z so small that the sum leaves the double range raises
DomainError naming z and kmax.

Every evaluation goes through one kernel, ``_parts``, which takes a
``Geometry`` and computes the damping factor e^{z sigma_plus^2} and
2 sqrt(pi z) once for both parts; ``_expand`` turns its parts into F, G,
or G flipped to F.  The public functions are thin callers of it: they
check their arguments, build the geometry when given (p, x), and call it.

``cdf`` adds the evaluation policy: quadrature fallback for small z or
small ``w_minus``, and complement-first evaluation right of the transition
so the smaller of F and G is always the one computed directly.  The
``W_MINUS_MIN`` gate is an accuracy gate of the fixed-order series, whose
error grows as w_minus nears zero, not a limit of the coefficients.  It
checks every argument before routing, computes the geometry once, and
hands it to the expansion kernel or to the split oracle's ``_quad_split``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .coeffs import _check_kmax, _rows
from .errors import DomainError
from .params import Geometry, Parameters, geometry
from .special import erfc, erfcx
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


class Method(Enum):
    UNIFORM_ASYM = "uniform_asym"
    QUAD_SPLIT = "quad_split"
    QUAD_DIRECT = "quad_direct"


@dataclass(frozen=True, slots=True)
class EvalResult:
    """One evaluation: probability, route taken, and an error estimate.

    ``error_estimate`` is, on the expansion routes, the summed magnitudes of
    the last retained series terms, a heuristic rather than a bound; on
    QUAD_SPLIT, the change of the weighted remainder kernels in the last
    quadrature level; on QUAD_DIRECT, the change of the integral in the
    last step halving.  Each includes the distance by which the value was
    clamped into [0, 1].  ``complemented`` records that the value was
    produced as 1 minus the directly computed complement.
    """

    value: float
    method: Method
    kmax_used: int
    error_estimate: float
    complemented: bool = False


_METHODS = ("auto", "asym", "quad-split", "quad-direct")


def _series(pref: float, z: float, w: float, kmax: int) -> tuple[float, float]:
    """pref * sum_k d_k(w) / z^k and the magnitude of its last term.

    With d_k(w) = P_k(w) / (1 + w)^k the series is pref * sum_k P_k(w) y^k,
    y = 1 / ((1 + w) z): Horner in y over the cached rows of
    ``coeffs._rows``, each row by Horner in w.  The last term is
    pref * P_kmax(w) * y^kmax.  Raises DomainError when either leaves the
    double range, which needs z far below Z_MIN: z below about 1e-55 at
    kmax = 5, or 1e-12 at kmax = 25.
    """
    y = 1.0 / ((1.0 + w) * z)
    rows = reversed(_rows(kmax))
    last = 0.0
    for c in next(rows):
        last = last * w + c
    total = last
    yk = 1.0
    for row in rows:
        p = 0.0
        for c in row:
            p = p * w + c
        total = total * y + p
        yk *= y
    series = pref * total
    tail = abs(pref * last) * yk
    if not math.isfinite(series + tail):
        raise DomainError(
            f"the expansion of order kmax={kmax} leaves the double range at z={z!r}"
        )
    return series, tail


def _parts(g: Geometry, kmax: int, upper: bool) -> tuple[float, float, float, float]:
    """The two parts of the expansions at one geometry, and their last terms.

    Returns (plus, F_minus, |last plus term|, |last minus term|), where plus
    is F_plus, or G_plus when ``upper``; F = F_plus + F_minus and
    G = G_plus - F_minus.  The series of both parts share one damping
    factor e^{z sigma_plus^2} and one 2 sqrt(pi z); each prefactor is
    damp tan((nu -+ tau)/4) / (2 sqrt(pi z)), with the tangent evaluated
    as s/(1+w) (half-angle identity), which keeps the sign of s and stays
    smooth where s crosses zero.  The minus part is sgn(w_minus) times its
    erfc term minus its series at |w_minus|, and 0 when |w_minus| is below
    the oracle's negligible level, so both series get a w in (0, 1].
    ``kmax`` must already be checked.
    """
    z = g.z
    damp = math.exp(z * g.sigma_plus_sq)
    scale = 2.0 * math.sqrt(math.pi * z)
    series, last_plus = _series(damp * (g.s_plus / (1.0 + g.w_plus)) / scale, z, g.w_plus, kmax)
    if upper:
        plus = 0.5 * erfc(-g.zeta_plus) + series
    else:
        plus = 0.5 * erfc(g.zeta_plus) - series
    w = abs(g.w_minus)
    if w < oracle._W_MINUS_NEGLIGIBLE:
        return plus, 0.0, last_plus, 0.0
    series, last_minus = _series(damp * (g.s_minus / (1.0 + w)) / scale, z, w, kmax)
    # equal to (1/2) e^{2 gamma delta} erfc(zeta_minus), written so both
    # factors stay at or below one
    minus = 0.5 * damp * erfcx(g.zeta_minus) - series
    if g.w_minus < 0.0:
        minus = -minus
    return plus, minus, last_plus, last_minus


def _expand(g: Geometry, kmax: int, upper: bool, complemented: bool) -> EvalResult:
    """F (or G when ``upper``) by the expansions, clamped to [0, 1].

    With ``complemented`` the G so computed is returned flipped to F.
    """
    plus, minus, last_plus, last_minus = _parts(g, kmax, upper)
    raw = plus - minus if upper else plus + minus
    value = min(1.0, max(0.0, raw))
    error = last_plus + last_minus + abs(raw - value)
    if complemented:
        value = 1.0 - value
    return EvalResult(value, Method.UNIFORM_ASYM, kmax, error, complemented)


def f_plus_asym(g: Geometry, kmax: int = DEFAULT_KMAX) -> float:
    """Uniform expansion of the plus part; leading term erfc(zeta_plus)/2."""
    return _parts(g, _check_kmax(kmax), False)[0]


def g_plus_asym(g: Geometry, kmax: int = DEFAULT_KMAX) -> float:
    """Uniform expansion of the complement's plus part.

    Satisfies f_plus_asym + g_plus_asym = 1 up to rounding: the erfc halves
    are complementary and the series corrections cancel exactly.
    """
    return _parts(g, _check_kmax(kmax), True)[0]


def f_minus_asym(g: Geometry, kmax: int = DEFAULT_KMAX) -> float:
    """The small minus-part correction by its signed uniform expansion.

    sgn(w_minus) times (1/2) e^{2 gamma delta} erfc(zeta_minus) minus the
    d-series at |w_minus|, on both sides of w_minus = 0; 0 where |w_minus|
    is negligible.  Its accuracy at a fixed ``kmax`` falls as w_minus nears
    zero, which is why ``cdf`` routes w_minus < W_MINUS_MIN to quadrature.
    """
    return _parts(g, _check_kmax(kmax), False)[1]


def cdf_asym(p: Parameters, x: float, kmax: int = DEFAULT_KMAX) -> EvalResult:
    """F by the asymptotic expansions alone, clamped to [0, 1]."""
    return _expand(geometry(p, x), _check_kmax(kmax), False, False)


def sf_asym(p: Parameters, x: float, kmax: int = DEFAULT_KMAX) -> EvalResult:
    """G = 1 - F by the asymptotic expansions alone, clamped to [0, 1]."""
    return _expand(geometry(p, x), _check_kmax(kmax), True, False)


def cdf(
    p: Parameters,
    x: float,
    method: str = "auto",
    kmax: int = DEFAULT_KMAX,
    tol: float = oracle.DEFAULT_TOL,
) -> EvalResult:
    """F with route selection.

    ``auto``: quadrature when z < Z_MIN or w_minus < W_MINUS_MIN, where the
    fixed-order series does not reach the accuracy of the quadrature,
    otherwise the expansions, evaluating the complement and flipping when
    x lies right of the transition point so the smaller function is the
    one computed.  ``asym``, ``quad-split``, ``quad-direct`` force a route;
    forced ``asym`` evaluates the same signed minus part at any w_minus.
    Every argument is checked before routing, whichever route the point
    takes; the geometry is computed once.
    """
    if method not in _METHODS:
        raise DomainError(
            f"unknown method {method!r}; expected auto, asym, quad-split, or quad-direct"
        )
    kmax = _check_kmax(kmax)
    tol = oracle._check_tol(tol)
    if method == "quad-direct":
        value, error = oracle._quad_direct(p, x, tol)
        return EvalResult(value, Method.QUAD_DIRECT, 0, error)
    g = geometry(p, x)
    if method == "asym":
        return _expand(g, kmax, False, False)
    if method == "quad-split" or g.z < Z_MIN or g.w_minus < W_MINUS_MIN:
        value, error = oracle._quad_split(g, tol)
        return EvalResult(value, Method.QUAD_SPLIT, 0, error)
    right = x > g.x0
    return _expand(g, kmax, right, right)
