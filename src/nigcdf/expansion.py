"""Asymptotic evaluation of the CDF and its complement.

The CDF splits as F = F_plus + F_minus and the complement as
G = G_plus - F_minus.  F_plus and G_plus always use the uniform expansion,
whose leading term is an erfc of ``zeta_plus`` and which stays smooth
through the transition point.  F_minus has two interchangeable expansions:
a uniform one of the same shape (leading term built from erfcx so nothing
overflows) and a plain Laplace series; AUTO picks the uniform branch when
``w_minus >= 0.05`` and the Laplace branch otherwise, where the uniform
coefficients become ill-conditioned but the Laplace pole parameter sits
safely near -1.

Every evaluation goes through one kernel, ``_parts``, which takes a
``Geometry`` and computes the damping factor e^{z sigma_plus^2} and
2 sqrt(pi z) once for both parts; ``_expand`` turns its parts into F, G,
or G flipped to F.  The public functions are thin callers of it: they
check their arguments, build the geometry when given (p, x), and call it.

``cdf`` adds the evaluation policy: quadrature fallback for small z or
small ``w_minus``, and complement-first evaluation right of the transition
so the smaller of F and G is always the one computed directly.  It checks
every argument before routing, computes the geometry once, and hands it
to the expansion kernel or to the split oracle's ``_quad_split``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .coeffs import _check_kmax, _d_values, u_coefficients
from .errors import DomainError, UnreliableRegionError
from .params import Geometry, Parameters, geometry
from .special import erfc, erfcx
from . import oracle

__all__ = [
    "Method",
    "FMinusMode",
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
    LAPLACE_ASYM = "laplace_asym"
    QUAD_SPLIT = "quad_split"
    QUAD_DIRECT = "quad_direct"


class FMinusMode(Enum):
    UNIFORM = "uniform"
    LAPLACE = "laplace"
    AUTO = "auto"


@dataclass(frozen=True, slots=True)
class EvalResult:
    """One evaluation: probability, route taken, and an error estimate.

    ``error_estimate`` is, on the expansion routes, the summed magnitudes of
    the last retained series terms, a heuristic rather than a bound; on
    QUAD_SPLIT, the change of the weighted remainder kernels in the last
    quadrature level; on QUAD_DIRECT, the requested ``tol``.  Each includes
    the distance by which the value was clamped into [0, 1].
    ``complemented`` records that the value was produced as 1 minus the
    directly computed complement.
    """

    value: float
    method: Method
    kmax_used: int
    error_estimate: float
    complemented: bool = False


_METHODS = ("auto", "asym", "quad-split", "quad-direct")


def _check_mode(mode: FMinusMode) -> FMinusMode:
    if not isinstance(mode, FMinusMode):
        raise DomainError(f"unknown f_minus mode {mode!r}")
    return mode


def _series(pref: float, z: float, w: float, kmax: int) -> tuple[float, float]:
    """pref * sum_k d_k(w) / z^k and the magnitude of its last term."""
    total = 0.0
    last = 0.0
    zk = 1.0
    for dk in _d_values(w, kmax):
        last = dk / zk
        total += last
        zk *= z
    return pref * total, abs(pref * last)


def _f_minus_laplace(g: Geometry, damp: float, kmax: int) -> tuple[float, float]:
    """The Laplace series of F_minus and the magnitude of its last term."""
    # sin(nu + tau) = 2 s_minus w_minus exactly
    pref = damp * (2.0 * g.s_minus * g.w_minus) / (4.0 * math.pi) * math.sqrt(math.pi / g.z)
    total = 0.0
    last = 0.0
    zk = 1.0
    poch = 1.0
    for k, uk in enumerate(u_coefficients(g.sigma_minus_sq, kmax).values):
        if k > 0:
            poch *= k - 0.5
        last = uk * poch / zk
        total += last
        zk *= g.z
    return pref * total, abs(pref * last)


def _parts(
    g: Geometry, kmax: int, mode: FMinusMode, upper: bool
) -> tuple[float, float, float, float]:
    """The two parts of the expansions at one geometry, and their last terms.

    Returns (plus, F_minus, |last plus term|, |last minus term|), where plus
    is F_plus, or G_plus when ``upper``; F = F_plus + F_minus and
    G = G_plus - F_minus.  The uniform series of both parts share one
    damping factor e^{z sigma_plus^2} and one 2 sqrt(pi z); each prefactor
    is damp tan((nu -+ tau)/4) / (2 sqrt(pi z)), with the tangent evaluated
    as s/(1+w) (half-angle identity), which keeps the sign of s and stays
    smooth where s crosses zero.  ``kmax`` and ``mode`` must already be
    checked; w_plus >= w_minus, and the uniform minus part runs only for
    w_minus >= W_MINUS_MIN, so both series get a w in (0, 1].
    """
    z = g.z
    damp = math.exp(z * g.sigma_plus_sq)
    scale = 2.0 * math.sqrt(math.pi * z)
    series, last_plus = _series(damp * (g.s_plus / (1.0 + g.w_plus)) / scale, z, g.w_plus, kmax)
    if upper:
        plus = 0.5 * erfc(-g.zeta_plus) + series
    else:
        plus = 0.5 * erfc(g.zeta_plus) - series
    if mode is FMinusMode.LAPLACE or (mode is FMinusMode.AUTO and g.w_minus < W_MINUS_MIN):
        minus, last_minus = _f_minus_laplace(g, damp, kmax)
        return plus, minus, last_plus, last_minus
    if g.w_minus < W_MINUS_MIN:
        raise UnreliableRegionError(
            f"uniform minus-part coefficients are unreliable for w_minus = "
            f"{g.w_minus:.4g} < {W_MINUS_MIN}; use the Laplace mode or quadrature"
        )
    series, last_minus = _series(
        damp * (g.s_minus / (1.0 + g.w_minus)) / scale, z, g.w_minus, kmax
    )
    # equal to (1/2) e^{2 gamma delta} erfc(zeta_minus), written so both
    # factors stay at or below one
    minus = 0.5 * damp * erfcx(g.zeta_minus) - series
    return plus, minus, last_plus, last_minus


def _expand(
    g: Geometry, kmax: int, mode: FMinusMode, upper: bool, complemented: bool
) -> EvalResult:
    """F (or G when ``upper``) by the expansions, clamped to [0, 1].

    With ``complemented`` the G so computed is returned flipped to F.
    """
    plus, minus, last_plus, last_minus = _parts(g, kmax, mode, upper)
    raw = plus - minus if upper else plus + minus
    value = min(1.0, max(0.0, raw))
    error = last_plus + last_minus + abs(raw - value)
    method = Method.LAPLACE_ASYM if mode is FMinusMode.LAPLACE else Method.UNIFORM_ASYM
    if complemented:
        value = 1.0 - value
    return EvalResult(value, method, kmax, error, complemented)


def f_plus_asym(g: Geometry, kmax: int = DEFAULT_KMAX) -> float:
    """Uniform expansion of the plus part; leading term erfc(zeta_plus)/2."""
    return _parts(g, _check_kmax(kmax), FMinusMode.AUTO, False)[0]


def g_plus_asym(g: Geometry, kmax: int = DEFAULT_KMAX) -> float:
    """Uniform expansion of the complement's plus part.

    Satisfies f_plus_asym + g_plus_asym = 1 up to rounding: the erfc halves
    are complementary and the series corrections cancel exactly.
    """
    return _parts(g, _check_kmax(kmax), FMinusMode.AUTO, True)[0]


def f_minus_asym(
    g: Geometry, kmax: int = DEFAULT_KMAX, mode: FMinusMode = FMinusMode.AUTO
) -> float:
    """The small minus-part correction, by either expansion.

    AUTO picks the uniform branch for ``w_minus >= 0.05`` and the Laplace
    branch below.  Forced UNIFORM raises UnreliableRegionError when
    ``w_minus < 0.05``; forced LAPLACE always evaluates, though its quality
    degrades as ``s_minus`` shrinks (the caller sees that through the
    last-term size).
    """
    return _parts(g, _check_kmax(kmax), _check_mode(mode), False)[1]


def cdf_asym(
    p: Parameters,
    x: float,
    kmax: int = DEFAULT_KMAX,
    f_minus_mode: FMinusMode = FMinusMode.AUTO,
) -> EvalResult:
    """F by the asymptotic expansions alone, clamped to [0, 1]."""
    kmax, mode = _check_kmax(kmax), _check_mode(f_minus_mode)
    return _expand(geometry(p, x), kmax, mode, False, False)


def sf_asym(
    p: Parameters,
    x: float,
    kmax: int = DEFAULT_KMAX,
    f_minus_mode: FMinusMode = FMinusMode.AUTO,
) -> EvalResult:
    """G = 1 - F by the asymptotic expansions alone, clamped to [0, 1]."""
    kmax, mode = _check_kmax(kmax), _check_mode(f_minus_mode)
    return _expand(geometry(p, x), kmax, mode, True, False)


def cdf(
    p: Parameters,
    x: float,
    method: str = "auto",
    kmax: int = DEFAULT_KMAX,
    tol: float = oracle.DEFAULT_TOL,
    f_minus_mode: FMinusMode = FMinusMode.AUTO,
) -> EvalResult:
    """F with route selection.

    ``auto``: quadrature when z < 30 or w_minus < 0.05 (asymptotics not
    trusted there), otherwise the expansions, evaluating the complement and
    flipping when x lies right of the transition point so the smaller
    function is the one computed.  ``asym``, ``quad-split``, ``quad-direct``
    force a route.  Every argument is checked before routing, whichever
    route the point takes; the geometry is computed once.
    """
    if method not in _METHODS:
        raise DomainError(
            f"unknown method {method!r}; expected auto, asym, quad-split, or quad-direct"
        )
    kmax = _check_kmax(kmax)
    mode = _check_mode(f_minus_mode)
    tol = oracle._check_tol(tol)
    if method == "quad-direct":
        return EvalResult(oracle.cdf_quad_direct(p, x, tol), Method.QUAD_DIRECT, 0, tol)
    g = geometry(p, x)
    if method == "asym":
        return _expand(g, kmax, mode, False, False)
    if method == "quad-split" or g.z < Z_MIN or g.w_minus < W_MINUS_MIN:
        value, error = oracle._quad_split(g, tol, oracle.QuadRule.TRAPEZOID_DECAY)
        return EvalResult(value, Method.QUAD_SPLIT, 0, error)
    right = x > g.x0
    return _expand(g, kmax, mode, right, right)
