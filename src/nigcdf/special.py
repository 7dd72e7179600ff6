"""Real-argument complementary error function and its scaled variant.

Self-contained double-precision erfc and erfcx, the only special functions
the expansions need.  Three regimes for positive arguments:

* ``|x| < 0.5``: Maclaurin series of erf.
* ``0.5 <= x <= 9``: a trapezoidal (Poisson summation) representation of
  erfcx with an explicit closed-form pole correction; with step 0.45 the
  remaining error is below 1e-20.
* ``x > 9``: the divergent large-x series of erfcx, truncated once terms
  fall under 1e-18, long before the smallest term.

``erfc`` for ``x >= 0.5`` is assembled as ``erfcx(x) * exp(-x*x)`` with a
split-argument exponential so the rounding of ``x*x`` does not amplify.
Negative arguments go through the reflection formulas.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError

__all__ = ["erfc", "erfcx", "ERFCX_NEG_LIMIT"]

_SQRT_PI = math.sqrt(math.pi)
_TWO_OVER_SQRT_PI = 2.0 / _SQRT_PI
_TWO_PI = 2.0 * math.pi

# e^{x^2} must stay at or below DBL_MAX/2 so that 2*e^{x^2} is representable
ERFCX_NEG_LIMIT = -math.sqrt(math.log(sys.float_info.max / 2.0))

# past this |x| erfc(x) is below half the smallest subnormal and rounds to 0
# (erfc(27.3) is about 9e-326); the split exponential would overflow far out
_ERFC_UNDERFLOW = 27.3

# trapezoid representation: step and term count; e^{-(16*0.45)^2} ~ 3e-23
_H = 0.45
_K2H2 = tuple((k * _H) ** 2 for k in range(1, 16))
_EXP_K2H2 = tuple(math.exp(-v) for v in _K2H2)


def _check_finite(x: float) -> float:
    try:
        x = float(x)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"argument must be a real number, got {x!r}") from exc
    if not math.isfinite(x):
        raise DomainError(f"argument must be finite, got {x!r}")
    return x


def _split_exp(x: float, negate: bool) -> float:
    """e^{x^2} or e^{-x^2} with the argument split for accuracy.

    ``x_h = round(512 x)/512`` makes ``x_h^2`` exact in double precision for
    the magnitudes used here, so the only rounding left sits in a correction
    factor near one.
    """
    xh = round(x * 512.0) / 512.0
    xl = x - xh
    if negate:
        return math.exp(-xh * xh) * math.exp(-xl * (x + xh))
    return math.exp(xh * xh) * math.exp(xl * (x + xh))


def _erf_small(x: float) -> float:
    """Maclaurin series of erf, intended for |x| < 0.5."""
    x2 = x * x
    carrier = x
    total = x
    k = 1
    while True:
        carrier *= -x2 / k
        contrib = carrier / (2 * k + 1)
        total += contrib
        if abs(contrib) <= 1e-18 * abs(total):
            break
        k += 1
    return _TWO_OVER_SQRT_PI * total


def _erfcx_ge_half(x: float) -> float:
    """erfcx for x >= 0.5."""
    if x > 9.0:
        t = 0.5 / (x * x)
        term = 1.0
        total = 1.0
        k = 1
        while True:
            term *= -(2 * k - 1) * t
            total += term
            if abs(term) < 1e-18:
                break
            k += 1
        return total / (x * _SQRT_PI)
    x2 = x * x
    s = 0.0
    for k2h2, ek in zip(_K2H2, _EXP_K2H2):
        s += ek / (k2h2 + x2)
    # the sampled sum picks up the integrand's pole; remove it in closed form
    q = _TWO_PI * x / _H
    pole = 2.0 * math.exp(x2 - q) / (1.0 - math.exp(-q))
    return _H / (math.pi * x) + (2.0 * _H * x / math.pi) * s - pole


def erfc(x: float) -> float:
    """Complementary error function for finite real x.

    Values lie in (0, 2) until the positive tail underflows near x = 27.3;
    beyond that the result is exactly 0.0 (x > 0) or 2.0 (x < 0).
    Relative accuracy is about 1e-15 wherever the result is normal.
    """
    x = _check_finite(x)
    ax = abs(x)
    if ax < 0.5:
        return 1.0 - _erf_small(x)
    if ax > _ERFC_UNDERFLOW:
        return 0.0 if x > 0.0 else 2.0
    v = _erfcx_ge_half(ax) * _split_exp(ax, negate=True)
    return v if x > 0.0 else 2.0 - v


def erfcx(x: float) -> float:
    """Scaled complementary error function e^{x^2} erfc(x).

    Never overflows for x >= 0.  For x < 0 it is computed by reflection and
    raises OverflowError once e^{x^2} leaves the double range, at
    x < ERFCX_NEG_LIMIT (about -26.6287).
    """
    x = _check_finite(x)
    if x >= 0.5:
        return _erfcx_ge_half(x)
    if x >= 0.0:
        return _split_exp(x, negate=False) * (1.0 - _erf_small(x))
    if x < ERFCX_NEG_LIMIT:
        raise OverflowError(
            f"erfcx({x}) exceeds the double range; defined only for x >= {ERFCX_NEG_LIMIT:.4f}"
        )
    return 2.0 * _split_exp(x, negate=False) - erfcx(-x)
