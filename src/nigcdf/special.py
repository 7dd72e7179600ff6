"""Real-argument complementary error function and its scaled variant.

Double-precision erfc and erfcx, the only special functions the
expansions need, built on the C library's ``math.erfc``:

* ``erfc`` is ``math.erfc`` itself, after the real-number check of
  ``params``; ``oracle._split``, whose arguments are finite by
  construction, calls ``math.erfc`` and ``_erfcx`` unchecked.
* ``erfcx`` on ``0 <= x <= 26`` is ``e^{x^2} * math.erfc(x)``, with a
  split-argument exponential so the rounding of ``x*x`` does not amplify:
  the split point is 512 x rounded to an integer, by adding and subtracting
  1.5 * 2^52, over 512.  Doubles near 1.5 * 2^52 are spaced by 1, so the sum
  rounds half to even, as ``round`` does, and gives the same double.  Both
  factors stay normal and finite there (erfc(26) is about 6e-296).
* ``erfcx`` for ``x > 26`` is the first nine terms of the divergent
  large-x series (DLMF 7.12.1), one loop-free Horner polynomial in
  ``1/(2 x^2)``; the first dropped term is below 3e-21 relative.  The
  product form would fail further out, as erfc(x) goes subnormal and
  e^{x^2} overflows near x = 26.6.  ``_erfcx`` is these two, unchecked.
* ``erfcx`` refuses ``x < 0``: the split's zeta_minus is never negative.
"""

import math

from .errors import DomainError
from .params import _require_finite

__all__ = ["erfc", "erfcx"]

_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
# 1.5 * 2^52: for 0 <= v < 2^51, v + _ROUND lies in [2^52, 2^53), where the
# spacing of doubles is 1, so (v + _ROUND) - _ROUND is v rounded half to even
_ROUND = 1.5 * 2.0**52
_exp, _erfc = math.exp, math.erfc


def erfc(x: float) -> float:
    """Complementary error function for finite real x; DomainError otherwise.

    Values lie in (0, 2) until the positive tail underflows near x = 27.3;
    beyond that the result is exactly 0.0 (x > 0) or 2.0 (x < 0).
    Relative accuracy is about 1e-15 wherever the result is normal.
    """
    return math.erfc(_require_finite("x", x))


def erfcx(x: float) -> float:
    """Scaled complementary error function e^{x^2} erfc(x) for finite real x >= 0.

    Never overflows; raises DomainError for x < 0 and for a non-finite x.
    """
    x = _require_finite("x", x)
    if x < 0.0:
        raise DomainError(f"erfcx is defined here for x >= 0 only, got {x!r}")
    return _erfcx(x)


def _erfcx(x: float) -> float:
    """e^{x^2} erfc(x) for a float x >= 0, unchecked; never overflows.

    The product form on [0, 26]; above, sum_{k<=8} (-1)^k (2k-1)!! t^k
    / (x sqrt(pi)), t = 1/(2 x^2), by Horner.  Against 40-digit mpmath the
    worst relative error seen is 4.6e-16 on [0, 26] and 2.5e-16 on [26, 1e300].
    Once x*x overflows, t is 0 and the value is 1/(x sqrt(pi)).  The product
    form takes e^{x^2} with the argument split: x_h, x rounded to a
    multiple of 1/512, makes ``x_h^2`` exact in double precision for
    x <= 26, so the only rounding left sits in a correction factor near one.
    x_h is ``((512 x + _ROUND) - _ROUND) / 512``: 512 x <= 13,312 is exact,
    and the sum lies in [2^52, 2^53), where the spacing of doubles is 1, so
    it rounds 512 x to an integer half to even, as ``round`` does, and the
    subtraction is exact; x_h is the double ``round(512 x) / 512`` gives,
    without building an int.
    """
    if x > 26.0:
        t = 0.5 / (x * x)
        poly = 1.0 + t * (-1.0 + t * (3.0 + t * (-15.0 + t * (105.0 + t * (
            -945.0 + t * (10395.0 + t * (-135135.0 + t * 2027025.0)))))))
        # x * sqrt(pi) would overflow for x above DBL_MAX / sqrt(pi)
        return poly * _INV_SQRT_PI / x
    xh = ((x * 512.0 + _ROUND) - _ROUND) / 512.0
    xl = x - xh
    return _exp(xh * xh) * _exp(xl * (x + xh)) * _erfc(x)
