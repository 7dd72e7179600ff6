"""Real-argument complementary error function and its scaled variant.

Double-precision erfc and erfcx, the only special functions the
expansions need, built on the C library's ``math.erfc``:

* ``erfc`` is ``math.erfc`` itself, after a finiteness check.
* ``erfcx`` on ``0 <= x <= 9`` is ``e^{x^2} * math.erfc(x)``, with a
  split-argument exponential so the rounding of ``x*x`` does not amplify.
* ``erfcx`` for ``x > 9`` is the divergent large-x series, truncated once
  terms fall under 1e-18, long before the smallest term; the product
  form would fail there, as erfc(x) goes subnormal and e^{x^2} overflows
  near x = 26.6.
* ``erfcx`` for ``x < 0`` goes through the reflection formula.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError

__all__ = ["erfc", "erfcx", "ERFCX_NEG_LIMIT"]

_SQRT_PI = math.sqrt(math.pi)

# e^{x^2} must stay at or below DBL_MAX/2 so that 2*e^{x^2} is representable
ERFCX_NEG_LIMIT = -math.sqrt(math.log(sys.float_info.max / 2.0))


def _check_finite(x: float) -> float:
    try:
        x = float(x)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"argument must be a real number, got {x!r}") from exc
    if not math.isfinite(x):
        raise DomainError(f"argument must be finite, got {x!r}")
    return x


def _split_exp(x: float) -> float:
    """e^{x^2} with the argument split for accuracy.

    ``x_h = round(512 x)/512`` makes ``x_h^2`` exact in double precision for
    the magnitudes used here, so the only rounding left sits in a correction
    factor near one.
    """
    xh = round(x * 512.0) / 512.0
    xl = x - xh
    return math.exp(xh * xh) * math.exp(xl * (x + xh))


def erfc(x: float) -> float:
    """Complementary error function for finite real x.

    Values lie in (0, 2) until the positive tail underflows near x = 27.3;
    beyond that the result is exactly 0.0 (x > 0) or 2.0 (x < 0).
    Relative accuracy is about 1e-15 wherever the result is normal.
    """
    return math.erfc(_check_finite(x))


def erfcx(x: float) -> float:
    """Scaled complementary error function e^{x^2} erfc(x).

    Never overflows for x >= 0.  For x < 0 it is computed by reflection and
    raises OverflowError once e^{x^2} leaves the double range, at
    x < ERFCX_NEG_LIMIT (about -26.6287).
    """
    x = _check_finite(x)
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
    if x >= 0.0:
        return _split_exp(x) * math.erfc(x)
    if x < ERFCX_NEG_LIMIT:
        raise OverflowError(
            f"erfcx({x}) exceeds the double range; defined only for x >= {ERFCX_NEG_LIMIT:.4f}"
        )
    return 2.0 * _split_exp(x) - erfcx(-x)
