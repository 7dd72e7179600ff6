"""Numeric evaluation of the expansion coefficients.

The ``d_k(w)`` weight the power series that accompanies the erfc leading
term of the uniform expansion, for both the plus part (w = w_plus) and the
signed minus part (w = |w_minus|).  They are generated by a short
recursion that matches the closed forms to about 1e-15 relative from
w = 1 down to w = 1e-13, below which the minus part is treated as zero;
the closed forms for k <= 4 serve as independent cross-checks in the
tests and the selftest.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError

__all__ = [
    "CoeffTable",
    "d_coefficients",
    "d_closed_form",
]


@dataclass(frozen=True, slots=True)
class CoeffTable:
    """Finite coefficient sequence for one pole parameter.

    The parameter is ``w = |cos((nu -+ tau)/2)|`` and values[0] is exactly 1.
    """

    pole_param: float
    values: tuple[float, ...]


def _check_kmax(kmax: int) -> int:
    if not isinstance(kmax, int) or isinstance(kmax, bool) or kmax < 0:
        raise DomainError(f"kmax must be a nonnegative integer, got {kmax!r}")
    return kmax


def _check_w(w: float) -> float:
    try:
        w = float(w)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"w must be a real number, got {w!r}") from exc
    if not (0.0 < w <= 1.0):
        raise DomainError(f"w must lie in (0, 1], got {w!r}")
    return w


def _d_values(w: float, kmax: int) -> list[float]:
    """d_0..d_kmax for a w in (0, 1] and kmax >= 0 that the caller has checked.

    The generating sequence is b_0 = w + w^2, b_1 = w + w^2/2, b_2 = -w^2/8,
    then b_{k+1} = -(k - 1/2) b_k / (k + 1); inverting the series gives
    c_0 = 1, c_k = -(1/b_0) sum_{j=1..k} b_j c_{k-j}, and finally
    d_k = (1/2)_k c_k with the Pochhammer factor kept as a running product.
    """
    b = [w + w * w, w + 0.5 * w * w, -w * w / 8.0]
    for k in range(2, kmax):
        b.append(-(k - 0.5) * b[k] / (k + 1))
    # b_0 = w(1 + w) vanishes only at w = 0, which the domain excludes
    b0 = b[0]
    c = [1.0]
    values = [1.0]
    poch = 1.0
    for k in range(1, kmax + 1):
        acc = 0.0
        for j in range(1, k + 1):
            acc += b[j] * c[k - j]
        ck = -acc / b0
        c.append(ck)
        poch *= k - 0.5
        values.append(poch * ck)
    return values


def d_coefficients(w: float, kmax: int) -> CoeffTable:
    """d_0..d_kmax by the series-inversion recursion of ``_d_values``.

    Checks ``0 < w <= 1`` and ``kmax >= 0`` and raises DomainError otherwise.
    """
    w = _check_w(w)
    kmax = _check_kmax(kmax)
    return CoeffTable(w, tuple(_d_values(w, kmax)))


def d_closed_form(w: float, k: int) -> float:
    """Explicit rational forms of d_k for k <= 4, used as test oracles."""
    w = _check_w(w)
    if not isinstance(k, int) or isinstance(k, bool) or not 0 <= k <= 4:
        raise DomainError(f"closed forms exist for 0 <= k <= 4 only, got {k!r}")
    u = w + 1.0
    if k == 0:
        return 1.0
    if k == 1:
        return -(w + 2.0) / (4.0 * u)
    if k == 2:
        return 3.0 * (3.0 * w * w + 9.0 * w + 8.0) / (32.0 * u * u)
    if k == 3:
        return -15.0 * (((5.0 * w + 20.0) * w + 29.0) * w + 16.0) / (128.0 * u**3)
    return 105.0 * ((((35.0 * w + 175.0) * w + 345.0) * w + 325.0) * w + 128.0) / (2048.0 * u**4)
