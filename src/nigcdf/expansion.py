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

The public functions are thin callers: each checks its own arguments and
makes one call to ``oracle._evaluate(p, x, side, bands, edges)``, which
builds the geometry from (p, x), reads (kernel, method) from ``bands`` by
z and calls the split, whose kernel reports the work; ``cdf_asym`` and
``sf_asym`` pass one band, the series kernel at their kmax.  ``cdf(p, x)``
is the evaluation policy and takes no other argument: it gives each z band the
split with its own kernel, whatever w_minus, read from one table of bands
by their lower z edges, built at import: below z = 0.07 the convergent
series in z of ``oracle._small_z_kernel``, of order 8; from z = 30 a
Gauss rule from ``oracle._gauss_kernel``, of 8 nodes down to 1; between
the two the trapezoid of the quadrature oracle, one band per rung of its
step's ladder, each with its rung's kernel of ``oracle._RUNG_KERNELS``:
18 bands in all, below and between 17 edges.  Each Gauss band's node
count is the least that certifies 2^-53 K at its lower edge.  On
every band the complement is evaluated first right of the transition
point, where zeta_plus < 0, so the smaller of F and G is the one computed
directly.
The paper's series, at the order asked for, serves only ``cdf_asym`` and
``sf_asym``; the quadrature oracles have their own functions,
``oracle.cdf_quad_split`` and ``oracle.cdf_quad_direct``.
"""

import math

from .coeffs import _check_kmax, _row_values
from .errors import DomainError
from .oracle import EvalResult, Method, _evaluate
from .params import Parameters
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


def _series_kernel(kmax: int) -> oracle._Kernel:
    """The kernel of ``oracle._split`` that sums both remainders by their series to ``kmax``.

    K(z, w) ~ sqrt(pi/z) / (1 + w) * sum_k d_k(w) / z^k.  With
    d_k(w) = P_k(w) / (1 + w)^k the sum is sum_k P_k(w) y^k,
    y = 1 / ((1 + w) z), summed by Horner in y over the row values
    ``coeffs._row_values(w, kmax)`` from P_kmax down; each dK is the last
    term, sqrt(pi/z) / (1 + w) * P_kmax(w) * y^kmax, and the work is kmax.
    One sqrt(pi/z) serves both series.  The kernel raises DomainError when
    a series or its last term leaves the double range, which needs z far
    below 1: z below about 2e-56 at kmax = 5, or 7e-12 at kmax = 25,
    whatever w.  ``kmax`` must already be checked, as the rows past
    ``coeffs._KMAX_LIMIT`` are not finite.
    """

    def kernel(z: float, w_plus: float, w_minus: float) -> oracle._Sums:
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
        return k_plus, k_minus, last_plus, last_minus, kmax

    return kernel


def cdf_asym(p: Parameters, x: float, kmax: int = DEFAULT_KMAX) -> EvalResult:
    """F by the asymptotic expansions alone, clamped to [0, 1]."""
    band = (_series_kernel(_check_kmax(kmax)), Method.UNIFORM_ASYM)
    return _evaluate(p, x, False, (band,), ())


def sf_asym(p: Parameters, x: float, kmax: int = DEFAULT_KMAX) -> EvalResult:
    """G = 1 - F by the asymptotic expansions alone, clamped to [0, 1]."""
    band = (_series_kernel(_check_kmax(kmax)), Method.UNIFORM_ASYM)
    return _evaluate(p, x, True, (band,), ())


# the 18 z bands of ``cdf``: band i holds the z from _BAND_EDGES[i - 1] (from
# 0 for i = 0) up to _BAND_EDGES[i], and _BANDS[i] is its (kernel, method):
# the small-z series of order 8, the trapezoid on each of the 9 rungs
# of its ladder from oracle._SMALL_Z_LIMIT, each rung's band from its first
# double, then the Gauss rules of 8 nodes down to 1
_BAND_EDGES = (*oracle._RUNG_EDGES, *(edge for edge, _ in oracle._GAUSS_RULES))
_BANDS = (
    (oracle._small_z_kernel, Method.SMALL_Z_SERIES),
    *((kernel, Method.QUAD_SPLIT) for kernel in oracle._RUNG_KERNELS.values()),
    *((oracle._gauss_kernel(rule), Method.GAUSS_SPLIT) for _, rule in oracle._GAUSS_RULES),
)


def cdf(p: Parameters, x: float) -> EvalResult:
    """F by the evaluation policy.

    The split, whatever w_minus, with the kernel of its z band: below
    z = 0.07 the convergent small-z series (SMALL_Z_SERIES), which needs no
    quadrature node, summed to order 8; from z = 30 a Gauss rule
    (GAUSS_SPLIT) of the fewest nodes its band needs, 8 at z = 30 and 1
    from z = 6.72e7; between the two the trapezoid (QUAD_SPLIT) at the
    step of z's rung.  All three take each K to within
    2^-53 before rounding.  On every band the complement is evaluated and
    flipped when x lies right of the transition point (zeta_plus < 0), so
    the smaller function is the one computed.  Every split route calls its
    kernel as ``kernel(z, w_plus, |w_minus|)`` and reports the estimate and
    work described at ``EvalResult``.  One call to ``oracle._evaluate`` checks
    x, computes the geometry once and picks the band.  The other routes
    have their own functions: the paper's series to a chosen order in
    ``cdf_asym`` and ``sf_asym``, the quadrature oracles in
    ``oracle.cdf_quad_split`` and ``oracle.cdf_quad_direct``.
    """
    return _evaluate(p, x, None, _BANDS, _BAND_EDGES)
