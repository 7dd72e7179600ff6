"""Normal inverse Gaussian CDF by uniform asymptotic expansions.

Evaluates F(x; alpha, beta, mu, delta) and its complement G = 1 - F by the
exact erfc split of the uniform asymptotic expansion, whose minus part takes
one signed form on both sides of w_minus = 0.  The automatic route, ``cdf``,
sums the split's remainder integrals by rules certified to rounding, an
8-node Gauss rule from z = 30; the paper's series serve ``cdf_asym`` and
``sf_asym``, and two independent quadrature oracles serve for validation.
"""

from .coeffs import d_closed_form, d_coefficients
from .errors import ConvergenceError, DomainError, NearTransitionError, NigError
from .expansion import (
    DEFAULT_KMAX,
    EvalResult,
    Method,
    cdf,
    cdf_asym,
    sf_asym,
)
from .oracle import cdf_quad_direct, cdf_quad_split, reflect
from .params import Geometry, Parameters, geometry, transition_point, validate
from .special import erfc, erfcx

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DEFAULT_KMAX",
    "DomainError",
    "EvalResult",
    "Geometry",
    "Method",
    "NearTransitionError",
    "NigError",
    "Parameters",
    "cdf",
    "cdf_asym",
    "cdf_quad_direct",
    "cdf_quad_split",
    "d_closed_form",
    "d_coefficients",
    "erfc",
    "erfcx",
    "geometry",
    "reflect",
    "sf_asym",
    "transition_point",
    "validate",
]
