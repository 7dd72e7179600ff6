"""Normal inverse Gaussian CDF by uniform asymptotic expansions.

Evaluates F(x; alpha, beta, mu, delta) and its complement G = 1 - F with an
erfc-based uniform asymptotic expansion, whose minus part takes one signed
form on both sides of w_minus = 0, backed by two independent quadrature
oracles for validation.
"""

from .coeffs import d_closed_form, d_coefficients
from .errors import ConvergenceError, DomainError, NearTransitionError, NigError
from .expansion import (
    DEFAULT_KMAX,
    EvalResult,
    Method,
    W_MINUS_MIN,
    Z_MIN,
    cdf,
    cdf_asym,
    sf_asym,
)
from .oracle import DEFAULT_TOL, cdf_quad_direct, cdf_quad_split, reflect
from .params import Geometry, Parameters, geometry, transition_point, validate
from .special import ERFCX_NEG_LIMIT, erfc, erfcx

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DEFAULT_KMAX",
    "DEFAULT_TOL",
    "DomainError",
    "ERFCX_NEG_LIMIT",
    "EvalResult",
    "Geometry",
    "Method",
    "NearTransitionError",
    "NigError",
    "Parameters",
    "W_MINUS_MIN",
    "Z_MIN",
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
