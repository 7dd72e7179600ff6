"""Exception hierarchy shared by all modules."""


class NigError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(NigError, ValueError):
    """An input falls outside the mathematical domain of an operation."""


class NearTransitionError(NigError):
    """The direct quadrature was asked to evaluate too close to nu = tau.

    The integrand's poles approach the contour there; the split oracle
    remains valid and should be used instead.
    """
