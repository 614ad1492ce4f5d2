"""Exception types shared across the package."""

import math


class RevgeoError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(RevgeoError):
    """Constructor or operation received parameters outside its domain."""


class SingularAxisError(RevgeoError):
    """Quantity requested at a point where the surface meets the axis (R = 0)."""


class DomainError(RevgeoError):
    """Input lies outside the mathematical domain of the operation."""


class ForbiddenRegionError(DomainError):
    """Requested radial interval enters the energetically forbidden region."""


def _require_finite(**values):
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


class NonexistentGeodesicError(RevgeoError):
    """The requested closed geodesic provably does not exist."""


class ConvergenceError(RevgeoError):
    """An iterative solve failed to converge; carries the best iterate."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class IntegrationError(RevgeoError):
    """ODE integration failed; carries the partial trace when available."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class NoSolutionError(RevgeoError):
    """Two-point search exhausted its branch/winding candidates."""

    def __init__(self, message, branches_searched=()):
        super().__init__(message)
        self.branches_searched = tuple(branches_searched)
