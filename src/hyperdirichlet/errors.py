"""Exception hierarchy shared by all modules."""


class HyperDirichletError(Exception):
    """Base class for all package errors."""


class DomainError(HyperDirichletError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class PoleError(DomainError):
    """Evaluation requested exactly at a pole of a gamma-type function."""


class ConvergenceError(HyperDirichletError):
    """An iterative computation failed to reach its tolerance.

    Carries the best available estimate so callers can decide whether the
    partial result is still usable.
    """

    def __init__(self, message, value=None, error_estimate=None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


class QuadratureError(ConvergenceError):
    """Adaptive integration exhausted its subdivision budget."""

    def __init__(self, message, value=None, error_estimate=None, subdivisions_used=0):
        super().__init__(message, value=value, error_estimate=error_estimate)
        self.subdivisions_used = subdivisions_used


class EnvelopeError(DomainError):
    """A declared decay envelope cannot bound the integral tail below tolerance."""
