"""Exception hierarchy shared by all modules, and the finite-positive guard.

The CLI maps these onto its exit-code contract: usage errors exit 1,
precondition violations exit 2, verification failures exit 3 and
integrator failures exit 4.
"""
import math


class BiharmLabError(Exception):
    """Base class for all package errors."""


class DomainError(BiharmLabError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SizeError(BiharmLabError, ValueError):
    """A grid or field is too small for the requested stencil."""


def require_finite_positive(name: str, x: float):
    """Refuse (DomainError) anything but a finite positive number."""
    if not (math.isfinite(x) and x > 0):
        raise DomainError(f"{name} must be finite and positive, got {x}")


class PreconditionError(BiharmLabError):
    """A documented precondition of a verifier or solver does not hold."""


class IntegratorError(BiharmLabError):
    """Adaptive integration failed (step underflow or non-finite state)."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location
