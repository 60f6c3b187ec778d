"""Exception hierarchy shared by all modules, and the input domain rules.

The CLI maps these onto its exit-code contract: usage errors exit 1,
precondition violations exit 2, verification failures exit 3 and
integrator failures exit 4.

Each input's domain is written once, in the validators below; relations
between inputs stay with the formulas they guard.
"""
import math
from numbers import Integral

#: largest count (dimension, intervals, nodes, snapshots) any entry accepts;
#: 128 times the 32768-interval fine grid, and refused before any allocation
MAX_COUNT = 2**22


class BiharmLabError(Exception):
    """Base class for all package errors."""


class DomainError(BiharmLabError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SizeError(BiharmLabError, ValueError):
    """A grid or field is too small for the requested stencil."""


def require_above(name: str, x: float, bound: float = 0.0) -> float:
    """Refuse (DomainError) anything but a finite real x > bound; returns x."""
    if not (math.isfinite(x) and x > bound):
        rule = "positive" if bound == 0 else f"> {bound:g}"
        raise DomainError(f"{name} must be finite and {rule}, got {x}")
    return x


def require_in(name: str, x: float, lo: float = -math.inf, hi: float = math.inf) -> float:
    """Refuse (DomainError) anything but a finite real x with lo <= x < hi; returns x."""
    if not (math.isfinite(x) and lo <= x < hi):
        rule = "nonnegative" if (lo, hi) == (0, math.inf) else f"in [{lo:g}, {hi:g})"
        raise DomainError(f"{name} must be finite and {rule}, got {x}")
    return x


def require_count(name: str, x: int, lo: int, error: type = SizeError) -> int:
    """Refuse (``error``) anything but an integer, not bool, lo <= x <= MAX_COUNT; returns x."""
    if isinstance(x, bool) or not isinstance(x, Integral) or not lo <= x <= MAX_COUNT:
        raise error(f"{name} must be an integer in [{lo}, {MAX_COUNT}], got {x!r}")
    return x


class PreconditionError(BiharmLabError):
    """A documented precondition of a verifier or solver does not hold."""


class IntegratorError(BiharmLabError):
    """Adaptive integration failed (step underflow or non-finite state)."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location
