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


def require_power(name: str, x: float, y: float) -> float:
    """x ** y for a finite x > 0, refused (DomainError) unless it is finite and > 0.

    Python's float power raises past the float range and underflows to 0
    below it; either way the power has left the range its users compute in.
    """
    try:
        return require_above(name, x ** y)
    except OverflowError:
        raise DomainError(f"{name} must be finite and positive, got {x:g}**{y:g}, "
                          f"which overflows") from None


def require_spacing(name: str, h: float, weight: float) -> float:
    """Refuse (DomainError) a spacing unless h^2 and weight/h^2 are finite and > 0; returns h.

    Difference stencils divide by h^2 with weights up to ``weight``, and the
    shooting kernel's tolerance cap is proportional to h^2: a spacing whose
    square overflows or underflows leaves them without meaning.
    """
    h2 = require_above(name, h) * h
    if not (0.0 < h2 < math.inf and weight / h2 < math.inf):
        raise DomainError(f"{name} must have h^2 and {weight:g}/h^2 finite and positive, got {h}")
    return h


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
