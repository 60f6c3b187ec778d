"""Verification reports: margin fields reduced to deterministic pass/fail.

Every verdict follows from the numbers a report prints, by one rule written
once, in ``VerificationReport.passed``: a check passes when its worst margin
satisfies min_margin >= -tol * scale, or |min_margin| <= tol * scale for a
two-sided (identity) check, and a check that does not apply has no verdict.
Changing ``tol`` (the CLI's --tol) therefore re-derives the verdict.  The
worst margin and its coordinates come from ``worst_node``; reports keep the
full margin field for serialization but take their statistics over the
trimmed region.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import TRIM_NODES, Field

#: margins built from first-order quantities (values, first derivatives)
TOL_FIRST_ORDER = 1e-8
#: margins involving a Laplacian of a derived field (two extra derivative orders)
TOL_SECOND_ORDER = 1e-6
#: discrete residual (relative) above which the checks that need solutions refuse to run
RESIDUAL_THRESHOLD = 1e-3


def refusing_overflow(verifier):
    """``verifier`` with NumPy's overflow and invalid-value warnings off.

    A field past the float range then turns into inf or NaN without a
    warning, and the Field the verifier builds its margin into refuses it
    (DomainError): the refusal reports it, not a warning on stderr.
    """
    return np.errstate(over="ignore", invalid="ignore")(verifier)


@dataclass
class VerificationReport:
    """Outcome of one pointwise inequality check."""

    inequality: str
    params: dict
    min_margin: float
    argmin_r: float
    tol: float
    scale: float
    margin: Field | None = None
    refinement_order: float | None = None
    caveats: list[str] = field(default_factory=list)
    argmin_t: float | None = None
    two_sided: bool = False
    applicable: bool = True

    @property
    def passed(self) -> bool | None:
        """The verdict: None when not applicable, else the pass rule."""
        if not self.applicable:
            return None
        if self.two_sided:
            return bool(abs(self.min_margin) <= self.tol * self.scale)
        return bool(self.min_margin >= -self.tol * self.scale)

    def to_dict(self) -> dict:
        out = {
            "inequality": self.inequality,
            "params": dict(self.params),
            "pass": self.passed,
            "min_margin": self.min_margin,
            "argmin_r": self.argmin_r,
            "tol": self.tol,
            "scale": self.scale,
            "refinement_order": self.refinement_order,
            "caveats": list(self.caveats),
        }
        if self.argmin_t is not None:
            out["argmin_t"] = self.argmin_t
        return out


def worst_node(margin: np.ndarray, r: np.ndarray, t: np.ndarray | None = None,
               two_sided: bool = False) -> dict:
    """The worst entry of a margin array with its coordinates.

    ``margin`` has r on its last axis and, when 2-D, t on its first.  The
    worst entry is the smallest, or for a two-sided check the largest in
    magnitude (its sign is kept).  Returns the report keywords min_margin,
    argmin_r and, when ``t`` is given, argmin_t.
    """
    flat = int(np.argmax(np.abs(margin)) if two_sided else np.argmin(margin))
    idx = np.unravel_index(flat, margin.shape)
    out = {"min_margin": float(margin[idx]), "argmin_r": float(r[idx[-1]])}
    if t is not None:
        out["argmin_t"] = float(t[idx[0]])
    return out


def report_from_margin(inequality: str, margin: Field, tol: float, scale: float,
                       params: dict, caveats: list[str] | None = None,
                       trim: int = TRIM_NODES, two_sided: bool = False) -> VerificationReport:
    """Reduce a margin field to a report over the trimmed interior.

    ``two_sided`` checks |margin| <= tol * scale (identity checks) instead of
    the one-sided margin >= -tol * scale.
    """
    sl = margin.grid.trim_slice(trim)
    return VerificationReport(
        inequality=inequality, params=params, tol=tol, scale=scale,
        margin=margin, caveats=list(caveats or []), two_sided=two_sided,
        **worst_node(margin.values[sl], margin.grid.r[sl], two_sided=two_sided))
