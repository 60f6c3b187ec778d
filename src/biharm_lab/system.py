"""The mixed-sign radial system lap u = v^rexp, lap v = -u^(-q).

Positive solutions obey the component comparison
v^(rexp+1)/(rexp+1) >= u^(1-q)/(q-1), equivalently w = l u^sigma - v <= 0
with sigma = (1-q)/(rexp+1) < 0 and l = (-sigma)^(-1/(rexp+1)).  The module
solves the system by the shared shooting kernel and verifies the comparison,
the differential inequality satisfied by w, and the scalar concavity step
used where w would be positive.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._backend import radial_ivp
from .biharmonic import (POSITIVE, POSITIVITY_FLOOR, Classification,
                         _profile_from_arrays)
from .errors import DomainError, PreconditionError
from .grids import Field, RadialGrid, laplacian_values, laplacian_with_derivative
from .reports import (TOL_FIRST_ORDER, TOL_SECOND_ORDER, VerificationReport,
                      report_from_margin)

#: discrete residual (relative) above which w-based checks refuse to run
RESIDUAL_THRESHOLD = 1e-3


def sigma_exponent(q: float, rexp: float) -> float:
    if not q > 1 or not rexp > 0:
        raise DomainError(f"needs q > 1 and rexp > 0, got q = {q}, rexp = {rexp}")
    return (1.0 - q) / (rexp + 1.0)


def comparison_factor(q: float, rexp: float) -> float:
    """l = (-sigma)^(-1/(rexp+1)); satisfies l^(rexp+1) (-sigma) = 1."""
    return (-sigma_exponent(q, rexp)) ** (-1.0 / (rexp + 1.0))


@dataclass
class SystemProfile:
    """Positive radial pair (u, v) with exponents (q, rexp) on a window."""

    grid: RadialGrid
    u: Field
    v: Field
    du: Field
    dv: Field
    q: float
    rexp: float
    meta: dict
    classification: Classification

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def sigma(self) -> float:
        return sigma_exponent(self.q, self.rexp)

    @property
    def ell(self) -> float:
        return comparison_factor(self.q, self.rexp)

    @property
    def conforming(self) -> bool:
        return self.classification.kind == POSITIVE

    def require_positive(self):
        if not self.conforming:
            raise PreconditionError(
                f"system profile is {self.classification.kind}, not positive-on-window")

    def gap_field(self) -> Field:
        """w = l u^sigma - v; the comparison holds iff w <= 0."""
        w = self.ell * self.u.values**self.sigma - self.v.values
        return Field(self.grid, w)

    def residuals(self) -> tuple[Field, Field]:
        """Discrete defects (lap u - v^rexp, lap v + u^(-q))."""
        g = self.grid
        res_u = laplacian_with_derivative(self.u.values, self.du.values, g.h, g.n) \
            - self.v.values**self.rexp
        res_v = laplacian_with_derivative(self.v.values, self.dv.values, g.h, g.n) \
            + self.u.values**-self.q
        return Field(g, res_u), Field(g, res_v)

    def to_dict(self) -> dict:
        return {
            "grid": self.grid.to_dict(),
            "q": self.q, "rexp": self.rexp,
            "sigma": self.sigma, "ell": self.ell,
            "meta": dict(self.meta),
            "classification": self.classification.to_dict(),
            "u": self.u.values.tolist(), "v": self.v.values.tolist(),
            "du": self.du.values.tolist(), "dv": self.dv.values.tolist(),
        }

    def csv_rows(self):
        w = self.gap_field().values
        m = comparison_margin(self)
        ru, rv = self.residuals()
        for i, r in enumerate(self.grid.r):
            yield (r, self.u.values[i], self.v.values[i], w[i], m[i],
                   ru.values[i], rv.values[i])

    @classmethod
    def from_fields(cls, grid: RadialGrid, u: np.ndarray, v: np.ndarray,
                    q: float, rexp: float) -> "SystemProfile":
        """Wrap raw positive fields (wiring tests; not a solution)."""
        from .grids import derivative_values
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return cls(grid, Field(grid, u, positive=True), Field(grid, v, positive=True),
                   Field(grid, derivative_values(u, grid.h)),
                   Field(grid, derivative_values(v, grid.h)),
                   float(q), float(rexp), {"source": "fields"},
                   Classification(POSITIVE))


def solve_radial_system(n: int, q: float, rexp: float, u0: float, v0: float,
                        r_max: float, num_intervals: int = 2048,
                        rtol: float = 1e-9, atol: float = 1e-12) -> SystemProfile:
    """Shoot the coupled system outward from (u0, v0) and classify the window."""
    if u0 <= 0 or v0 <= 0:
        raise DomainError(f"initial values must be positive, got u0 = {u0}, v0 = {v0}")
    if not rexp > 0:
        raise DomainError(f"rexp must be positive, got {rexp}")
    h = r_max / num_intervals
    u, du, v, dv, status, i_stop, r_event = radial_ivp(
        n, q, rexp, u0, v0, h, num_intervals, rtol=rtol, atol=atol,
        floor_frac=POSITIVITY_FLOOR)
    meta = {"n": n, "q": float(q), "rexp": float(rexp), "source": "shooting",
            "u0": float(u0), "v0": float(v0), "rtol": rtol}
    base = _profile_from_arrays(n, h, u, du, v, dv, status, i_stop, r_event, meta)
    return SystemProfile(base.grid, base.u, Field(base.grid, base.z.values,
                                                  positive=bool(np.all(base.z.values > 0))),
                         base.du, base.dz, float(q), float(rexp), meta,
                         base.classification)


def comparison_margin(profile: SystemProfile) -> np.ndarray:
    q, rexp = profile.q, profile.rexp
    return (profile.v.values ** (rexp + 1.0) / (rexp + 1.0)
            - profile.u.values ** (1.0 - q) / (q - 1.0))


def verify_component_comparison(profile: SystemProfile) -> VerificationReport:
    """Margin v^(rexp+1)/(rexp+1) - u^(1-q)/(q-1) >= 0 at every node.

    Purely algebraic in the fields; no growth hypothesis is imposed.
    """
    profile.require_positive()
    margin = comparison_margin(profile)
    q, rexp = profile.q, profile.rexp
    scale = max(1.0,
                float((profile.v.values ** (rexp + 1.0)).max() / (rexp + 1.0)),
                float((profile.u.values ** (1.0 - q)).max() / (q - 1.0)))
    return report_from_margin(
        "mixed-power-comparison", Field(profile.grid, margin),
        TOL_FIRST_ORDER, scale,
        {"n": profile.n, "q": q, "rexp": rexp}, trim=0)


def _require_solution(profile: SystemProfile):
    ru, rv = profile.residuals()
    sl = profile.grid.trim_slice()
    scale_u = max(1.0, float(np.abs(profile.v.values**profile.rexp).max()))
    scale_v = max(1.0, float(np.abs(profile.u.values**-profile.q).max()))
    du = float(np.abs(ru.values[sl]).max()) / scale_u
    dv = float(np.abs(rv.values[sl]).max()) / scale_v
    if max(du, dv) > RESIDUAL_THRESHOLD:
        raise PreconditionError(
            f"fields do not solve the system: relative residuals "
            f"({du:.3e}, {dv:.3e}) exceed {RESIDUAL_THRESHOLD}")


def gap_inequality_rhs(profile: SystemProfile) -> np.ndarray:
    """Algebraic side -l sigma u^(sigma-1) (l^rexp u^(sigma rexp) - v^rexp)."""
    sig, ell, rexp = profile.sigma, profile.ell, profile.rexp
    u, v = profile.u.values, profile.v.values
    return -ell * sig * u ** (sig - 1.0) * (ell**rexp * u ** (sig * rexp) - v**rexp)


def verify_gap_diff_inequality(profile: SystemProfile) -> VerificationReport:
    """Differential inequality lap w >= -l sigma u^(sigma-1) (l^r u^(sigma r) - v^r).

    Holds on solutions because the discarded term
    l sigma (sigma-1) u^(sigma-2) |grad u|^2 is nonnegative (sigma < 0).
    Requires the fields to solve the system to the residual threshold.
    """
    profile.require_positive()
    _require_solution(profile)
    g = profile.grid
    w = profile.gap_field().values
    lap_w = laplacian_values(w, g.h, g.n)
    rhs = gap_inequality_rhs(profile)
    scale = max(1.0, float(np.abs(lap_w[g.trim_slice()]).max()))
    return report_from_margin(
        "gap-differential-inequality", Field(g, lap_w - rhs),
        TOL_SECOND_ORDER, scale,
        {"n": profile.n, "q": profile.q, "rexp": profile.rexp})


def verify_concavity_step(profile: SystemProfile) -> VerificationReport:
    """Scalar power-gap step at nodes where the gap w is positive.

    For rexp < 1 (concavity of s^rexp): (w+v)^r - v^r - r w (v+w)^(r-1) >= 0;
    for rexp >= 1 (superadditivity): (v+w)^r - v^r - w^r >= 0.  Nodes with
    w <= 0 do not qualify; no qualifying nodes is a vacuous pass, the
    expected outcome on genuine solutions.
    """
    profile.require_positive()
    rexp = profile.rexp
    w = profile.gap_field().values
    v = profile.v.values
    qualifying = w > 0
    params = {"n": profile.n, "q": profile.q, "rexp": rexp,
              "qualifying_nodes": int(qualifying.sum())}
    if not np.any(qualifying):
        return VerificationReport(
            inequality="power-concavity-step", params=params, passed=True,
            min_margin=0.0, argmin_r=float("nan"), tol=TOL_FIRST_ORDER,
            scale=1.0, caveats=["vacuous: no nodes with positive gap"])
    wq, vq = w[qualifying], v[qualifying]
    rq = profile.grid.r[qualifying]
    if rexp < 1.0:
        margin = (wq + vq) ** rexp - vq**rexp - rexp * wq * (vq + wq) ** (rexp - 1.0)
    else:
        margin = (vq + wq) ** rexp - vq**rexp - wq**rexp
    scale = max(1.0, float(((wq + vq) ** rexp).max()))
    idx = int(np.argmin(margin))
    worst = float(margin[idx])
    return VerificationReport(
        inequality="power-concavity-step", params=params,
        passed=bool(worst >= -TOL_FIRST_ORDER * scale),
        min_margin=worst, argmin_r=float(rq[idx]),
        tol=TOL_FIRST_ORDER, scale=scale)
