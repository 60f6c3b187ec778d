"""The mixed-sign radial system lap u = v^rexp, lap v = -u^(-q).

Positive solutions obey the component comparison
v^(rexp+1)/(rexp+1) >= u^(1-q)/(q-1), equivalently w = l u^sigma - v <= 0
with sigma = (1-q)/(rexp+1) < 0 and l = (-sigma)^(-1/(rexp+1)).  A solution
is a shot of the shared kernel, whose profile SystemProfile reads as (u, v).
The module verifies the comparison, the differential inequality satisfied
by w, and the scalar concavity step used where w would be positive.
"""
from __future__ import annotations

import numpy as np

from ._backend import RTOL
from .biharmonic import POSITIVE, Classification, SolutionProfile, _shot_profile, residual
from .errors import PreconditionError, require_above
from .grids import STENCIL_NODES, Field, RadialGrid, derivative_values, laplacian_values
from .reports import (RESIDUAL_THRESHOLD, TOL_FIRST_ORDER, VerificationReport,
                      refusing_overflow, report_from_margin, worst_node)
from .verify import _second_order_report


def sigma_exponent(q: float, rexp: float) -> float:
    return (1.0 - require_above("q", q, 1.0)) / (require_above("rexp", rexp) + 1.0)


def comparison_factor(q: float, rexp: float) -> float:
    """l = (-sigma)^(-1/(rexp+1)); satisfies l^(rexp+1) (-sigma) = 1."""
    return (-sigma_exponent(q, rexp)) ** (-1.0 / (rexp + 1.0))


class SystemProfile(SolutionProfile):
    """A profile read as the system's pair (u, v): v and v' are its z and z'.

    The exponents are meta["q"] and meta["rexp"].  A shot's profile becomes
    one by SystemProfile(**vars(profile)).
    """

    @property
    def v(self) -> Field:
        return self.z

    @property
    def dv(self) -> Field:
        return self.dz

    @property
    def rexp(self) -> float:
        return self.meta["rexp"]

    @property
    def sigma(self) -> float:
        return sigma_exponent(self.q, self.rexp)

    @property
    def ell(self) -> float:
        return comparison_factor(self.q, self.rexp)

    def gap_values(self) -> np.ndarray:
        """w = l u^sigma - v; the comparison holds iff w <= 0."""
        return self.ell * self.u.values**self.sigma - self.v.values

    def residuals(self) -> tuple[Field, Field]:
        """Discrete defects (lap u - v^rexp, lap v + u^(-q))."""
        g = self.grid
        res_u = laplacian_values(self.u.values, g.h, g.n, self.du.values) \
            - self.v.values**self.rexp
        return Field(g, res_u), residual(self)

    def to_dict(self) -> dict:
        out = super().to_dict()
        out["v"], out["dv"] = out.pop("z"), out.pop("dz")
        return dict(out, q=self.q, rexp=self.rexp, sigma=self.sigma, ell=self.ell)

    def columns(self) -> dict:
        """Named CSV columns: r, u, v, the gap w, the comparison margin and residuals.

        The residuals are NaN on too short a window.
        """
        if self.grid.num_nodes >= STENCIL_NODES:
            ru, rv = (f.values for f in self.residuals())
        else:
            ru = rv = np.full(self.grid.num_nodes, np.nan)
        with np.errstate(divide="ignore"):
            w, margin = self.gap_values(), comparison_margin(self)
        return {"r": self.grid.r, "u": self.u.values, "v": self.v.values,
                "w": w, "margin_comparison": margin, "residual_u": ru, "residual_v": rv}

    @classmethod
    def from_fields(cls, grid: RadialGrid, u: np.ndarray, v: np.ndarray,
                    q: float, rexp: float) -> "SystemProfile":
        """Wrap raw positive fields (wiring tests; not a solution)."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return cls(grid, Field(grid, u, positive=True), Field(grid, derivative_values(u, grid.h)),
                   Field(grid, v, positive=True), Field(grid, derivative_values(v, grid.h)),
                   {"source": "fields", "q": float(q), "rexp": float(rexp)},
                   Classification(POSITIVE))


def solve_radial_system(n: int, q: float, rexp: float, u0: float, v0: float,
                        r_max: float, num_intervals: int,
                        rtol: float = RTOL) -> SystemProfile:
    """Shoot the coupled system outward from (u0, v0) and classify the window."""
    require_above("u0", u0)
    require_above("v0", v0)
    require_above("rexp", rexp)
    meta = {"n": n, "q": float(q), "rexp": float(rexp), "source": "shooting",
            "u0": float(u0), "v0": float(v0), "rtol": rtol}
    return SystemProfile(**vars(
        _shot_profile(n, q, rexp, u0, v0, r_max, num_intervals, rtol, meta)))


def _comparison_terms(profile: SystemProfile) -> tuple[np.ndarray, np.ndarray]:
    q, rexp = profile.q, profile.rexp
    return (profile.v.values ** (rexp + 1.0) / (rexp + 1.0),
            profile.u.values ** (1.0 - q) / (q - 1.0))


def comparison_margin(profile: SystemProfile) -> np.ndarray:
    v_term, u_term = _comparison_terms(profile)
    return v_term - u_term


@refusing_overflow
def verify_component_comparison(profile: SystemProfile) -> VerificationReport:
    """Margin v^(rexp+1)/(rexp+1) - u^(1-q)/(q-1) >= 0 at every node.

    Purely algebraic in the fields; no growth hypothesis is imposed.
    """
    profile.require_positive()
    v_term, u_term = _comparison_terms(profile)
    scale = max(1.0, float(v_term.max()), float(u_term.max()))
    return report_from_margin(
        "mixed-power-comparison", Field(profile.grid, v_term - u_term),
        TOL_FIRST_ORDER, scale,
        {"n": profile.n, "q": profile.q, "rexp": profile.rexp}, trim=0)


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


@refusing_overflow
def verify_gap_diff_inequality(profile: SystemProfile) -> VerificationReport:
    """Differential inequality lap w >= -l sigma u^(sigma-1) (l^r u^(sigma r) - v^r).

    Holds on solutions because the discarded term
    l sigma (sigma-1) u^(sigma-2) |grad u|^2 is nonnegative (sigma < 0).
    Requires the fields to solve the system to the residual threshold.
    """
    profile.require_positive()
    _require_solution(profile)
    return _second_order_report(
        profile, "gap-differential-inequality", 1.0, profile.gap_values(),
        gap_inequality_rhs(profile), {"n": profile.n, "q": profile.q, "rexp": profile.rexp})


def verify_concavity_step(profile: SystemProfile) -> VerificationReport:
    """Scalar power-gap step at nodes where the gap w is positive.

    For rexp < 1 (concavity of s^rexp): (w+v)^r - v^r - r w (v+w)^(r-1) >= 0;
    for rexp >= 1 (superadditivity): (v+w)^r - v^r - w^r >= 0.  Nodes with
    w <= 0 do not qualify; no qualifying nodes is a vacuous pass, the
    expected outcome on genuine solutions.
    """
    profile.require_positive()
    rexp = profile.rexp
    w = Field(profile.grid, profile.gap_values()).values   # refuses a non-finite gap
    v = profile.v.values
    qualifying = w > 0
    params = {"n": profile.n, "q": profile.q, "rexp": rexp,
              "qualifying_nodes": int(qualifying.sum())}
    if not np.any(qualifying):
        return VerificationReport(
            inequality="power-concavity-step", params=params, min_margin=0.0,
            argmin_r=float("nan"), tol=TOL_FIRST_ORDER, scale=1.0,
            caveats=["vacuous: no nodes with positive gap"])
    wq, vq = w[qualifying], v[qualifying]
    if rexp < 1.0:
        margin = (wq + vq) ** rexp - vq**rexp - rexp * wq * (vq + wq) ** (rexp - 1.0)
    else:
        margin = (vq + wq) ** rexp - vq**rexp - wq**rexp
    scale = max(1.0, float(((wq + vq) ** rexp).max()))
    return VerificationReport(
        inequality="power-concavity-step", params=params, tol=TOL_FIRST_ORDER,
        scale=scale, **worst_node(margin, profile.grid.r[qualifying]))
