"""Positive radial solutions of the singular fourth-order problem.

The equation lap^2 u = -u^(-q) is integrated as the first-order system

    u' = p,  p' = z - (n-1) p / r,  z' = s,  s' = -u^(-q) - (n-1) s / r

with p(0) = s(0) = 0: the rexp = 1 case of the coupled system of the radial
kernel, whose shots store v as z (system.SystemProfile reads them as (u, v)).
Profiles carry (u, u', z = lap u, z') on a uniform grid with a window classification.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._backend import RTOL, STATUS_FAILED, STATUS_OK, radial_ivp
from .errors import (DomainError, IntegratorError, PreconditionError, require_above,
                     require_count, require_in, require_power)
from .grids import STENCIL_NODES, Field, RadialGrid, laplacian_values

POSITIVE = "positive-on-window"
TOUCHED_ZERO = "touched-zero"
FAILED = "integrator-failure"


@dataclass(frozen=True)
class Classification:
    kind: str
    r_stop: float | None = None

    def to_dict(self) -> dict:
        return {"kind": self.kind, "r_stop": self.r_stop}


@dataclass
class SolutionProfile:
    """A radial solution sample: u > 0, its derivative, Laplacian and slope."""

    grid: RadialGrid
    u: Field
    du: Field
    z: Field
    dz: Field
    meta: dict
    classification: Classification
    #: the kernel's step counts for a shot, {} otherwise; kept out of the artifacts
    counters: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def q(self) -> float:
        return self.meta["q"]

    @property
    def conforming(self) -> bool:
        return self.classification.kind == POSITIVE

    def require_positive(self):
        if not self.conforming:
            raise PreconditionError(
                f"profile is {self.classification.kind} "
                f"(r_stop = {self.classification.r_stop}), not positive-on-window")

    def to_dict(self) -> dict:
        return {
            "grid": self.grid.to_dict(),
            "meta": dict(self.meta),
            "classification": self.classification.to_dict(),
            "u": self.u.values,
            "du": self.du.values,
            "z": self.z.values,
            "dz": self.dz.values,
        }

    def columns(self) -> dict:
        """Named CSV columns: r, the four fields and the residual, NaN on too short a window."""
        res = (residual(self).values if self.grid.num_nodes >= STENCIL_NODES
               else np.full(self.grid.num_nodes, np.nan))
        return {"r": self.grid.r, "u": self.u.values, "du": self.du.values,
                "z": self.z.values, "dz": self.dz.values, "residual": res}


EXACT_AMPLITUDE = 15.0 ** -0.125   # normalizes lap^2 u = -u^(-7) for sqrt(1+r^2)


def exact_fields(r: np.ndarray):
    """Closed-form (u, u', lap u, (lap u)') of the n = 3, q = 7 reference solution."""
    c = EXACT_AMPLITUDE
    s = 1.0 + r * r
    u = c * np.sqrt(s)
    du = c * r / np.sqrt(s)
    z = c * (3.0 + 2.0 * r * r) * s**-1.5
    dz = -c * r * (5.0 + 2.0 * r * r) * s**-2.5
    return u, du, z, dz


def exact_solution(grid: RadialGrid) -> SolutionProfile:
    """The linear-growth reference solution u = 15^(-1/8) sqrt(1 + r^2)."""
    if grid.n != 3:
        raise DomainError(f"the closed-form solution lives in n = 3, got n = {grid.n}")
    u, du, z, dz = exact_fields(grid.r)
    meta = {"n": 3, "q": 7.0, "source": "exact",
            "u0": float(u[0]), "z0": float(z[0])}
    return SolutionProfile(grid, Field(grid, u, positive=True), Field(grid, du),
                           Field(grid, z), Field(grid, dz), meta,
                           Classification(POSITIVE))


def shooting_grid(n: int, q: float, r_max: float, num_intervals: int,
                  rtol: float) -> RadialGrid:
    """Guards shared by the shooting entry points; returns the grid to fill.

    Refuses a bad q, rtol, window or interval count and, through the grid, a
    bad dimension or a spacing whose h^2 (and so the kernel's tolerance cap)
    leaves the float range, all before the kernel allocates or runs.
    """
    require_above("q", q, 1.0)
    require_above("rtol", rtol)
    require_count("num_intervals", num_intervals, 1)
    return RadialGrid(n=n, h=require_above("r_max", r_max) / num_intervals,
                      num_intervals=num_intervals)


def shoot(n: int, q: float, u0: float, z0: float, r_max: float,
          num_intervals: int = 2048, rtol: float = RTOL) -> SolutionProfile:
    """Integrate outward from (u0, z0) and classify the resulting window.

    u0 must be strictly positive; z0 = 0 is allowed and produces a profile
    whose Laplacian turns negative immediately, so it comes back as a
    degenerate touched-zero window rather than an error.
    """
    require_above("u0", u0)
    require_in("z0", z0, 0.0)
    return _shot_profile(n, q, 1.0, u0, z0, r_max, num_intervals, rtol,
                        {"n": n, "q": float(q), "source": "shooting",
                         "u0": float(u0), "z0": float(z0), "rtol": rtol})


def _shot_profile(n, q, rexp, u0, v0, r_max, num_intervals, rtol, meta) -> SolutionProfile:
    """The profile of one shot of the radial kernel from (u0, v0), classified.

    Checks the shooting guards first; v and v' are stored as z and z'.
    """
    h = shooting_grid(n, q, r_max, num_intervals, rtol).h
    *arrays, status, i_stop, r_event, stats = radial_ivp(
        n, q, rexp, u0, v0, h, num_intervals, rtol=rtol)
    return _profile_from_arrays(n, h, *arrays, status, i_stop, r_event, meta, stats)


def _profile_from_arrays(n, h, u, du, v, dv, status, i_stop, r_event, meta, stats):
    if status == STATUS_FAILED and i_stop < 1:
        raise IntegratorError(f"integration failed at r = {r_event:.6g}",
                              location=r_event)
    if status == STATUS_OK:
        cls = Classification(POSITIVE)
    elif status == STATUS_FAILED:
        cls = Classification(FAILED, r_stop=float(r_event))
    else:
        cls = Classification(TOUCHED_ZERO, r_stop=float(r_event))
    grid = RadialGrid(n=n, h=h, num_intervals=i_stop)
    k = grid.num_nodes
    positive = bool(np.all(u[:k] > 0))
    return SolutionProfile(
        grid,
        Field(grid, u[:k].copy(), positive=positive),
        Field(grid, du[:k].copy()),
        Field(grid, v[:k].copy()),
        Field(grid, dv[:k].copy()),
        meta, cls, stats)


def scaling_exponents(q: float, rexp: float = 1.0) -> tuple[float, float]:
    """(a, b) of the symmetry (u, v) -> (lam^a u(x/lam), lam^b v(x/lam)).

    It maps solutions of lap u = v^rexp, lap v = -u^(-q) onto solutions:
    a = 2(1+rexp)/(1+rexp q) and b = 2(1-q)/(1+rexp q).  The biharmonic
    problem is rexp = 1 with v = lap u, where a = 4/(q+1) and b = a - 2.
    """
    d = 1.0 + rexp * q
    return 2.0 * (1.0 + rexp) / d, 2.0 * (1.0 - q) / d


def rescale_factors(lam: float, a: float, b: float) -> tuple[float, float, float, float]:
    """Factors of (u, u', v, v') under the symmetry with exponents (a, b).

    Refuses (DomainError) a factor outside the float range.
    """
    mu = require_power("lam**a", lam, a)
    nu = require_power("lam**b", lam, b)
    return mu, require_above("lam**(a-1)", mu / lam), nu, require_above("lam**(b-1)", nu / lam)


def rescale(profile: SolutionProfile, lam: float) -> SolutionProfile:
    """Scaling-symmetry image u_lam(x) = lam^(4/(q+1)) u(x/lam).

    The r = 1 case of rescale_factors, on a positive profile.  Node values
    map exactly onto the rescaled window [0, lam * r_max].
    """
    require_above("lam", lam)
    profile.require_positive()
    factors = rescale_factors(lam, *scaling_exponents(profile.q))
    meta = dict(profile.meta)
    meta.update(source="rescaled", scale=lam * meta.get("scale", 1.0),
                u0=factors[0] * profile.meta["u0"], z0=factors[2] * profile.meta["z0"])
    fields = (profile.u, profile.du, profile.z, profile.dz)
    out = _profile_from_arrays(profile.n, profile.grid.h * lam,
                               *(f * x.values for f, x in zip(factors, fields)),
                               STATUS_OK, profile.grid.num_intervals, None, meta, {})
    if not out.u.positive:
        raise DomainError(f"the rescaled u underflows to 0 at lam = {lam:g}")
    return out


def residual(profile: SolutionProfile) -> Field:
    """Defect lap(lap u) + u^(-q) of the profile data; lap v + u^(-q) for a system's.

    The outer Laplacian differences the stored field z = lap u and uses the
    stored slope z' for the (n-1)/r transport term, so the truncation error
    stays uniformly second order down to the axis.  Pass/fail consumers trim
    a 4h margin at each window end.
    """
    g = profile.grid
    lap_z = laplacian_values(profile.z.values, g.h, g.n, profile.dz.values)
    return Field(g, lap_z + profile.u.values ** (-profile.q))
