"""Positive radial solutions of the singular fourth-order problem.

The equation lap^2 u = -u^(-q) is integrated as the first-order system

    u' = p,  p' = z - (n-1) p / r,  z' = s,  s' = -u^(-q) - (n-1) s / r

with p(0) = s(0) = 0, which is the rexp = 1 case of the coupled radial
system handled by the radial kernel.  Profiles carry (u, u', z = lap u,
z') sampled on a uniform grid together with a window classification.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._backend import STATUS_FAILED, STATUS_OK, radial_ivp
from .errors import DomainError, IntegratorError, PreconditionError
from .grids import Field, RadialGrid, laplacian_with_derivative

#: u (and z) below this fraction of their initial value ends the window
POSITIVITY_FLOOR = 1e-8

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
            "u": self.u.values.tolist(),
            "du": self.du.values.tolist(),
            "z": self.z.values.tolist(),
            "dz": self.dz.values.tolist(),
        }

    def csv_rows(self):
        res = residual(self).values
        for i, r in enumerate(self.grid.r):
            yield (r, self.u.values[i], self.du.values[i],
                   self.z.values[i], self.dz.values[i], res[i])


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


def shoot(n: int, q: float, u0: float, z0: float, r_max: float,
          num_intervals: int = 2048, rtol: float = 1e-9,
          atol: float = 1e-12) -> SolutionProfile:
    """Integrate outward from (u0, z0) and classify the resulting window.

    u0 must be strictly positive; z0 = 0 is allowed and produces a profile
    whose Laplacian turns negative immediately, so it comes back as a
    degenerate touched-zero window rather than an error.
    """
    if u0 <= 0:
        raise DomainError(f"initial value u0 must be positive, got {u0}")
    if z0 < 0:
        raise DomainError(f"initial Laplacian z0 must be nonnegative, got {z0}")
    h = r_max / num_intervals
    u, du, v, dv, status, i_stop, r_event = radial_ivp(
        n, q, 1.0, u0, z0, h, num_intervals, rtol=rtol, atol=atol,
        floor_frac=POSITIVITY_FLOOR)
    meta = {"n": n, "q": float(q), "source": "shooting",
            "u0": float(u0), "z0": float(z0), "rtol": rtol}
    return _profile_from_arrays(n, h, u, du, v, dv, status, i_stop, r_event, meta)


def _profile_from_arrays(n, h, u, du, v, dv, status, i_stop, r_event, meta):
    if status == STATUS_FAILED and i_stop < 1:
        raise IntegratorError(f"integration failed at r = {r_event:.6g}",
                              location=r_event)
    if status == STATUS_OK:
        cls = Classification(POSITIVE)
    elif status == STATUS_FAILED:
        cls = Classification(FAILED, r_stop=float(r_event))
    else:
        cls = Classification(TOUCHED_ZERO, r_stop=float(r_event))
    grid = RadialGrid(n=n, h=h, num_intervals=max(i_stop, 1))
    k = grid.num_nodes
    positive = bool(np.all(u[:k] > 0))
    return SolutionProfile(
        grid,
        Field(grid, u[:k].copy(), positive=positive),
        Field(grid, du[:k].copy()),
        Field(grid, v[:k].copy()),
        Field(grid, dv[:k].copy()),
        meta, cls)


def rescale(profile: SolutionProfile, lam: float) -> SolutionProfile:
    """Scaling-symmetry image u_lam(x) = lam^(4/(q+1)) u(x/lam).

    Node values map exactly onto the rescaled window [0, lam * r_max]; the
    classification kind is preserved and the breakdown location scales.
    """
    if lam <= 0:
        raise DomainError(f"scale factor must be positive, got {lam}")
    profile.require_positive()
    q = profile.q
    mu = lam ** (4.0 / (q + 1.0))
    grid = RadialGrid(n=profile.grid.n, h=profile.grid.h * lam,
                      num_intervals=profile.grid.num_intervals)
    cls = profile.classification
    if cls.r_stop is not None:
        cls = replace(cls, r_stop=cls.r_stop * lam)
    meta = dict(profile.meta)
    meta.update(source="rescaled", scale=lam * meta.get("scale", 1.0),
                u0=mu * profile.meta["u0"], z0=mu / lam**2 * profile.meta["z0"])
    return SolutionProfile(
        grid,
        Field(grid, mu * profile.u.values, positive=True),
        Field(grid, mu / lam * profile.du.values),
        Field(grid, mu / lam**2 * profile.z.values),
        Field(grid, mu / lam**3 * profile.dz.values),
        meta, cls)


def residual(profile: SolutionProfile) -> Field:
    """Defect lap(lap u) + u^(-q) of the profile data.

    The outer Laplacian differences the stored field z = lap u and uses the
    stored slope z' for the (n-1)/r transport term, so the truncation error
    stays uniformly second order down to the axis.  Pass/fail consumers trim
    a 4h margin at each window end.
    """
    g = profile.grid
    lap_z = laplacian_with_derivative(profile.z.values, profile.dz.values, g.h, g.n)
    return Field(g, lap_z + profile.u.values ** (-profile.q))
