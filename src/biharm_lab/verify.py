"""Pointwise verification of the Laplacian lower bounds on solution profiles.

Margin conventions: every check produces a margin field whose nonnegativity
(up to -tol * scale on the trimmed interior) is the claim being verified.
First-order margins use tol = 1e-8; margins that difference a derived field
twice (the second-order checks, the system's gap check included) use
tol = 1e-6 because the composition amplifies truncation error by two
derivative orders; ``_second_order_report`` makes their one stencil call.

The Laplacian entering the auxiliary function w = -lap u + alpha A + beta B
is the profile's stored field z; the derived quantities (w', lap w, lap B)
are evaluated with the finite-difference stencils.  Growth hypotheses cannot
be certified from a finite window, so reports carry a heuristic caveat flag
instead of a growth precondition.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .biharmonic import SolutionProfile
from .errors import DomainError, PreconditionError
from .grids import Field, derivative_values, laplacian_values
from .params import (ParamSet, _half_p, beta_max, check_admissible, coefficients,
                     gamma_interval, weak_coefficient)
from .reports import (TOL_FIRST_ORDER, TOL_SECOND_ORDER, VerificationReport,
                      refusing_overflow, report_from_margin, worst_node)

GROWTH_CAVEAT = "growth: heuristic (finite-window tail test only)"


@dataclass
class AuxFields:
    """Derived fields of a profile for fixed (alpha, beta)."""

    A: Field          # u^(-1) |grad u|^2
    B: Field          # u^(-(q-1)/2)
    w: Field          # -lap u + alpha A + beta B


def _gradient_term(profile: SolutionProfile, alpha: float, beta: float) -> np.ndarray:
    """A = u^(-1) |grad u|^2 of a positive profile, once the inputs are checked."""
    profile.require_positive()
    ParamSet(n=profile.n, q=profile.q, alpha=alpha, beta=beta)   # input domains
    u, du = profile.u.values, profile.du.values
    if np.any(u <= 0):
        raise DomainError("profile has non-positive u values")
    return du * du / u


def _power_term(profile: SolutionProfile) -> np.ndarray:
    """B = u^(-(q-1)/2), refused where it underflows to 0."""
    u, r = profile.u.values, profile.grid.r
    B = u ** -_half_p(profile.q)
    if not B.all():
        i = int(np.argmin(B))   # the first zero
        raise DomainError(f"u^(-(q-1)/2) underflows to 0 at r = {r[i]:.6g} (u = {u[i]:.6g}, "
                          f"q = {profile.q:g}): the bounds cannot be evaluated in floats")
    return B


@refusing_overflow
def aux_fields(profile: SolutionProfile, alpha: float, beta: float) -> AuxFields:
    """A, B and w for a positive profile."""
    g = profile.grid
    A, B = _gradient_term(profile, alpha, beta), _power_term(profile)
    w = -profile.z.values + alpha * A + beta * B
    return AuxFields(A=Field(g, A), B=Field(g, B, positive=True), w=Field(g, w))


def _growth_guard_ok(profile: SolutionProfile) -> bool:
    """Tail test: u / r^2 non-increasing past its last interior rise."""
    r = profile.grid.r
    if r[-1] < 5.0:
        return True  # window too short to say anything; caveat stays on
    tail = r >= 0.5 * r[-1]
    ratio = profile.u.values[tail] / r[tail] ** 2.0
    d = np.diff(ratio)
    return bool(np.all(d[len(d) // 2:] <= 1e-12))


def _gradient_margin(profile: SolutionProfile, alpha: float, beta: float) -> np.ndarray:
    """lap u - alpha u^(-1)|grad u|^2, the lower bounds' margin before its beta term."""
    return profile.z.values - alpha * _gradient_term(profile, alpha, beta)


@refusing_overflow
def _lower_bound(profile: SolutionProfile, inequality: str, alpha: float, beta: float,
                 params: dict, caveats: list[str]) -> VerificationReport:
    """Report on the margin lap u - alpha u^(-1)|grad u|^2 - beta u^(-(q-1)/2) >= 0."""
    margin = _gradient_margin(profile, alpha, beta)
    if beta:   # else B is not read, so an underflowing B refuses no gradient-only bound
        margin = margin - beta * _power_term(profile)
    scale = max(1.0, float(profile.z.values.max()))
    return report_from_margin(inequality, Field(profile.grid, margin),
                              TOL_FIRST_ORDER, scale, params, caveats)


@refusing_overflow
def _region_bound(profile: SolutionProfile, inequality: str, alpha: float,
                  beta: float) -> VerificationReport:
    """The lower bound at an admissible (alpha, beta), with the growth caveats."""
    profile.require_positive()
    params = ParamSet(n=profile.n, q=profile.q, alpha=alpha, beta=beta)
    res = check_admissible(params)
    if not res.admissible:
        raise PreconditionError("; ".join(res.reasons))
    caveats = [GROWTH_CAVEAT]
    if not _growth_guard_ok(profile):
        caveats.append("growth guard: tail ratio still rising at window end")
    return _lower_bound(profile, inequality, alpha, beta, params.to_dict(), caveats)


def verify_pointwise_bound(profile: SolutionProfile, alpha: float,
                           beta: float) -> VerificationReport:
    """Margin lap u - alpha u^(-1)|grad u|^2 - beta u^(-(q-1)/2) >= 0; needs an admissible pair."""
    return _region_bound(profile, "laplacian-lower-bound", alpha, beta)


def verify_sharp_bound(profile: SolutionProfile) -> VerificationReport:
    """The alpha = 1/2 bound with coefficient sqrt(2/(q-1-2/n)); needs q >= 3."""
    if profile.q < 3:
        raise PreconditionError(f"the alpha = 1/2 bound needs q >= 3, got q = {profile.q}")
    return _region_bound(profile, "laplacian-lower-bound-max-alpha",
                         0.5, beta_max(0.5, profile.q, profile.n))


def verify_weak_bound(profile: SolutionProfile) -> VerificationReport:
    """Baseline gradient-free bound lap u >= sqrt(2/(q-1)) u^(-(q-1)/2).

    It holds for every positive solution: no region, no growth hypothesis.
    """
    beta = weak_coefficient(profile.q)
    params = ParamSet(n=profile.n, q=profile.q, alpha=0.0, beta=beta)
    return _lower_bound(profile, "laplacian-lower-bound-weak", 0.0, beta, params.to_dict(), [])


def verify_gradient_bound(profile: SolutionProfile) -> VerificationReport:
    """Gradient-only bound lap u >= |grad u|^2 / (2u), valid for every q > 1."""
    return _lower_bound(profile, "laplacian-gradient-bound", 0.5, 0.0,
                        {"n": profile.n, "q": profile.q, "alpha": 0.5, "beta": 0.0},
                        [GROWTH_CAVEAT])


def _second_order_report(profile: SolutionProfile, inequality: str, weight: np.ndarray | float,
                         f: np.ndarray, rhs: np.ndarray, params: dict,
                         two_sided: bool = False) -> VerificationReport:
    """Report on weight * lap f - rhs >= 0 for a derived field f, the second-order
    checks' one stencil call; the scale is max |weight * lap f| on the trimmed interior."""
    g = profile.grid
    lhs = weight * laplacian_values(f, g.h, g.n)
    scale = max(1.0, float(np.abs(lhs[g.trim_slice()]).max()))
    return report_from_margin(inequality, Field(g, lhs - rhs), TOL_SECOND_ORDER, scale,
                              params, two_sided=two_sided)


@refusing_overflow
def verify_aux_inequality(profile: SolutionProfile, alpha: float,
                          beta: float) -> VerificationReport:
    """Differential inequality for the auxiliary function w.

    Checks u lap w >= -2 alpha u' w' + (2 alpha/n) w^2 + K1 alpha A w
    + K2 beta B w + I1 alpha A^2 + I2 B^2 + I3 beta A B, which holds for all
    positive alpha, beta on any positive solution (no region restriction).
    """
    profile.require_positive()
    params = ParamSet(n=profile.n, q=profile.q, alpha=alpha, beta=beta)
    coefs = coefficients(params)
    if not np.all(np.isfinite(list(coefs.to_dict().values()))):   # alpha or beta past the float range
        raise DomainError(f"the aux-inequality coefficients at alpha = {alpha:g}, "
                          f"beta = {beta:g} are not finite")
    aux = aux_fields(profile, alpha, beta)
    A, B, w = aux.A.values, aux.B.values, aux.w.values
    rhs = (-2.0 * alpha * profile.du.values * derivative_values(w, profile.grid.h)
           + (2.0 * alpha / profile.n) * w * w
           + coefs.K1 * alpha * A * w + coefs.K2 * beta * B * w
           + coefs.I1 * alpha * A * A + coefs.I2 * B * B + coefs.I3 * beta * A * B)
    return _second_order_report(profile, "aux-differential-inequality", profile.u.values,
                                w, rhs, params.to_dict())


@refusing_overflow
def laplacian_identity_defect(profile: SolutionProfile, alpha: float,
                              beta: float) -> VerificationReport:
    """Identity u lap B = p B w + p (p+1-alpha) A B - p beta B^2, p = (q-1)/2.

    This is an equality; the report checks |defect| <= tol * scale two-sided.
    """
    profile.require_positive()
    p = _half_p(profile.q)
    aux = aux_fields(profile, alpha, beta)
    A, B, w = aux.A.values, aux.B.values, aux.w.values
    rhs = p * B * w + p * (p + 1.0 - alpha) * A * B - p * beta * B * B
    return _second_order_report(
        profile, "power-field-laplacian-identity", profile.u.values, B, rhs,
        {"n": profile.n, "q": profile.q, "alpha": alpha, "beta": beta}, two_sided=True)


@refusing_overflow
def verify_weighted_aux_inequality(profile: SolutionProfile, alpha: float,
                                   beta: float, gamma: float) -> VerificationReport:
    """The u^(-gamma)-weighted form of the auxiliary differential inequality.

    Checks u^(1-gamma) lap w_g >= J1 w_g^2 + u^(-gamma) (-2 J2 u' w_g'
    + L1 A w_g + L2 B w_g) for gamma in the feasible interval, w_g = u^(-gamma) w.
    """
    profile.require_positive()
    interval = gamma_interval(alpha, profile.q, profile.n)
    if not interval.contains(gamma):
        raise PreconditionError(
            f"gamma = {gamma} outside the feasible interval [0, {interval.gamma_star:.6g})")
    params = ParamSet(n=profile.n, q=profile.q, alpha=alpha, beta=beta, gamma=gamma)
    coefs = coefficients(params)
    aux = aux_fields(profile, alpha, beta)
    u = profile.u.values
    weight = u ** -gamma
    wg = weight * aux.w.values   # a non-finite w_g is refused by the margin's Field
    rhs = (coefs.J1 * wg * wg
           + weight * (-2.0 * coefs.J2 * profile.du.values * derivative_values(wg, profile.grid.h)
                       + coefs.L1 * aux.A.values * wg
                       + coefs.L2 * aux.B.values * wg))
    return _second_order_report(profile, "weighted-aux-differential-inequality",
                                u ** (1.0 - gamma), wg, rhs, params.to_dict())


@refusing_overflow
def scalar_curvature(profile: SolutionProfile) -> VerificationReport:
    """Scalar curvature of the conformal metric u^(2/(n-2)) g_flat.

    scal = -(2(n-1)/(n-2)) (lap u - |grad u|^2/(2u)) u^(-n/(n-2)), the
    gradient bound's margin times a negative factor; the report asserts it is
    negative (up to tolerance) on the trimmed interior and keeps scal as its
    margin field.
    """
    n = profile.n
    scal = (-(2.0 * (n - 1.0) / (n - 2.0)) * _gradient_margin(profile, 0.5, 0.0)
            * profile.u.values ** (-n / (n - 2.0)))
    g = profile.grid
    fld, sl = Field(g, scal), g.trim_slice()
    scale = max(1.0, float(np.abs(scal[sl]).max()))
    # the claim is scal <= 0, so the margin reduced is -scal
    return VerificationReport(
        inequality="conformal-scalar-curvature-negative",
        params={"n": n, "q": profile.q}, tol=TOL_FIRST_ORDER, scale=scale,
        margin=fld, caveats=[GROWTH_CAVEAT], **worst_node(-scal[sl], g.r[sl]))
