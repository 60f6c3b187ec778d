"""Method-of-lines simulation of the coupled reaction-diffusion system

    u_t - lap u = v^r,   v_t - lap v = u^p        (p >= r > 0, p r > 1)

and verification of the comparison w = u - l v^sigma <= 0, its parabolic
differential inequality, sign propagation, and the scalar power bounds the
propagation argument rests on.  sigma = (r+1)/(p+1) lies in (0, 1] and
l = sigma^(-1/(p+1)).

Time stepping is Strang-split: Crank-Nicolson diffusion half-steps around a
classical RK4 step of the (pointwise) reaction, with the step bounded so the
relative reaction increment stays below a controller threshold per step.
Both reactions are nonnegative, so solutions grow; blow-up truncates the run
and raises a flag.  The radial Crank-Nicolson solve reads its bands off the
stencil ``RadialBall.laplacian``; both snapshot checks take their time rates
from ``_time_rate``, a central difference, second order on the uniform mesh.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.linalg import LinAlgError   # the class scipy.linalg raises

from .errors import (DomainError, PreconditionError, require_above, require_count,
                     require_spacing)
from .grids import TRIM_NODES, laplacian_rows, transport_denominators
from .reports import (RESIDUAL_THRESHOLD, TOL_FIRST_ORDER, TOL_SECOND_ORDER,
                      VerificationReport, worst_node)

#: per-step relative reaction increment allowed by the controller
REL_INCREMENT = 1e-3
#: default blow-up factor over the initial scale
BLOWUP_FACTOR = 1e6

ETERNALITY_CAVEAT = "comparison proved for eternal solutions; finite window shown as-is"


@dataclass(frozen=True)
class PeriodicBox:
    """1-D periodic box of length L with N nodes x_j = j L / N."""

    length: float = 2.0 * np.pi
    num_nodes: int = 512

    def __post_init__(self):
        require_above("length", self.length)
        require_count("num_nodes", self.num_nodes, 3)
        require_spacing("length/num_nodes", self.h, 4.0)   # the stencil's largest eigenvalue is 4/h^2

    @property
    def h(self) -> float:
        return self.length / self.num_nodes

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.num_nodes) * self.h

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        return (np.roll(f, -1, axis=-1) - 2.0 * f + np.roll(f, 1, axis=-1)) / self.h**2

    def trim_slice(self) -> slice:
        return slice(0, self.num_nodes)   # no boundary: nothing to trim

    def to_dict(self) -> dict:
        return {"kind": "periodic", "length": self.length, "num_nodes": self.num_nodes}


@dataclass(frozen=True)
class RadialBall:
    """Radial ball [0, R] in dimension n with zero-flux outer boundary."""

    n: int = 3
    radius: float = np.pi
    num_intervals: int = 256

    def __post_init__(self):
        # n = 1 and n = 2 are valid radial Laplacians; n = 0 would flip the
        # sign of the (n-1) f'/r transport term and zero the axis row n f''(0)
        require_count("dimension n", self.n, 1, DomainError)
        require_above("radius", self.radius)
        require_count("num_intervals", self.num_intervals, 3)
        require_spacing("radius/num_intervals", self.h, 2.0 * self.n)   # the axis row's weight

    @property
    def h(self) -> float:
        return self.radius / self.num_intervals

    @property
    def num_nodes(self) -> int:
        return self.num_intervals + 1

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.num_nodes) * self.h

    @cached_property
    def two_h_r(self) -> np.ndarray:
        return transport_denominators(self.num_nodes, self.h)

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        out = laplacian_rows(f, self.h, self.n, self.two_h_r, np.empty_like(f))
        out[..., -1] = 2.0 * (f[..., -2] - f[..., -1]) / self.h**2    # ghost node from zero flux
        return out

    def trim_slice(self) -> slice:
        # wider than the elliptic 4-node margin: the zero-flux ghost closure
        # contaminates two extra nodes of the snapshot time differences
        return slice(2 * TRIM_NODES, self.num_nodes - 2 * TRIM_NODES)

    def to_dict(self) -> dict:
        return {"kind": "radial", "n": self.n, "radius": self.radius,
                "num_intervals": self.num_intervals}


# each diffusion acts on the last axis, so one cn_step call steps a stack [u, v]
class _PeriodicDiffusion:
    def __init__(self, geom: PeriodicBox):
        k = np.fft.rfftfreq(geom.num_nodes, d=1.0) * geom.num_nodes
        self.lam = (2.0 - 2.0 * np.cos(2.0 * np.pi * k / geom.num_nodes)) / geom.h**2
        self.geom = geom

    def cn_step(self, f: np.ndarray, s: float) -> np.ndarray:
        # Crank-Nicolson over time s: (I - s/2 lap) f+ = (I + s/2 lap) f,
        # solved exactly on the FD eigenvalues of the periodic stencil
        fh = np.fft.rfft(f, axis=-1)
        fh *= (1.0 - 0.5 * s * self.lam) / (1.0 + 0.5 * s * self.lam)
        return np.fft.irfft(fh, n=self.geom.num_nodes, axis=-1)


class _RadialDiffusion:
    def __init__(self, geom: RadialBall):
        # SciPy is imported here, by the one stepper that needs it, so that
        # every other run starts without it
        from scipy.linalg.lapack import dgtsv
        self._dgtsv = dgtsv
        self.geom = geom
        # the stencil's (upper, diagonal, lower) bands in solve_banded's layout: row
        # i reaches columns i-1..i+1, one in each comb k % 3 == c, so L[c, i] is
        # the entry of row i in comb c's column
        j = np.arange(geom.num_nodes)
        L = geom.laplacian((j % 3 == np.arange(3)[:, None]).astype(float))
        self._bands = bands = np.zeros((3, geom.num_nodes))
        bands[0, 1:] = L[j[1:] % 3, j[:-1]]
        bands[1] = L[j % 3, j]
        bands[2, :-1] = L[j[:-1] % 3, j[1:]]

    def cn_step(self, f: np.ndarray, s: float) -> np.ndarray:
        k2 = 0.5 * s
        ab = -k2 * self._bands
        ab[1] += 1.0
        rhs = f + k2 * self.geom.laplacian(f)
        # the routine solve_banded((1, 1), ab, rhs.T) runs, on the same band
        # slices, without its validation layers; ab and rhs are scratch, so it
        # solves in place, one column per row of f
        *_, x, info = self._dgtsv(ab[2, :-1], ab[1], ab[0, 1:], rhs.T, overwrite_dl=1,
                                  overwrite_d=1, overwrite_du=1, overwrite_b=1)
        if info:
            raise LinAlgError(f"dgtsv failed with info = {info}")
        return x.T


@dataclass
class SpaceTimeField:
    """Snapshots of a simulated run on a uniform time mesh."""

    geometry: PeriodicBox | RadialBall
    p_exp: float
    r_exp: float
    times: np.ndarray
    u: np.ndarray               # shape (num_snapshots, num_nodes)
    v: np.ndarray
    blown_up: bool
    truncation_reason: str | None
    t_reached: float
    meta: dict = field(default_factory=dict)

    @property
    def sigma(self) -> float:
        return (self.r_exp + 1.0) / (self.p_exp + 1.0)

    @property
    def ell(self) -> float:
        return self.sigma ** (-1.0 / (self.p_exp + 1.0))

    @property
    def w(self) -> np.ndarray:
        return self.u - self.ell * self.v**self.sigma

    def manifest(self) -> dict:
        return {
            "geometry": self.geometry.to_dict(),
            "p_exp": self.p_exp, "r_exp": self.r_exp,
            "sigma": self.sigma, "ell": self.ell,
            "num_snapshots": int(self.times.shape[0]),
            "blow_up": self.blown_up,
            "truncation_reason": self.truncation_reason,
            "t_reached": self.t_reached,
            "dt_policy": dict(self.meta.get("dt_policy", {})),
        }

    def columns(self) -> dict:
        """Named CSV columns, one row per (snapshot, node), snapshot-major."""
        x = self.geometry.x
        return {"t": np.repeat(self.times, x.size), "x": np.tile(x, self.times.size),
                "u": self.u.ravel(), "v": self.v.ravel(), "w": self.w.ravel()}


def _reaction(S: np.ndarray, p_exp: float, r_exp: float) -> np.ndarray:
    """(v^r, u^p) for the stack S = [u, v]; a scalar exponent per row keeps NumPy's fast paths."""
    out = np.empty_like(S)
    out[0] = S[1] ** r_exp
    out[1] = S[0] ** p_exp
    return out


def _truncation(S: np.ndarray, cap: float) -> str | None:
    """Why a step to the state S truncates the run, or None to go on."""
    # NaN carries through both reductions, so it fails the finiteness test
    lo, hi = float(S.min()), float(S.max())
    if not (-np.inf < lo and hi < np.inf):
        return "non-finite-state"
    if lo <= 0:
        return "positivity-lost"
    return "blow-up" if hi > cap else None


def simulate(geometry, p_exp: float, r_exp: float, u_init, v_init,
             t_final: float, num_snapshots: int = 64,
             blowup_factor: float = BLOWUP_FACTOR) -> SpaceTimeField:
    """Run the split stepper on the stack S = [u, v] and record snapshots on a uniform mesh.

    The initial data are numbers or arrays on the nodes.  Truncates (with a
    flag) when max(u, v) exceeds blowup_factor times the initial scale, when
    the controller step underflows, or if positivity is lost; snapshots
    recorded so far are returned.  ``meta["counters"]`` holds the steps computed
    (a step rejected at truncation included), their smallest dt and the diffusion solves.
    """
    require_above("p_exp", p_exp)
    require_above("r_exp", r_exp)
    if not (p_exp >= r_exp and p_exp * r_exp > 1):
        raise DomainError(f"needs p >= r and p*r > 1, got p = {p_exp}, r = {r_exp}")
    require_above("t_final", t_final)
    require_count("num_snapshots", num_snapshots, 1)
    # a factor <= 1 truncates at the first step; NaN never truncates
    require_above("blowup_factor", blowup_factor, 1.0)
    S = np.empty((2, geometry.num_nodes))
    S[0], S[1] = u_init, v_init
    # written so NaN fails it
    if not np.all((S > 0) & (S < np.inf)):
        raise DomainError("initial data must be finite and strictly positive")

    diffuser = (_PeriodicDiffusion(geometry) if isinstance(geometry, PeriodicBox)
                else _RadialDiffusion(geometry))
    t_snap = np.linspace(0.0, t_final, num_snapshots + 1)
    cap = blowup_factor * float(S.max())
    dt_floor = 1e-12 * max(t_final, 1.0)

    # S is replaced, never written in place, so snapshots keep references
    snaps, ts, dts = [S], [0.0], []
    t, reason = 0.0, None
    j_next = 1
    # an overflowing reaction turns the state inf or NaN, which _truncation
    # reports as non-finite-state: NumPy need not warn about it as well
    with np.errstate(over="ignore", invalid="ignore"):
        while j_next <= num_snapshots:
            rate = float((_reaction(S, p_exp, r_exp) / S).max())
            dt = REL_INCREMENT / rate if rate > 0 else t_final / num_snapshots
            dt = min(dt, t_snap[j_next] - t)
            if dt < dt_floor:
                reason = "controller-underflow"
                break

            dts.append(dt)
            Sn = diffuser.cn_step(S, 0.5 * dt)
            k1 = _reaction(Sn, p_exp, r_exp)
            k2 = _reaction(Sn + 0.5 * dt * k1, p_exp, r_exp)
            k3 = _reaction(Sn + 0.5 * dt * k2, p_exp, r_exp)
            k4 = _reaction(Sn + dt * k3, p_exp, r_exp)
            Sn = diffuser.cn_step(Sn + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4), 0.5 * dt)

            reason = _truncation(Sn, cap)
            if reason in ("non-finite-state", "positivity-lost"):
                break
            S = Sn
            t += dt
            if reason == "blow-up":   # the step counts towards t_reached
                break
            if t >= t_snap[j_next] - 1e-14 * max(t_final, 1.0):
                t = t_snap[j_next]
                snaps.append(S)
                ts.append(t)
                j_next += 1

    snaps = np.stack(snaps, axis=1)   # (2, snapshots, nodes)
    return SpaceTimeField(
        geometry=geometry, p_exp=float(p_exp), r_exp=float(r_exp),
        times=np.asarray(ts), u=snaps[0], v=snaps[1],
        blown_up=reason is not None, truncation_reason=reason, t_reached=t,
        meta={"dt_policy": {"rel_increment": REL_INCREMENT,
                            "blowup_factor": blowup_factor,
                            "scheme": "strang: CN diffusion halves + RK4 reaction",
                            "reaction": True},
              "counters": {"steps": len(dts), "dt_min": min(dts, default=None),
                           "diffusion_solves": 2 * len(dts)}})


def _time_rate(f: np.ndarray, times: np.ndarray) -> np.ndarray:
    """(f[k+1] - f[k-1]) / (2 dt) at the interior snapshots k of a uniform time mesh."""
    return (f[2:] - f[:-2]) / (2.0 * (times[1] - times[0]))


def _check_snapshot_residuals(fld: SpaceTimeField) -> float:
    """The worst relative residual of the snapshots; refuses one above the threshold."""
    if fld.times.shape[0] < 3:
        raise PreconditionError("need at least three snapshots for time differences")
    # per snapshot, the largest |time derivative| and |residual| of u and v; one
    # component at a time, as a stack of both would double the peak memory
    rate, defect = 1.0, 0.0
    for f, source, power in ((fld.u, fld.v, fld.r_exp), (fld.v, fld.u, fld.p_exp)):
        res = _time_rate(f, fld.times)
        rate = np.maximum(rate, np.abs(res).max(axis=1))
        res = res - fld.geometry.laplacian(f[1:-1]) - source[1:-1] ** power
        defect = np.maximum(defect, np.abs(res).max(axis=1))
    worst = float((defect / rate).max())
    if worst > RESIDUAL_THRESHOLD:
        raise PreconditionError(
            f"snapshots do not solve the system: relative residual {worst:.3e} "
            f"exceeds {RESIDUAL_THRESHOLD}")
    return worst


def verify_heat_diff_inequality(fld: SpaceTimeField) -> VerificationReport:
    """Parabolic inequality lap w - w_t - l sigma v^(sigma-1)(u^p - l^p v^(sigma p)) >= 0.

    Encodes lap(v^sigma) <= sigma v^(sigma-1) lap v for sigma <= 1, so it must
    hold on every positive solution; w_t uses central differences on the
    stored snapshots (first and last snapshot trimmed).
    """
    _check_snapshot_residuals(fld)
    geom = fld.geometry
    sig, ell, p_exp = fld.sigma, fld.ell, fld.p_exp
    sl = geom.trim_slice()
    w = fld.w
    lap_w = geom.laplacian(w[1:-1])[:, sl]
    w_t = _time_rate(w, fld.times)[:, sl]
    u, v = fld.u[1:-1, sl], fld.v[1:-1, sl]
    reac = ell * sig * v ** (sig - 1.0) * (u ** p_exp - ell**p_exp * v ** (sig * p_exp))
    scale = max(1.0, *(float(np.abs(a).max()) for a in (lap_w, w_t, reac)))
    # the flat argmin takes the earliest snapshot among equal margins
    return VerificationReport(
        inequality="gap-heat-inequality",
        params={"p": fld.p_exp, "r": fld.r_exp, "sigma": sig},
        tol=TOL_SECOND_ORDER, scale=scale,
        **worst_node(lap_w - w_t - reac, geom.x[sl], fld.times[1:-1]))


def _comparison_terms(fld: SpaceTimeField) -> tuple[np.ndarray, np.ndarray]:
    return (fld.v ** (fld.r_exp + 1.0) / (fld.r_exp + 1.0),
            fld.u ** (fld.p_exp + 1.0) / (fld.p_exp + 1.0))


def comparison_margin(fld: SpaceTimeField) -> np.ndarray:
    v_term, u_term = _comparison_terms(fld)
    return v_term - u_term


def verify_component_comparison(fld: SpaceTimeField) -> VerificationReport:
    """Margin v^(r+1)/(r+1) - u^(p+1)/(p+1) >= 0 at all snapshot nodes."""
    v_term, u_term = _comparison_terms(fld)
    margin = v_term - u_term
    # division by a positive constant is monotone: max(x / c) == max(x) / c
    scale = max(1.0, float(v_term.max()), float(u_term.max()))
    return VerificationReport(
        inequality="parabolic-power-comparison",
        params={"p": fld.p_exp, "r": fld.r_exp}, tol=TOL_FIRST_ORDER, scale=scale,
        caveats=[ETERNALITY_CAVEAT],
        **worst_node(margin, fld.geometry.x, fld.times))


def verify_sign_propagation(fld: SpaceTimeField) -> VerificationReport:
    """With w(., 0) <= 0, later snapshots keep max w below tol * scale.

    A positive initial gap makes the check not applicable (no verdict), not
    a failure.
    """
    w = fld.w
    scale = max(1.0, float(np.abs(w).max()))
    w0_max = float(w[0].max())
    params = {"p": fld.p_exp, "r": fld.r_exp, "initial_max_gap": w0_max}
    if w0_max > TOL_FIRST_ORDER * scale:
        return VerificationReport(
            inequality="negativity-propagation", params=params, applicable=False,
            min_margin=-w0_max, argmin_r=np.nan, tol=TOL_SECOND_ORDER, scale=scale,
            caveats=["not applicable: initial gap has positive nodes"])
    # the claim is w <= 0 on later snapshots, so the margin reduced is -w
    return VerificationReport(
        inequality="negativity-propagation", params=params,
        tol=TOL_SECOND_ORDER, scale=scale,
        **worst_node(-w[1:], fld.geometry.x, fld.times[1:]))


def convexity_epsilon(p_exp: float, r_exp: float) -> float:
    """Midpoint of the admissible interval (0, min((pr-1)/(r+1), p-1))."""
    if p_exp * r_exp <= 1:
        raise PreconditionError(
            f"empty epsilon interval: p*r = {p_exp * r_exp} must exceed 1")
    if p_exp <= 1:
        raise PreconditionError(f"needs p > 1, got p = {p_exp}")
    hi = min((p_exp * r_exp - 1.0) / (r_exp + 1.0), p_exp - 1.0)
    return 0.5 * hi


def verify_scalar_power_bounds(p_exp: float, r_exp: float) -> VerificationReport:
    """Check of the two scalar inequalities behind propagation on a fixed grid.

    For 0 < b < a: (a+b)^p - a^p >= b^p, and with eps the midpoint of the
    admissible interval, a^p - b^p >= (p/(1+eps)) b^(p-eps-1) (a-b)^(1+eps).
    Both are homogeneous of degree p, so divided by a^p they are
    inequalities in t = b/a alone, checked on 7999 points of [1e-12, 1 - 1e-12],
    geometric towards both ends, where the margins shrink like p t and
    p (1 - t).
    """
    eps = convexity_epsilon(p_exp, r_exp)
    half = np.geomspace(1e-12, 0.5, 4000)
    t = np.concatenate([half, 1.0 - half[-2::-1]])

    t_p = t**p_exp
    rel1 = (1.0 + t) ** p_exp - 1.0 - t_p
    rel2 = 1.0 - t_p - (p_exp / (1.0 + eps)) * t ** (p_exp - eps - 1.0) * (1.0 - t) ** (1.0 + eps)

    worst = float(min(rel1.min(), rel2.min()))
    violations = int((rel1 < -1e-12).sum() + (rel2 < -1e-12).sum())
    return VerificationReport(
        inequality="scalar-power-bounds",
        params={"p": p_exp, "r": r_exp, "epsilon": eps,
                "num_samples": int(t.shape[0]), "violations": violations},
        min_margin=worst, argmin_r=np.nan, tol=1e-12, scale=1.0)
