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
and raises a flag.  Snapshots land on a uniform time mesh, which keeps the
central time differences of the verifiers second order.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

from .errors import DomainError, PreconditionError, require_above, require_count
from .grids import TRIM_NODES, laplacian_values
from .reports import (TOL_FIRST_ORDER, TOL_SECOND_ORDER, VerificationReport,
                      worst_node)

#: per-step relative reaction increment allowed by the controller
REL_INCREMENT = 1e-3
#: default blow-up factor over the initial scale
BLOWUP_FACTOR = 1e6
#: discrete residual (relative) above which snapshot-based checks refuse to run
RESIDUAL_THRESHOLD = 1e-3

ETERNALITY_CAVEAT = "comparison proved for eternal solutions; finite window shown as-is"


@dataclass(frozen=True)
class PeriodicBox:
    """1-D periodic box of length L with N nodes x_j = j L / N."""

    length: float = 2.0 * np.pi
    num_nodes: int = 512

    def __post_init__(self):
        require_above("length", self.length)
        require_count("num_nodes", self.num_nodes, 3)

    @property
    def h(self) -> float:
        return self.length / self.num_nodes

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.num_nodes) * self.h

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        return (np.roll(f, -1) - 2.0 * f + np.roll(f, 1)) / self.h**2

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

    @property
    def h(self) -> float:
        return self.radius / self.num_intervals

    @property
    def num_nodes(self) -> int:
        return self.num_intervals + 1

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.num_nodes) * self.h

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        out = laplacian_values(f, self.h, self.n)
        out[-1] = 2.0 * (f[-2] - f[-1]) / self.h**2    # ghost node from zero flux
        return out

    def trim_slice(self) -> slice:
        # wider than the elliptic 4-node margin: the zero-flux ghost closure
        # contaminates two extra nodes of the snapshot time differences
        return slice(2 * TRIM_NODES, self.num_nodes - 2 * TRIM_NODES)

    def to_dict(self) -> dict:
        return {"kind": "radial", "n": self.n, "radius": self.radius,
                "num_intervals": self.num_intervals}


class _PeriodicDiffusion:
    def __init__(self, geom: PeriodicBox):
        k = np.fft.rfftfreq(geom.num_nodes, d=1.0) * geom.num_nodes
        self.lam = (2.0 - 2.0 * np.cos(2.0 * np.pi * k / geom.num_nodes)) / geom.h**2
        self.geom = geom

    def cn_step(self, f: np.ndarray, s: float) -> np.ndarray:
        # Crank-Nicolson over time s: (I - s/2 lap) f+ = (I + s/2 lap) f,
        # solved exactly on the FD eigenvalues of the periodic stencil
        fh = np.fft.rfft(f)
        fh *= (1.0 - 0.5 * s * self.lam) / (1.0 + 0.5 * s * self.lam)
        return np.fft.irfft(fh, n=self.geom.num_nodes)


class _RadialDiffusion:
    def __init__(self, geom: RadialBall):
        self.geom = geom
        h, n, m = geom.h, geom.n, geom.num_nodes
        r = geom.x
        lower = np.zeros(m)
        diag = np.zeros(m)
        upper = np.zeros(m)
        diag[1:-1] = -2.0 / h**2
        lower[0:-2] = 1.0 / h**2 - (n - 1) / (2.0 * h * r[1:-1])
        upper[2:] = 1.0 / h**2 + (n - 1) / (2.0 * h * r[1:-1])
        diag[0] = -2.0 * n / h**2
        upper[1] = 2.0 * n / h**2
        diag[-1] = -2.0 / h**2
        lower[-2] = 2.0 / h**2
        self._l, self._d, self._u = lower, diag, upper

    def cn_step(self, f: np.ndarray, s: float) -> np.ndarray:
        m = self.geom.num_nodes
        k2 = 0.5 * s
        ab = np.zeros((3, m))
        ab[0, 1:] = -k2 * self._u[1:]
        ab[1, :] = 1.0 - k2 * self._d
        ab[2, :-1] = -k2 * self._l[:-1]
        rhs = f + k2 * self.geom.laplacian(f)
        return solve_banded((1, 1), ab, rhs)


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


def _as_field(init, x):
    if callable(init):
        vals = np.asarray(init(x), dtype=float)
    else:
        vals = np.broadcast_to(np.asarray(init, dtype=float), x.shape).copy()
    return vals.astype(float)


def simulate(geometry, p_exp: float, r_exp: float, u_init, v_init,
             t_final: float, num_snapshots: int = 64,
             blowup_factor: float = BLOWUP_FACTOR) -> SpaceTimeField:
    """Run the split stepper and record snapshots on a uniform time mesh.

    Truncates (with a flag) when max(u, v) exceeds blowup_factor times the
    initial scale, when the controller step underflows, or if positivity is
    lost; snapshots recorded so far are returned.
    """
    require_above("p_exp", p_exp)
    require_above("r_exp", r_exp)
    if not (p_exp >= r_exp and p_exp * r_exp > 1):
        raise DomainError(f"needs p >= r and p*r > 1, got p = {p_exp}, r = {r_exp}")
    require_above("t_final", t_final)
    require_count("num_snapshots", num_snapshots, 1)
    # a factor <= 1 truncates at the first step; NaN never truncates
    require_above("blowup_factor", blowup_factor, 1.0)
    x = geometry.x
    u = _as_field(u_init, x)
    v = _as_field(v_init, x)
    # written so NaN fails it
    if not (np.all((u > 0) & (u < np.inf)) and np.all((v > 0) & (v < np.inf))):
        raise DomainError("initial data must be finite and strictly positive")

    diffuser = (_PeriodicDiffusion(geometry) if isinstance(geometry, PeriodicBox)
                else _RadialDiffusion(geometry))
    t_snap = np.linspace(0.0, t_final, num_snapshots + 1)
    init_scale = max(float(u.max()), float(v.max()))
    cap = blowup_factor * init_scale
    dt_min = 1e-12 * max(t_final, 1.0)

    us, vs, ts = [u.copy()], [v.copy()], [0.0]
    t = 0.0
    blown, reason = False, None
    j_next = 1
    while j_next <= num_snapshots:
        rate = max(float((v**r_exp / u).max()), float((u**p_exp / v).max()))
        dt = REL_INCREMENT / rate if rate > 0 else t_final / num_snapshots
        dt = min(dt, t_snap[j_next] - t)
        if dt < dt_min:
            blown, reason = True, "controller-underflow"
            break

        un = diffuser.cn_step(u, 0.5 * dt)
        vn = diffuser.cn_step(v, 0.5 * dt)
        k1u = vn**r_exp
        k1v = un**p_exp
        k2u = (vn + 0.5 * dt * k1v) ** r_exp
        k2v = (un + 0.5 * dt * k1u) ** p_exp
        k3u = (vn + 0.5 * dt * k2v) ** r_exp
        k3v = (un + 0.5 * dt * k2u) ** p_exp
        k4u = (vn + dt * k3v) ** r_exp
        k4v = (un + dt * k3u) ** p_exp
        un = un + dt / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        vn = vn + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        un = diffuser.cn_step(un, 0.5 * dt)
        vn = diffuser.cn_step(vn, 0.5 * dt)

        if not (np.all(np.isfinite(un)) and np.all(np.isfinite(vn))):
            blown, reason = True, "non-finite-state"
            break
        if np.any(un <= 0) or np.any(vn <= 0):
            blown, reason = True, "positivity-lost"
            break
        u, v = un, vn
        t += dt
        if max(float(u.max()), float(v.max())) > cap:
            blown, reason = True, "blow-up"
            break
        if t >= t_snap[j_next] - 1e-14 * max(t_final, 1.0):
            t = t_snap[j_next]
            us.append(u.copy())
            vs.append(v.copy())
            ts.append(t)
            j_next += 1

    return SpaceTimeField(
        geometry=geometry, p_exp=float(p_exp), r_exp=float(r_exp),
        times=np.asarray(ts), u=np.asarray(us), v=np.asarray(vs),
        blown_up=blown, truncation_reason=reason, t_reached=t,
        meta={"dt_policy": {"rel_increment": REL_INCREMENT,
                            "blowup_factor": blowup_factor,
                            "scheme": "strang: CN diffusion halves + RK4 reaction",
                            "reaction": True}})


def _check_snapshot_residuals(fld: SpaceTimeField):
    if fld.times.shape[0] < 3:
        raise PreconditionError("need at least three snapshots for time differences")
    dt = fld.times[1] - fld.times[0]
    geom = fld.geometry
    worst = 0.0
    for j in range(1, fld.times.shape[0] - 1):
        ut = (fld.u[j + 1] - fld.u[j - 1]) / (2.0 * dt)
        vt = (fld.v[j + 1] - fld.v[j - 1]) / (2.0 * dt)
        res_u = ut - geom.laplacian(fld.u[j]) - fld.v[j] ** fld.r_exp
        res_v = vt - geom.laplacian(fld.v[j]) - fld.u[j] ** fld.p_exp
        sc = max(1.0, float(np.abs(ut).max()), float(np.abs(vt).max()))
        worst = max(worst, float(np.abs(res_u).max()) / sc,
                    float(np.abs(res_v).max()) / sc)
    if worst > RESIDUAL_THRESHOLD:
        raise PreconditionError(
            f"snapshots do not solve the system: relative residual {worst:.3e} "
            f"exceeds {RESIDUAL_THRESHOLD}")


def verify_heat_diff_inequality(fld: SpaceTimeField) -> VerificationReport:
    """Parabolic inequality lap w - w_t - l sigma v^(sigma-1)(u^p - l^p v^(sigma p)) >= 0.

    Encodes lap(v^sigma) <= sigma v^(sigma-1) lap v for sigma <= 1, so it must
    hold on every positive solution; w_t uses central differences on the
    stored snapshots (first and last snapshot trimmed).
    """
    _check_snapshot_residuals(fld)
    geom = fld.geometry
    sig, ell = fld.sigma, fld.ell
    dt = fld.times[1] - fld.times[0]
    w = fld.w
    sl = geom.trim_slice()
    x = geom.x[sl]
    worst = {"min_margin": np.inf, "argmin_r": np.nan, "argmin_t": np.nan}
    scale = 1.0
    for j in range(1, fld.times.shape[0] - 1):
        lap_w = geom.laplacian(w[j])
        w_t = (w[j + 1] - w[j - 1]) / (2.0 * dt)
        reac = ell * sig * fld.v[j] ** (sig - 1.0) \
            * (fld.u[j] ** fld.p_exp - ell**fld.p_exp * fld.v[j] ** (sig * fld.p_exp))
        scale = max(scale, float(np.abs(lap_w[sl]).max()),
                    float(np.abs(w_t[sl]).max()), float(np.abs(reac[sl]).max()))
        node = worst_node((lap_w - w_t - reac)[sl], x)
        if node["min_margin"] < worst["min_margin"]:
            worst = dict(node, argmin_t=float(fld.times[j]))
    return VerificationReport(
        inequality="gap-heat-inequality",
        params={"p": fld.p_exp, "r": fld.r_exp, "sigma": sig},
        tol=TOL_SECOND_ORDER, scale=scale, **worst)


def comparison_margin(fld: SpaceTimeField) -> np.ndarray:
    return (fld.v ** (fld.r_exp + 1.0) / (fld.r_exp + 1.0)
            - fld.u ** (fld.p_exp + 1.0) / (fld.p_exp + 1.0))


def verify_component_comparison(fld: SpaceTimeField) -> VerificationReport:
    """Margin v^(r+1)/(r+1) - u^(p+1)/(p+1) >= 0 at all snapshot nodes."""
    margin = comparison_margin(fld)
    scale = max(1.0, float((fld.v ** (fld.r_exp + 1.0)).max() / (fld.r_exp + 1.0)),
                float((fld.u ** (fld.p_exp + 1.0)).max() / (fld.p_exp + 1.0)))
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


def verify_scalar_power_bounds(p_exp: float, r_exp: float,
                               num_samples: int = 100_000,
                               seed: int = 0) -> VerificationReport:
    """Randomized check of the two scalar inequalities behind propagation.

    On samples 0 < b < a <= 1e3: (a+b)^p - a^p >= b^p, and with eps the
    midpoint of the admissible interval,
    a^p - b^p >= (p/(1+eps)) b^(p-eps-1) (a-b)^(1+eps).
    """
    eps = convexity_epsilon(p_exp, r_exp)
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 3.0, num_samples)
    a = 10.0**a  # log-spread over (1, 1e3]
    b = a * rng.uniform(0.0, 1.0, num_samples)
    mask = b > 0
    a, b = a[mask], b[mask]

    lhs1 = (a + b) ** p_exp - a**p_exp
    rel1 = (lhs1 - b**p_exp) / np.maximum(1.0, (a + b) ** p_exp)
    lhs2 = a**p_exp - b**p_exp
    rhs2 = (p_exp / (1.0 + eps)) * b ** (p_exp - eps - 1.0) * (a - b) ** (1.0 + eps)
    rel2 = (lhs2 - rhs2) / np.maximum(1.0, a**p_exp)

    worst = float(min(rel1.min(), rel2.min()))
    violations = int((rel1 < -1e-12).sum() + (rel2 < -1e-12).sum())
    return VerificationReport(
        inequality="scalar-power-bounds",
        params={"p": p_exp, "r": r_exp, "epsilon": eps,
                "num_samples": int(a.shape[0]), "violations": violations},
        min_margin=worst, argmin_r=np.nan, tol=1e-12, scale=1.0)
