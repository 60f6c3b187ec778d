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
and raises a flag.  A step allocates only the diffusion solves' outputs: the
reaction (v^r, u^p) of a stack is one broadcast power, and the RK4 slopes
and sums are written into buffers made once per run.  The radial
Crank-Nicolson solve reads its bands off the stencil ``RadialBall.laplacian``
and takes a half-step as one tridiagonal solve (I - s/2 L) y = f and
x = 2y - f, the same step as solving (I - s/2 L) x = (I + s/2 L) f.  The
snapshot checks reduce their margins over blocks of CHECK_BLOCK_SNAPSHOTS
snapshots, bitwise as over the whole field; the two that need time rates
take them from ``_time_rate``, a central difference, second order on the
uniform mesh.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (DomainError, PreconditionError, require_above, require_count,
                     require_spacing)
from .grids import TRIM_NODES, laplacian_values
from .reports import (RESIDUAL_THRESHOLD, TOL_FIRST_ORDER, TOL_SECOND_ORDER,
                      VerificationReport, worst_node)

#: per-step relative reaction increment allowed by the controller: the largest
#: one-digit value at which, in a time-refinement study, no check's verdict
#: moves and every margin that a run at REL_INCREMENT / 32 puts within
#: 10 tol * scale of zero stays within 0.1 tol * scale of that run
REL_INCREMENT = 2e-3
#: default blow-up factor over the initial scale
BLOWUP_FACTOR = 1e6
#: default grid of either geometry: a box's nodes, a ball's intervals
NODES = 512
#: default number of snapshots after the one at t = 0
SNAPSHOTS = 64
#: snapshots a check reduces at a time, so that a block's temporaries stay in cache
CHECK_BLOCK_SNAPSHOTS = 16

ETERNALITY_CAVEAT = "comparison proved for eternal solutions; finite window shown as-is"


@dataclass(frozen=True)
class PeriodicBox:
    """1-D periodic box of length L with N nodes x_j = j L / N."""

    length: float = 2.0 * np.pi
    num_nodes: int = NODES

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
    """Radial ball [0, R] in dimension n with zero-flux outer boundary.

    By default the ball of radius pi in dimension 3 on NODES = 512 intervals,
    the grid size of the default periodic box.
    """

    n: int = 3
    radius: float = np.pi
    num_intervals: int = NODES

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

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        """``laplacian_values`` with the wall row closed by a zero-flux ghost node."""
        out = laplacian_values(f, self.h, self.n)
        out[..., -1] = 2.0 * (f[..., -2] - f[..., -1]) / self.h**2
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
        self._s = self._factor = None

    def cn_step(self, f: np.ndarray, s: float) -> np.ndarray:
        # Crank-Nicolson over time s: (I - s/2 lap) f+ = (I + s/2 lap) f,
        # solved exactly on the FD eigenvalues of the periodic stencil; both
        # half-steps of a split step share s, so its factor is built once
        if s != self._s:
            self._s, self._factor = s, (1.0 - 0.5 * s * self.lam) / (1.0 + 0.5 * s * self.lam)
        fh = np.fft.rfft(f, axis=-1)
        fh *= self._factor
        return np.fft.irfft(fh, n=self.geom.num_nodes, axis=-1)


class _RadialDiffusion:
    """Crank-Nicolson half-steps on the bands of ``RadialBall.laplacian``.

    With k = s/2, (I - k L)^-1 (I + k L) = 2 (I - k L)^-1 - I, so a step is
    one tridiagonal solve (I - k L) y = f and x = 2y - f: no stencil product
    builds a right-hand side.
    """

    def __init__(self, geom: RadialBall):
        # SciPy is imported here, by the one stepper that needs it, so that
        # every other run starts without it
        from scipy.linalg.lapack import dgtsv
        self._dgtsv = dgtsv
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
        ab = -0.5 * s * self._bands
        ab[1] += 1.0
        # the routine solve_banded((1, 1), ab, f.T) runs, on the same band
        # slices, without its validation layers; ab is scratch, so it is
        # factored in place, while f (a snapshot may hold it) is copied, one
        # column per row of f
        *_, y, info = self._dgtsv(ab[2, :-1], ab[1], ab[0, 1:], f.T, overwrite_dl=1,
                                  overwrite_d=1, overwrite_du=1)
        if info:
            # a pivot is exactly 0: the 1 on the diagonal of I - k L was lost
            # to rounding next to k times weights that grow as 1/h^2
            weight = float(np.abs(self._bands).max())
            raise PreconditionError(
                f"the radial Crank-Nicolson half-step over s = {s:g} is singular in "
                f"floating point: s/2 times the stencil's largest weight {weight:g} "
                "swamps the identity")
        y *= 2.0
        y -= f.T
        return y.T


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
        return self.gap(slice(None))

    def gap(self, rows: slice) -> np.ndarray:
        """w = u - l v^sigma on the snapshots ``rows``."""
        return self.u[rows] - self.ell * self.v[rows] ** self.sigma

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
             t_final: float, num_snapshots: int = SNAPSHOTS,
             blowup_factor: float = BLOWUP_FACTOR) -> SpaceTimeField:
    """Run the split stepper on the stack S = [u, v] and record snapshots on a uniform mesh.

    The initial data are numbers or arrays on the nodes.  Truncates (with a
    flag) when max(u, v) exceeds blowup_factor times the initial scale, when
    the controller step underflows, or if positivity is lost; snapshots
    recorded so far are returned.  ``meta["counters"]`` holds the steps computed
    (a step rejected at truncation included), their smallest dt, the diffusion
    solves and the controller's reaction rate at the last step computed
    (``rate_last``, None before the first).
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

    # S and every snapshot come fresh out of cn_step, so the snapshots keep
    # references; only the five buffers below are written in place
    snaps, ts, dts = [S], [0.0], []
    t, reason, rate_last = 0.0, None, None
    j_next = 1
    # the reaction (v^r, u^p) of a stack X is np.power(X[::-1], E): E
    # broadcasts with stride 0 along a row, as a scalar exponent does, so
    # NumPy takes S[1] ** r_exp's path, its fast paths for 0.5, 1 and 2 included
    E = np.array([[r_exp], [p_exp]], dtype=float)
    # the rate, the stage sums and RK4's combination are formed in T in the
    # operand order of Sn + dt/6 (k1 + 2 k2 + 2 k3 + k4), so each rounds alike
    T, k1, k2, k3, k4 = (np.empty_like(S) for _ in range(5))
    # an overflowing reaction turns the state inf or NaN, which _truncation
    # reports as non-finite-state: NumPy need not warn about it as well
    with np.errstate(over="ignore", invalid="ignore"):
        while j_next <= num_snapshots:
            np.power(S[::-1], E, out=T)
            rate = float(np.divide(T, S, out=T).max())
            dt = REL_INCREMENT / rate if rate > 0 else t_final / num_snapshots
            dt = min(dt, t_snap[j_next] - t)
            if dt < dt_floor:
                reason = "controller-underflow"
                break

            dts.append(dt)
            rate_last = rate
            Sn = diffuser.cn_step(S, 0.5 * dt)
            np.power(Sn[::-1], E, out=k1)
            # the stage Sn + c k, then its reaction
            np.power(np.add(Sn, np.multiply(k1, 0.5 * dt, out=T), out=T)[::-1], E, out=k2)
            np.power(np.add(Sn, np.multiply(k2, 0.5 * dt, out=T), out=T)[::-1], E, out=k3)
            np.power(np.add(Sn, np.multiply(k3, dt, out=T), out=T)[::-1], E, out=k4)
            # T = dt/6 (((k1 + 2 k2) + 2 k3) + k4); k2 is free for 2 k3
            np.add(k1, np.multiply(k2, 2.0, out=T), out=T)
            T += np.multiply(k3, 2.0, out=k2)
            T += k4
            T *= dt / 6.0
            Sn = diffuser.cn_step(np.add(Sn, T, out=T), 0.5 * dt)

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
                           "diffusion_solves": 2 * len(dts), "rate_last": rate_last}})


def _time_rate(f: np.ndarray, times: np.ndarray) -> np.ndarray:
    """(f[k+1] - f[k-1]) / (2 dt) at the interior snapshots k of a uniform time mesh."""
    return (f[2:] - f[:-2]) / (2.0 * (times[1] - times[0]))


def _reduce_blocks(fld: SpaceTimeField, start: int, stop: int, block_terms,
                   r: np.ndarray | None = None, maxima: list | None = None):
    """Reduce a check over the snapshots start..stop-1, CHECK_BLOCK_SNAPSHOTS at a time.

    ``block_terms(lo, hi)`` returns the arrays whose largest entries are kept
    and the margin, or None, on the snapshots lo..hi-1, r on its last axis.
    Returns the largest entry of each array over all blocks, starting from
    ``maxima`` if given, and the ``worst_node`` keywords of the whole margin.
    Both follow NumPy's rules on the whole field: a maximum is NaN when an
    entry is, as with ``ndarray.max``, and the worst node is the first flat
    ``argmin``, where NaN counts as smallest and the earliest snapshot wins a tie.
    """
    worst = None
    for lo in range(start, stop, CHECK_BLOCK_SNAPSHOTS):
        hi = min(lo + CHECK_BLOCK_SNAPSHOTS, stop)
        arrays, margin = block_terms(lo, hi)
        block = [a.max() for a in arrays]
        maxima = block if maxima is None else [np.maximum(m, b) for m, b in zip(maxima, block)]
        if margin is not None:
            node = worst_node(margin, r, fld.times[lo:hi])
            # not (value >= best) takes a smaller value or a NaN; an earlier
            # block keeps a tie, and its NaN
            if worst is None or not (np.isnan(worst["min_margin"])
                                     or node["min_margin"] >= worst["min_margin"]):
                worst = node
    return [float(m) for m in maxima], worst


def _check_snapshot_residuals(fld: SpaceTimeField) -> float:
    """The worst relative residual of the snapshots; refuses one above the threshold."""
    if fld.times.shape[0] < 3:
        raise PreconditionError("need at least three snapshots for time differences")

    def block_terms(lo, hi):
        # per snapshot, the largest |time derivative| and |residual| of u and v
        rate, defect = 1.0, 0.0
        for f, source, power in ((fld.u, fld.v, fld.r_exp), (fld.v, fld.u, fld.p_exp)):
            res = _time_rate(f[lo - 1:hi + 1], fld.times)
            rate = np.maximum(rate, np.abs(res).max(axis=1))
            res -= fld.geometry.laplacian(f[lo:hi])
            res -= source[lo:hi] ** power
            defect = np.maximum(defect, np.abs(res).max(axis=1))
        return [defect / rate], None

    (worst,), _ = _reduce_blocks(fld, 1, fld.times.shape[0] - 1, block_terms)
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

    def block_terms(lo, hi):
        w = fld.gap(slice(lo - 1, hi + 1))
        lap_w = geom.laplacian(w[1:-1])[:, sl]
        w_t = _time_rate(w, fld.times)[:, sl]
        u, v = fld.u[lo:hi, sl], fld.v[lo:hi, sl]
        reac = ell * sig * v ** (sig - 1.0) * (u ** p_exp - ell**p_exp * v ** (sig * p_exp))
        return [np.abs(lap_w), np.abs(w_t), np.abs(reac)], lap_w - w_t - reac

    maxima, worst = _reduce_blocks(fld, 1, fld.times.shape[0] - 1, block_terms, geom.x[sl])
    return VerificationReport(
        inequality="gap-heat-inequality",
        params={"p": fld.p_exp, "r": fld.r_exp, "sigma": sig},
        tol=TOL_SECOND_ORDER, scale=max(1.0, *maxima), **worst)


def _comparison_terms(fld: SpaceTimeField, rows: slice) -> tuple[np.ndarray, np.ndarray]:
    return (fld.v[rows] ** (fld.r_exp + 1.0) / (fld.r_exp + 1.0),
            fld.u[rows] ** (fld.p_exp + 1.0) / (fld.p_exp + 1.0))


def verify_component_comparison(fld: SpaceTimeField) -> VerificationReport:
    """Margin v^(r+1)/(r+1) - u^(p+1)/(p+1) >= 0 at all snapshot nodes."""
    def block_terms(lo, hi):
        v_term, u_term = _comparison_terms(fld, slice(lo, hi))
        return [v_term, u_term], v_term - u_term

    # division by a positive constant is monotone: max(x / c) == max(x) / c
    maxima, worst = _reduce_blocks(fld, 0, fld.times.shape[0], block_terms, fld.geometry.x)
    return VerificationReport(
        inequality="parabolic-power-comparison",
        params={"p": fld.p_exp, "r": fld.r_exp}, tol=TOL_FIRST_ORDER,
        scale=max(1.0, *maxima), caveats=[ETERNALITY_CAVEAT], **worst)


def verify_sign_propagation(fld: SpaceTimeField) -> VerificationReport:
    """With w(., 0) <= 0, later snapshots keep max w below tol * scale.

    A positive initial gap, or a field with no snapshot after t = 0 (a run
    truncated at its start), makes the check not applicable (no verdict),
    not a failure.
    """
    w0 = fld.gap(slice(0, 1))
    w0_max = float(w0.max())

    def block_terms(lo, hi):
        w = fld.gap(slice(lo, hi))
        return [np.abs(w)], -w

    # the claim is w <= 0 on later snapshots, so the margin reduced is -w
    (w_max,), worst = _reduce_blocks(fld, 1, fld.times.shape[0], block_terms, fld.geometry.x,
                                     maxima=[np.abs(w0).max()])
    scale = max(1.0, w_max)
    params = {"p": fld.p_exp, "r": fld.r_exp, "initial_max_gap": w0_max}
    if w0_max > TOL_FIRST_ORDER * scale:
        caveat = "not applicable: initial gap has positive nodes"
    elif len(fld.times) < 2:
        caveat = "not applicable: no snapshot after t = 0"
    else:
        return VerificationReport(
            inequality="negativity-propagation", params=params,
            tol=TOL_SECOND_ORDER, scale=scale, **worst)
    return VerificationReport(
        inequality="negativity-propagation", params=params, applicable=False,
        min_margin=-w0_max, argmin_r=np.nan, tol=TOL_SECOND_ORDER, scale=scale,
        caveats=[caveat])


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
    # at large p, (1 + t)^p overflows to +inf, the right value of a passing margin
    with np.errstate(over="ignore"):
        rel1 = (1.0 + t) ** p_exp - 1.0 - t_p
    rel2 = 1.0 - t_p - (p_exp / (1.0 + eps)) * t ** (p_exp - eps - 1.0) * (1.0 - t) ** (1.0 + eps)

    worst = float(min(rel1.min(), rel2.min()))
    violations = int((rel1 < -1e-12).sum() + (rel2 < -1e-12).sum())
    return VerificationReport(
        inequality="scalar-power-bounds",
        params={"p": p_exp, "r": r_exp, "epsilon": eps,
                "num_samples": int(t.shape[0]), "violations": violations},
        min_margin=worst, argmin_r=np.nan, tol=1e-12, scale=1.0)
