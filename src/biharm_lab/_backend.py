"""Radial DP5 integrator kernel, the package hot spot.

Integrates the first-order reduction of the coupled radial system

    lap u = v^rexp,   lap v = -u^(-q)

with a Dormand-Prince 5(4) embedded pair and a fourth-order even-series
start through the removable singularity at r = 0.  Steps are chosen by the
error control alone.  integrate returns the accepted steps and why the shot
stopped (a Shot); fill samples a Shot on any uniform grid, with NumPy, from
the quartic continuous extension of the steps (Shampine 1986, Math. Comp.
46; Hairer-Norsett-Wanner, Solving ODEs I, II.6), so the step count does not
grow with N.  Every shot starts inside the even series' range and stops
after the first accepted step that reaches its window end: radial_ivp samples
it on one grid, a sweep on the rescaled grids of a scale-invariant family, of
which a direct shot is the lam = 1 member.

The verifiers difference the stored fields twice, which amplifies step noise
by 1/h^2, so the kernel tightens the requested rtol to at most
TOL_PER_H2 * h^2 and scales the fixed absolute tolerance ATOL by the same
factor.  A shot ends when u or v falls to POSITIVITY_FLOOR times its initial
value, or after MAX_STEPS attempted steps.

The stage arithmetic is deliberately unrolled onto scalars: every shot runs
hundreds of steps on a four-component state, where per-step array and
tableau-loop overhead would dominate the arithmetic.  For the same reason
every stage, the first slope included, computes the right-hand side inline
instead of calling a function, and the error norm and step factor use
conditionals instead of abs, max and min: those calls and their result
tuples were about a third of a step.  A step takes about 8.3 us against
12.3 us with the calls (Python 3.11, one core of a shared 2-core x86-64
machine, 108 shots at N = 1024).  The plain form, one right-hand-side call
per stage and a loop over the tableau, lives in the tests (TestPlainForm),
which pin this kernel's output bitwise to it.  An undefined or non-finite
power raises _Undefined: a stage catches it once as a rejection, as it does
an error norm past the float range, and the first slope as an undefined
start.

Status codes: 0 = reached the window end, 1 = a component touched its
positivity floor, 2 = integrator failure; stats["stop"] names the cause
(STOPS).
"""
from __future__ import annotations

import math
import struct
from typing import NamedTuple

import numpy as np

#: name of the kernel implementation, reported in run records
BACKEND = "python"

STATUS_OK = 0
STATUS_TOUCHED = 1
STATUS_FAILED = 2
#: stats["stop"] of a shot and the status it returns; status 2 has three causes
STOPS = {"window-end": STATUS_OK, "touched": STATUS_TOUCHED,
         "step-underflow": STATUS_FAILED, "max-steps": STATUS_FAILED,
         "undefined-start": STATUS_FAILED}

#: default relative tolerance of a shot, an upper bound (see TOL_PER_H2)
RTOL = 1e-9
#: absolute tolerance, scaled by the same factor as rtol
ATOL = 1e-12
#: rtol is capped at TOL_PER_H2 * h^2 so that second differences of the
#: dense output stay at the truncation floor of the grid
TOL_PER_H2 = 2.5e-6
#: u (and v) below this fraction of their initial value ends the window
POSITIVITY_FLOOR = 1e-8
#: attempted steps after which a shot counts as an integrator failure
MAX_STEPS = 20_000_000
#: a term of the start series falls to this fraction of the one before it at s
START_FRACTION = 1e-3
#: grid nodes sampled from the continuous extension at a time
FILL_BLOCK_NODES = 4096

# Dormand-Prince 5(4) tableau (FSAL)
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0,
                                49.0 / 176.0, -5103.0 / 18656.0)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
_E1, _E3, _E4, _E5, _E6, _E7 = (71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0,
                                -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)
# continuous extension (Shampine's optimal c6): over a step of size dt from
# y, y(r + x dt) = y + dt * sum_m x^(m+1) sum_j k_j _P[j, m], j = stage 1..7
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])
#: floats stored per accepted step: r, dt, the state and the seven stages
_STEP_WIDTH = 2 + 4 + 7 * 4
_pack_step = struct.Struct(f"{_STEP_WIDTH}d").pack


class _Undefined(ArithmeticError):
    """A stage power is undefined or not finite: the step is rejected."""


def _last_node(r, h, N):
    """Largest i <= N with i*h <= r."""
    i = min(N, int(r / h))
    while i < N and (i + 1) * h <= r:
        i += 1
    while i > 0 and i * h > r:
        i -= 1
    return i


def _dense_fill(steps, poly, h, i_first, i_stop, outs):
    """Evaluate the continuous extension of the steps at nodes i_first..i_stop.

    steps holds one packed record per step (r, dt, the state, the stages) and
    poly its extension coefficients, _extension(steps).  Nodes are taken
    FILL_BLOCK_NODES at a time, each with its own step, so the transients
    grow with the block, not the grid, and the values do not depend on it.
    """
    r0, dt = steps[:, 0], steps[:, 1]
    for lo in range(i_first, i_stop + 1, FILL_BLOCK_NODES):
        hi = min(lo + FILL_BLOCK_NODES, i_stop + 1)
        ri = np.arange(lo, hi) * h
        s = np.searchsorted(r0, ri, side="right") - 1
        dts = dt[s]
        x = (ri - r0[s]) / dts
        # the four components at once: (node, component) blocks, Horner in x
        q, xc = poly[s], x[:, None]
        p = xc * (q[..., 0] + xc * (q[..., 1] + xc * (q[..., 2] + xc * q[..., 3])))
        vals = steps[s, 2:6] + dts[:, None] * p
        for c, out in enumerate(outs):
            out[lo:hi] = vals[:, c]


def _extension(steps):
    """(steps, component, power): Q[s, c, m] = sum_j k_j[c] P[j, m]."""
    return steps[:, 6:].reshape(-1, 7, 4).transpose(0, 2, 1) @ _P


class Shot(NamedTuple):
    """One integration: its accepted steps, the even-series start and the stop.

    series is (r_start, u0, au, bu, v0, av, bv) of the start
    u = u0 + au r^2 + bu r^4, v = v0 + av r^2 + bv r^4.  The steps cover
    [r_start, r_covered]; r_covered is 0 when the start already stopped the
    shot, and r_event is as radial_ivp returns it.
    """

    steps: np.ndarray
    poly: np.ndarray
    series: tuple
    stop: str
    r_covered: float
    r_event: float
    stats: dict


def fill(shot: Shot, h: float, num_intervals: int):
    """Sample a shot on the uniform grid r_i = i*h, i = 0..N.

    Returns (u, du, v, dv, status, i_stop).  The arrays are valid through
    i_stop, the last node the shot covers; status is STATUS_OK when the shot
    covers the whole grid, else its stop's.  Nodes at or below r_start come
    from the even series, the others from the continuous extension of the
    steps that start before the grid's end, so a grid reads the same steps
    however far past it the shot ran.
    """
    N = int(num_intervals)
    outs = u, du, v, dv = tuple(np.zeros(N + 1) for _ in range(4))
    r_start, u[0], v[0] = shot.series[0], shot.series[1], shot.series[4]
    r_end = N * h
    status = STATUS_OK if shot.r_covered >= r_end else STOPS[shot.stop]
    i_stop = _last_node(shot.r_covered, h, N)
    i_series = min(i_stop, _last_node(r_start, h, N))
    if i_series:
        for out, vals in zip(outs, _series_values(shot.series, np.arange(1, i_series + 1) * h)):
            out[1:i_series + 1] = vals
    m = np.searchsorted(shot.steps[:, 0], r_end)   # the steps that start on the grid
    _dense_fill(shot.steps[:m], shot.poly[:m], h, i_series + 1, i_stop, outs)
    return u, du, v, dv, status, i_stop


def radial_ivp(n, q, rexp, u0, v0, h, num_intervals, rtol=RTOL):
    """Integrate outward on [0, N*h] and sample the uniform grid r_i = i*h.

    Returns (u, du, v, dv, status, i_stop, r_event, stats); the arrays are
    valid through index i_stop: N when the shot reached the window end,
    else the last node at or before the start of the step that ended it.
    r_event is the end of the accepted step that crossed the positivity
    floor (touched) or reached the window end (ok, at or past r_N), or the
    last accepted point (failed).  stats counts the accepted and rejected
    steps and the right-hand-side evaluations, gives the smallest and
    largest accepted step (None before the first) and names why the shot
    stopped (STOPS).
    """
    N = int(num_intervals)
    shot = integrate(n, q, rexp, u0, v0, h, N * h, rtol)
    *arrays, status, i_stop = fill(shot, h, N)
    return (*arrays, status, i_stop, shot.r_event, shot.stats)


def series_start(n, q, rexp, u0, v0):
    """(s, au, bu, av, bv) of the even-series start u = u0 + au r^2 + bu r^4,
    v = v0 + av r^2 + bv r^4, s the radius where each nonzero term has fallen
    to START_FRACTION of the nonzero term before it (a ratio, so s scales
    with lam).  Raises ArithmeticError when a power of the initial values
    overflows or s underflows to 0, where a shot stops as "undefined-start"."""
    denom4 = 8.0 * n * (n + 2.0)
    uq0 = u0**-q
    vr0 = v0**rexp if v0 > 0.0 else 0.0
    bu = -rexp * v0 ** (rexp - 1.0) * uq0 / denom4 if v0 > 0.0 else 0.0
    bv = q * u0 ** (-q - 1.0) * vr0 / denom4
    au, av = vr0 / (2.0 * n), -uq0 / (2.0 * n)
    s = min((math.sqrt(START_FRACTION * abs(c0 / c1))
             for c0, c1 in ((u0, au), (au, bu), (v0, av), (av, bv)) if c0 and c1),
            default=math.inf)
    if s == 0.0:
        raise ArithmeticError("the even series has no range in floats")
    return s, au, bu, av, bv


def _series_values(series, r):
    """(u, du, v, dv) of the even-series start at r, a float or an array."""
    _, u0, au, bu, v0, av, bv = series
    r2 = r * r
    return (u0 + au * r2 + bu * r2 * r2, 2.0 * au * r + 4.0 * bu * r2 * r,
            v0 + av * r2 + bv * r2 * r2, 2.0 * av * r + 4.0 * bv * r2 * r)


def integrate(n, q, rexp, u0, v0, h, r_end, rtol=RTOL) -> Shot:
    """Integrate outward from r = 0 until r_end, a touch or a failure.

    h sets the first step and the tolerance cap, as for a shot on the grid of
    spacing h.  The shot starts from the even series at
    r_start = min(h, 1e-2, s), s the series' own scale (series_start), and
    stops after the first accepted step that reaches r_end, so its steps do
    not depend on r_end.
    """
    # one packed record per accepted step, read back as one float array;
    # packing keeps the store compact next to tuples of Python floats
    steps = []
    push = steps.append

    def finish(stop, r_covered, r_event, accepted=0, rejected=0, nfev=0, dt_lo=0.0, dt_hi=0.0):
        data = np.frombuffer(b"".join(steps), dtype=float).reshape(-1, _STEP_WIDTH)
        stats = {"accepted": accepted, "rejected": rejected, "rhs_evals": nfev,
                 "dt_min": dt_lo if accepted else None, "dt_max": dt_hi if accepted else None,
                 "stop": stop}
        return Shot(data, _extension(data), series, stop, r_covered, r_event, stats)

    fl_u = POSITIVITY_FLOOR * u0
    fl_v = POSITIVITY_FLOOR * v0

    try:
        s, au, bu, av, bv = series_start(n, q, rexp, u0, v0)
    except ArithmeticError:
        # the start is never read: the shot covers no node past r = 0
        series = (0.0, u0, 0.0, 0.0, v0, 0.0, 0.0)
        return finish("undefined-start", 0.0, 0.0)
    r = r_start = min(h, 1e-2, s)
    series = (r_start, u0, au, bu, v0, av, bv)
    u, du, v, dv = _series_values(series, r)

    if u <= fl_u or v <= fl_v:
        return finish("touched", 0.0, r)
    if r_start >= r_end:
        return finish("window-end", r, r)

    fac_tol = min(1.0, TOL_PER_H2 * h * h / rtol)
    rtol *= fac_tol
    atol = ATOL * fac_tol

    dt = 0.5 * min(h, 1e-3)
    dt_floor = 1e-13 * max(h, 1.0)
    dt_lo, dt_hi = math.inf, 0.0
    # loop constants as fast locals; each has the value of the expression it replaces
    inf = math.inf
    sqrt = math.sqrt
    nm1 = n - 1.0
    mq = -q

    # the right-hand side k = (du, v^rexp - c du, dv, -u^-q - c dv), c = (n - 1)/r,
    # at the start: the first slope, guarded as each stage below is
    nfev = 1
    try:
        if u <= 0.0 or v < 0.0:
            raise _Undefined
        vr = v**rexp
        uq = u**mq
        if not (vr < inf and uq < inf):
            raise _Undefined
    except ArithmeticError:   # the guards leave pow no ValueError to raise
        return finish("undefined-start", r, r, nfev=nfev)
    c = nm1 / r
    k1_0, k1_1, k1_2, k1_3 = du, vr - c * du, dv, -uq - c * dv

    accepted = rejected = 0
    while accepted + rejected < MAX_STEPS:
        # stages 2-7, each the stage state followed by the right-hand side at it
        try:
            nfev += 1
            d = dt * _A21
            s0 = u + d * k1_0
            k2_0 = du + d * k1_1
            s2 = v + d * k1_2
            k2_2 = dv + d * k1_3
            if s0 <= 0.0 or s2 < 0.0:
                raise _Undefined
            vr = s2**rexp
            uq = s0**mq
            if not (vr < inf and uq < inf):
                raise _Undefined
            c = nm1 / (r + _A21 * dt)
            k2_1 = vr - c * k2_0
            k2_3 = -uq - c * k2_2

            nfev += 1
            s0 = u + dt * (_A31 * k1_0 + _A32 * k2_0)
            k3_0 = du + dt * (_A31 * k1_1 + _A32 * k2_1)
            s2 = v + dt * (_A31 * k1_2 + _A32 * k2_2)
            k3_2 = dv + dt * (_A31 * k1_3 + _A32 * k2_3)
            if s0 <= 0.0 or s2 < 0.0:
                raise _Undefined
            vr = s2**rexp
            uq = s0**mq
            if not (vr < inf and uq < inf):
                raise _Undefined
            c = nm1 / (r + 0.3 * dt)
            k3_1 = vr - c * k3_0
            k3_3 = -uq - c * k3_2

            nfev += 1
            s0 = u + dt * (_A41 * k1_0 + _A42 * k2_0 + _A43 * k3_0)
            k4_0 = du + dt * (_A41 * k1_1 + _A42 * k2_1 + _A43 * k3_1)
            s2 = v + dt * (_A41 * k1_2 + _A42 * k2_2 + _A43 * k3_2)
            k4_2 = dv + dt * (_A41 * k1_3 + _A42 * k2_3 + _A43 * k3_3)
            if s0 <= 0.0 or s2 < 0.0:
                raise _Undefined
            vr = s2**rexp
            uq = s0**mq
            if not (vr < inf and uq < inf):
                raise _Undefined
            c = nm1 / (r + 0.8 * dt)
            k4_1 = vr - c * k4_0
            k4_3 = -uq - c * k4_2

            nfev += 1
            s0 = u + dt * (_A51 * k1_0 + _A52 * k2_0 + _A53 * k3_0 + _A54 * k4_0)
            k5_0 = du + dt * (_A51 * k1_1 + _A52 * k2_1 + _A53 * k3_1 + _A54 * k4_1)
            s2 = v + dt * (_A51 * k1_2 + _A52 * k2_2 + _A53 * k3_2 + _A54 * k4_2)
            k5_2 = dv + dt * (_A51 * k1_3 + _A52 * k2_3 + _A53 * k3_3 + _A54 * k4_3)
            if s0 <= 0.0 or s2 < 0.0:
                raise _Undefined
            vr = s2**rexp
            uq = s0**mq
            if not (vr < inf and uq < inf):
                raise _Undefined
            c = nm1 / (r + (8.0 / 9.0) * dt)
            k5_1 = vr - c * k5_0
            k5_3 = -uq - c * k5_2

            nfev += 1
            s0 = u + dt * (_A61 * k1_0 + _A62 * k2_0 + _A63 * k3_0 + _A64 * k4_0 + _A65 * k5_0)
            k6_0 = du + dt * (_A61 * k1_1 + _A62 * k2_1 + _A63 * k3_1 + _A64 * k4_1 + _A65 * k5_1)
            s2 = v + dt * (_A61 * k1_2 + _A62 * k2_2 + _A63 * k3_2 + _A64 * k4_2 + _A65 * k5_2)
            k6_2 = dv + dt * (_A61 * k1_3 + _A62 * k2_3 + _A63 * k3_3 + _A64 * k4_3 + _A65 * k5_3)
            if s0 <= 0.0 or s2 < 0.0:
                raise _Undefined
            vr = s2**rexp
            uq = s0**mq
            if not (vr < inf and uq < inf):
                raise _Undefined
            c = nm1 / (r + dt)   # stage 7 sits at the same radius
            k6_1 = vr - c * k6_0
            k6_3 = -uq - c * k6_2

            z0 = u + dt * (_B1 * k1_0 + _B3 * k3_0 + _B4 * k4_0 + _B5 * k5_0 + _B6 * k6_0)
            z1 = du + dt * (_B1 * k1_1 + _B3 * k3_1 + _B4 * k4_1 + _B5 * k5_1 + _B6 * k6_1)
            z2 = v + dt * (_B1 * k1_2 + _B3 * k3_2 + _B4 * k4_2 + _B5 * k5_2 + _B6 * k6_2)
            z3 = dv + dt * (_B1 * k1_3 + _B3 * k3_3 + _B4 * k4_3 + _B5 * k5_3 + _B6 * k6_3)
            nfev += 1
            if z0 <= 0.0 or z2 < 0.0:
                raise _Undefined
            vr = z2**rexp
            uq = z0**mq
            if not (vr < inf and uq < inf):
                raise _Undefined
            k7_0 = z1
            k7_1 = vr - c * z1
            k7_2 = z3
            k7_3 = -uq - c * z3

            # max(abs(a), abs(b)) as conditionals: the same value, without calls
            e = dt * (_E1 * k1_0 + _E3 * k3_0 + _E4 * k4_0 + _E5 * k5_0 + _E6 * k6_0 + _E7 * k7_0)
            a = u if u >= 0.0 else -u
            b = z0 if z0 >= 0.0 else -z0
            sc = atol + rtol * (b if b > a else a)
            err = (e / sc) ** 2
            e = dt * (_E1 * k1_1 + _E3 * k3_1 + _E4 * k4_1 + _E5 * k5_1 + _E6 * k6_1 + _E7 * k7_1)
            a = du if du >= 0.0 else -du
            b = z1 if z1 >= 0.0 else -z1
            sc = atol + rtol * (b if b > a else a)
            err += (e / sc) ** 2
            e = dt * (_E1 * k1_2 + _E3 * k3_2 + _E4 * k4_2 + _E5 * k5_2 + _E6 * k6_2 + _E7 * k7_2)
            a = v if v >= 0.0 else -v
            b = z2 if z2 >= 0.0 else -z2
            sc = atol + rtol * (b if b > a else a)
            err += (e / sc) ** 2
            e = dt * (_E1 * k1_3 + _E3 * k3_3 + _E4 * k4_3 + _E5 * k5_3 + _E6 * k6_3 + _E7 * k7_3)
            a = dv if dv >= 0.0 else -dv
            b = z3 if z3 >= 0.0 else -z3
            sc = atol + rtol * (b if b > a else a)
            err += (e / sc) ** 2
            err = sqrt(err / 4.0)
        except ArithmeticError:   # the guards leave pow no ValueError to raise
            err = inf   # also an error estimate past the float range

        if err <= 1.0:
            accepted += 1
            if dt < dt_lo:
                dt_lo = dt
            if dt > dt_hi:
                dt_hi = dt
            if z0 <= fl_u or z2 <= fl_v:
                return finish("touched", r, r + dt, accepted, rejected, nfev, dt_lo, dt_hi)
            push(_pack_step(
                r, dt, u, du, v, dv,
                k1_0, k1_1, k1_2, k1_3, k2_0, k2_1, k2_2, k2_3,
                k3_0, k3_1, k3_2, k3_3, k4_0, k4_1, k4_2, k4_3,
                k5_0, k5_1, k5_2, k5_3, k6_0, k6_1, k6_2, k6_3,
                k7_0, k7_1, k7_2, k7_3))
            r += dt
            u, du, v, dv = z0, z1, z2, z3
            k1_0, k1_1, k1_2, k1_3 = k7_0, k7_1, k7_2, k7_3
            if r >= r_end:
                return finish("window-end", r, r, accepted, rejected, nfev, dt_lo, dt_hi)
            # min(5, max(0.2, fac)) without calls: err <= 1 here, so fac >= 0.9
            fac = 5.0 if err == 0.0 else 0.9 * err**-0.2
            dt *= fac if fac < 5.0 else 5.0
        else:
            rejected += 1
            fac = 0.2 if err == inf else min(0.9, max(0.2, 0.9 * err**-0.2))
            dt *= fac
            if dt < dt_floor:
                near_u = u <= max(2.0 * fl_u, 1e-5 * u0)
                near_v = v <= max(2.0 * fl_v, 1e-5 * v0)
                stop = "touched" if (near_u or near_v) else "step-underflow"
                return finish(stop, r, r, accepted, rejected, nfev, dt_lo, dt_hi)

    return finish("max-steps", r, r, accepted, rejected, nfev, dt_lo, dt_hi)
