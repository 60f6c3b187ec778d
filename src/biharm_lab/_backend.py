"""Radial DP5 integrator kernel, the package hot spot.

Integrates the first-order reduction of the coupled radial system

    lap u = v^rexp,   lap v = -u^(-q)

with a Dormand-Prince 5(4) embedded pair and a fourth-order even-series
start through the removable singularity at r = 0.  Steps are chosen by the
error control alone; only the last one is clamped onto the window end
r_N = N*h.  The uniform grid nodes are filled once per shot, with NumPy,
from the quartic continuous extension of the accepted steps (Shampine 1986,
Math. Comp. 46; Hairer-Norsett-Wanner, Solving ODEs I, II.6), so the step
count does not grow with N.

The verifiers difference the stored fields twice, which amplifies step noise
by 1/h^2, so the kernel tightens the requested rtol to at most
TOL_PER_H2 * h^2 and scales the fixed absolute tolerance ATOL by the same
factor.  A shot ends when u or v falls to POSITIVITY_FLOOR times its initial
value, or after MAX_STEPS attempted steps.

The stage arithmetic is deliberately unrolled onto scalars: every shot runs
hundreds of steps on a four-component state, where per-step array and
tableau-loop overhead would dominate the arithmetic.

Status codes: 0 = reached the window end, 1 = a component touched its
positivity floor, 2 = integrator failure (step underflow / non-finite state).
"""
from __future__ import annotations

import math
import struct

import numpy as np

#: name of the kernel implementation, reported in run records
BACKEND = "python"

STATUS_OK = 0
STATUS_TOUCHED = 1
STATUS_FAILED = 2

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


def _rhs(r, u, du, v, dv, n, q, rexp):
    """Returns (ok, u', du', v', dv'); ok=False when powers are undefined."""
    if u <= 0.0 or v < 0.0:
        return False, 0.0, 0.0, 0.0, 0.0
    try:
        vr = v**rexp
        uq = u**-q
    except (OverflowError, ValueError, ZeroDivisionError):
        return False, 0.0, 0.0, 0.0, 0.0
    if not (math.isfinite(vr) and math.isfinite(uq)):
        return False, 0.0, 0.0, 0.0, 0.0
    c = (n - 1.0) / r
    return True, du, vr - c * du, dv, -uq - c * dv


def _last_node(r, h, N):
    """Largest i <= N with i*h <= r."""
    i = min(N, int(r / h))
    while i < N and (i + 1) * h <= r:
        i += 1
    while i > 0 and i * h > r:
        i -= 1
    return i


def _dense_fill(steps, h, i_first, i_stop, outs):
    """Evaluate the continuous extension of the stored steps at nodes i_first..i_stop."""
    if i_stop < i_first:
        return
    data = np.frombuffer(b"".join(steps), dtype=float).reshape(-1, _STEP_WIDTH)
    r0, dt = data[:, 0], data[:, 1]
    # (steps, component, power): Q[s, c, m] = sum_j k_j[c] P[j, m]
    Q = data[:, 6:].reshape(-1, 7, 4).transpose(0, 2, 1) @ _P
    ri = np.arange(i_first, i_stop + 1) * h
    s = np.searchsorted(r0, ri, side="right") - 1
    dts = dt[s]
    x = (ri - r0[s]) / dts
    for c, out in enumerate(outs):
        qc = Q[s, c]
        poly = x * (qc[:, 0] + x * (qc[:, 1] + x * (qc[:, 2] + x * qc[:, 3])))
        out[i_first:i_stop + 1] = data[s, 2 + c] + dts * poly


def radial_ivp(n, q, rexp, u0, v0, h, num_intervals, rtol=RTOL):
    """Integrate outward on [0, N*h] and sample the uniform grid r_i = i*h.

    Returns (u, du, v, dv, status, i_stop, r_event, stats); the arrays are
    valid through index i_stop: N when the shot reached the window end,
    else the last node at or before the start of the step that ended it.
    r_event is the end of the accepted step that crossed the positivity
    floor (touched), the window end (ok) or the last accepted point
    (failed).  stats counts the accepted and rejected steps and the
    right-hand-side evaluations.
    """
    N = int(num_intervals)
    u_out = np.zeros(N + 1)
    du_out = np.zeros(N + 1)
    v_out = np.zeros(N + 1)
    dv_out = np.zeros(N + 1)
    outs = (u_out, du_out, v_out, dv_out)
    u_out[0], du_out[0], v_out[0], dv_out[0] = u0, 0.0, v0, 0.0
    stats = {"accepted": 0, "rejected": 0, "rhs_evals": 0}

    fl_u = POSITIVITY_FLOOR * u0
    fl_v = POSITIVITY_FLOOR * v0

    # even-series start: u = u0 + au r^2 + bu r^4, v = v0 + av r^2 + bv r^4
    uq0 = u0**-q
    vr0 = v0**rexp if v0 > 0.0 else 0.0
    au = vr0 / (2.0 * n)
    av = -uq0 / (2.0 * n)
    denom4 = 8.0 * n * (n + 2.0)
    bu = -rexp * v0 ** (rexp - 1.0) * uq0 / denom4 if v0 > 0.0 else 0.0
    bv = q * u0 ** (-q - 1.0) * vr0 / denom4

    r_start = min(h, 1e-2)
    r = r_start
    r2 = r * r
    u = u0 + au * r2 + bu * r2 * r2
    du = 2.0 * au * r + 4.0 * bu * r2 * r
    v = v0 + av * r2 + bv * r2 * r2
    dv = 2.0 * av * r + 4.0 * bv * r2 * r

    if u <= fl_u or v <= fl_v:
        return u_out, du_out, v_out, dv_out, STATUS_TOUCHED, 0, r, stats
    i_first = 1
    if r_start == h:
        u_out[1], du_out[1], v_out[1], dv_out[1] = u, du, v, dv
        i_first = 2
        if N == 1:
            return u_out, du_out, v_out, dv_out, STATUS_OK, N, r, stats

    fac_tol = min(1.0, TOL_PER_H2 * h * h / rtol)
    rtol *= fac_tol
    atol = ATOL * fac_tol
    r_end = N * h
    # one packed record per accepted step, read back as one float array;
    # packing keeps the store compact next to tuples of Python floats
    steps = []
    push = steps.append

    def finish(status, r_covered, r_event, accepted, rejected, nfev):
        i_stop = _last_node(r_covered, h, N)
        _dense_fill(steps, h, i_first, i_stop, outs)
        stats.update(accepted=accepted, rejected=rejected, rhs_evals=nfev)
        return u_out, du_out, v_out, dv_out, status, i_stop, r_event, stats

    dt_nat = 0.5 * min(h, 1e-3)
    dt_min = 1e-13 * max(h, 1.0)
    nfev = 1
    ok, k1_0, k1_1, k1_2, k1_3 = _rhs(r, u, du, v, dv, n, q, rexp)
    accepted = rejected = 0
    if not ok:
        return finish(STATUS_FAILED, r, r, accepted, rejected, nfev)

    while accepted + rejected < MAX_STEPS:
        clamped = r + dt_nat >= r_end
        dtc = r_end - r if clamped else dt_nat

        nfev += 1
        ok_all, k2_0, k2_1, k2_2, k2_3 = _rhs(
            r + _A21 * dtc,
            u + dtc * _A21 * k1_0, du + dtc * _A21 * k1_1,
            v + dtc * _A21 * k1_2, dv + dtc * _A21 * k1_3, n, q, rexp)
        if ok_all:
            nfev += 1
            ok_all, k3_0, k3_1, k3_2, k3_3 = _rhs(
                r + 0.3 * dtc,
                u + dtc * (_A31 * k1_0 + _A32 * k2_0),
                du + dtc * (_A31 * k1_1 + _A32 * k2_1),
                v + dtc * (_A31 * k1_2 + _A32 * k2_2),
                dv + dtc * (_A31 * k1_3 + _A32 * k2_3), n, q, rexp)
        if ok_all:
            nfev += 1
            ok_all, k4_0, k4_1, k4_2, k4_3 = _rhs(
                r + 0.8 * dtc,
                u + dtc * (_A41 * k1_0 + _A42 * k2_0 + _A43 * k3_0),
                du + dtc * (_A41 * k1_1 + _A42 * k2_1 + _A43 * k3_1),
                v + dtc * (_A41 * k1_2 + _A42 * k2_2 + _A43 * k3_2),
                dv + dtc * (_A41 * k1_3 + _A42 * k2_3 + _A43 * k3_3), n, q, rexp)
        if ok_all:
            nfev += 1
            ok_all, k5_0, k5_1, k5_2, k5_3 = _rhs(
                r + (8.0 / 9.0) * dtc,
                u + dtc * (_A51 * k1_0 + _A52 * k2_0 + _A53 * k3_0 + _A54 * k4_0),
                du + dtc * (_A51 * k1_1 + _A52 * k2_1 + _A53 * k3_1 + _A54 * k4_1),
                v + dtc * (_A51 * k1_2 + _A52 * k2_2 + _A53 * k3_2 + _A54 * k4_2),
                dv + dtc * (_A51 * k1_3 + _A52 * k2_3 + _A53 * k3_3 + _A54 * k4_3),
                n, q, rexp)
        if ok_all:
            nfev += 1
            ok_all, k6_0, k6_1, k6_2, k6_3 = _rhs(
                r + dtc,
                u + dtc * (_A61 * k1_0 + _A62 * k2_0 + _A63 * k3_0 + _A64 * k4_0 + _A65 * k5_0),
                du + dtc * (_A61 * k1_1 + _A62 * k2_1 + _A63 * k3_1 + _A64 * k4_1 + _A65 * k5_1),
                v + dtc * (_A61 * k1_2 + _A62 * k2_2 + _A63 * k3_2 + _A64 * k4_2 + _A65 * k5_2),
                dv + dtc * (_A61 * k1_3 + _A62 * k2_3 + _A63 * k3_3 + _A64 * k4_3 + _A65 * k5_3),
                n, q, rexp)
        if ok_all:
            z0 = u + dtc * (_B1 * k1_0 + _B3 * k3_0 + _B4 * k4_0 + _B5 * k5_0 + _B6 * k6_0)
            z1 = du + dtc * (_B1 * k1_1 + _B3 * k3_1 + _B4 * k4_1 + _B5 * k5_1 + _B6 * k6_1)
            z2 = v + dtc * (_B1 * k1_2 + _B3 * k3_2 + _B4 * k4_2 + _B5 * k5_2 + _B6 * k6_2)
            z3 = dv + dtc * (_B1 * k1_3 + _B3 * k3_3 + _B4 * k4_3 + _B5 * k5_3 + _B6 * k6_3)
            nfev += 1
            ok_all, k7_0, k7_1, k7_2, k7_3 = _rhs(r + dtc, z0, z1, z2, z3, n, q, rexp)

        if ok_all:
            e = dtc * (_E1 * k1_0 + _E3 * k3_0 + _E4 * k4_0 + _E5 * k5_0 + _E6 * k6_0 + _E7 * k7_0)
            sc = atol + rtol * max(abs(u), abs(z0))
            err = (e / sc) ** 2
            e = dtc * (_E1 * k1_1 + _E3 * k3_1 + _E4 * k4_1 + _E5 * k5_1 + _E6 * k6_1 + _E7 * k7_1)
            sc = atol + rtol * max(abs(du), abs(z1))
            err += (e / sc) ** 2
            e = dtc * (_E1 * k1_2 + _E3 * k3_2 + _E4 * k4_2 + _E5 * k5_2 + _E6 * k6_2 + _E7 * k7_2)
            sc = atol + rtol * max(abs(v), abs(z2))
            err += (e / sc) ** 2
            e = dtc * (_E1 * k1_3 + _E3 * k3_3 + _E4 * k4_3 + _E5 * k5_3 + _E6 * k6_3 + _E7 * k7_3)
            sc = atol + rtol * max(abs(dv), abs(z3))
            err += (e / sc) ** 2
            err = math.sqrt(err / 4.0)
        else:
            err = math.inf

        if err <= 1.0:
            accepted += 1
            r_next = r_end if clamped else r + dtc
            if z0 <= fl_u or z2 <= fl_v:
                return finish(STATUS_TOUCHED, r, r_next, accepted, rejected, nfev)
            push(_pack_step(
                r, dtc, u, du, v, dv,
                k1_0, k1_1, k1_2, k1_3, k2_0, k2_1, k2_2, k2_3,
                k3_0, k3_1, k3_2, k3_3, k4_0, k4_1, k4_2, k4_3,
                k5_0, k5_1, k5_2, k5_3, k6_0, k6_1, k6_2, k6_3,
                k7_0, k7_1, k7_2, k7_3))
            r = r_next
            u, du, v, dv = z0, z1, z2, z3
            k1_0, k1_1, k1_2, k1_3 = k7_0, k7_1, k7_2, k7_3
            if clamped:
                return finish(STATUS_OK, r, r, accepted, rejected, nfev)
            fac = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err**-0.2))
            dt_nat = dtc * fac
        else:
            rejected += 1
            fac = 0.2 if err == math.inf else min(0.9, max(0.2, 0.9 * err**-0.2))
            dt_nat = dtc * fac
            if dt_nat < dt_min:
                near_u = u <= max(2.0 * fl_u, 1e-5 * u0)
                near_v = v <= max(2.0 * fl_v, 1e-5 * v0)
                status = STATUS_TOUCHED if (near_u or near_v) else STATUS_FAILED
                return finish(status, r, r, accepted, rejected, nfev)

    return finish(STATUS_FAILED, r, r, accepted, rejected, nfev)
