"""Radial DP5 integrator kernel, the package hot spot.

Integrates the first-order reduction of the coupled radial system

    lap u = v^rexp,   lap v = -u^(-q)

with a Dormand-Prince 5(4) embedded pair, a fourth-order even-series start
through the removable singularity at r = 0, and step clamping so that every
uniform grid node is hit exactly.

The stage arithmetic is deliberately unrolled onto scalars: every shot runs
thousands of steps on a four-component state, where per-step array and
tableau-loop overhead would dominate the arithmetic.

Status codes: 0 = reached the window end, 1 = a component touched its
positivity floor, 2 = integrator failure (step underflow / non-finite state).
"""
from __future__ import annotations

import math

import numpy as np

#: name of the kernel implementation, reported in run records
BACKEND = "python"

STATUS_OK = 0
STATUS_TOUCHED = 1
STATUS_FAILED = 2

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


def radial_ivp(n, q, rexp, u0, v0, h, num_intervals, rtol=1e-9, atol=1e-12,
               floor_frac=1e-8, max_steps=20_000_000):
    """Integrate outward on the uniform grid r_i = i*h, i = 0..num_intervals.

    Returns (u, du, v, dv, status, i_stop, r_event); the arrays are valid
    through index i_stop.
    """
    N = int(num_intervals)
    u_out = np.zeros(N + 1)
    du_out = np.zeros(N + 1)
    v_out = np.zeros(N + 1)
    dv_out = np.zeros(N + 1)
    u_out[0], du_out[0], v_out[0], dv_out[0] = u0, 0.0, v0, 0.0

    fl_u = floor_frac * u0
    fl_v = floor_frac * v0

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
        return u_out, du_out, v_out, dv_out, STATUS_TOUCHED, 0, r
    i_next = 1
    if r_start == h:
        u_out[1], du_out[1], v_out[1], dv_out[1] = u, du, v, dv
        i_next = 2
        if i_next > N:
            return u_out, du_out, v_out, dv_out, STATUS_OK, N, r
    i_stop = i_next - 1

    dt_nat = 0.5 * min(h, 1e-3)
    dt_min = 1e-13 * max(h, 1.0)
    ok, k1_0, k1_1, k1_2, k1_3 = _rhs(r, u, du, v, dv, n, q, rexp)
    if not ok:
        return u_out, du_out, v_out, dv_out, STATUS_FAILED, i_stop, r

    steps = 0
    while steps < max_steps:
        steps += 1
        r_target = i_next * h
        clamped = r + dt_nat >= r_target
        dtc = r_target - r if clamped else dt_nat

        ok_all, k2_0, k2_1, k2_2, k2_3 = _rhs(
            r + _A21 * dtc,
            u + dtc * _A21 * k1_0, du + dtc * _A21 * k1_1,
            v + dtc * _A21 * k1_2, dv + dtc * _A21 * k1_3, n, q, rexp)
        if ok_all:
            ok_all, k3_0, k3_1, k3_2, k3_3 = _rhs(
                r + 0.3 * dtc,
                u + dtc * (_A31 * k1_0 + _A32 * k2_0),
                du + dtc * (_A31 * k1_1 + _A32 * k2_1),
                v + dtc * (_A31 * k1_2 + _A32 * k2_2),
                dv + dtc * (_A31 * k1_3 + _A32 * k2_3), n, q, rexp)
        if ok_all:
            ok_all, k4_0, k4_1, k4_2, k4_3 = _rhs(
                r + 0.8 * dtc,
                u + dtc * (_A41 * k1_0 + _A42 * k2_0 + _A43 * k3_0),
                du + dtc * (_A41 * k1_1 + _A42 * k2_1 + _A43 * k3_1),
                v + dtc * (_A41 * k1_2 + _A42 * k2_2 + _A43 * k3_2),
                dv + dtc * (_A41 * k1_3 + _A42 * k2_3 + _A43 * k3_3), n, q, rexp)
        if ok_all:
            ok_all, k5_0, k5_1, k5_2, k5_3 = _rhs(
                r + (8.0 / 9.0) * dtc,
                u + dtc * (_A51 * k1_0 + _A52 * k2_0 + _A53 * k3_0 + _A54 * k4_0),
                du + dtc * (_A51 * k1_1 + _A52 * k2_1 + _A53 * k3_1 + _A54 * k4_1),
                v + dtc * (_A51 * k1_2 + _A52 * k2_2 + _A53 * k3_2 + _A54 * k4_2),
                dv + dtc * (_A51 * k1_3 + _A52 * k2_3 + _A53 * k3_3 + _A54 * k4_3),
                n, q, rexp)
        if ok_all:
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
            r = r_target if clamped else r + dtc
            u, du, v, dv = z0, z1, z2, z3
            k1_0, k1_1, k1_2, k1_3 = k7_0, k7_1, k7_2, k7_3
            if u <= fl_u or v <= fl_v:
                return u_out, du_out, v_out, dv_out, STATUS_TOUCHED, i_stop, r
            if clamped:
                u_out[i_next], du_out[i_next] = u, du
                v_out[i_next], dv_out[i_next] = v, dv
                i_stop = i_next
                i_next += 1
                if i_next > N:
                    return u_out, du_out, v_out, dv_out, STATUS_OK, N, r
            else:
                fac = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err**-0.2))
                dt_nat = dtc * fac
        else:
            fac = 0.2 if err == math.inf else min(0.9, max(0.2, 0.9 * err**-0.2))
            dt_nat = dtc * fac
            if dt_nat < dt_min:
                near_u = u <= max(2.0 * fl_u, 1e-5 * u0)
                near_v = v <= max(2.0 * fl_v, 1e-5 * v0)
                status = STATUS_TOUCHED if (near_u or near_v) else STATUS_FAILED
                return u_out, du_out, v_out, dv_out, status, i_stop, r

    return u_out, du_out, v_out, dv_out, STATUS_FAILED, i_stop, r
