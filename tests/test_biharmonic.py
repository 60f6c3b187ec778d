import numpy as np
import pytest

from biharm_lab import _backend
from biharm_lab import biharmonic as bh
from biharm_lab.errors import DomainError, SizeError
from biharm_lab.grids import Field, RadialGrid, convergence_order

from conftest import GOLD_DU0, GOLD_U0


def test_backend_reported():
    assert _backend.BACKEND == "python"


def test_python_kernel_always_available():
    u, du, v, dv, status, i_stop, _, _ = _backend.radial_ivp(
        3, 7.0, 1.0, 1.0, 2.0, 10.0 / 256, 256)
    assert status == _backend.STATUS_OK and i_stop == 256
    assert np.all(u > 0)


def _exact_shot_stats(N):
    c = bh.EXACT_AMPLITUDE
    return _backend.radial_ivp(3, 7.0, 1.0, c, 3.0 * c, 20.0 / N, N)[7]


class TestDenseOutput:
    """Free steps with the continuous extension on the 20/32768 verify grid."""

    N = 32768

    def test_extension_matches_scipy(self):
        from scipy.integrate._ivp.rk import RK45, RkDenseOutput
        assert np.array_equal(_backend._P, RK45.P)
        rng = np.random.default_rng(7)
        h, r0 = 0.1, (0.05, 0.27, 0.61)
        dt = np.diff(r0 + (0.9,))
        steps = [np.concatenate(([r, d], rng.normal(size=4 + 7 * 4)))
                 for r, d in zip(r0, dt)]
        outs = tuple(np.zeros(10) for _ in range(4))
        data = np.array(steps)
        _backend._dense_fill(data, _backend._extension(data), h, 1, 9, outs)
        got = np.array(outs)[:, 1:]
        for i, r in enumerate(np.arange(1, 10) * h):
            s = np.searchsorted(r0, r, side="right") - 1
            y0, K = steps[s][2:6], steps[s][6:].reshape(7, 4)
            ref = RkDenseOutput(r0[s], r0[s] + dt[s], y0, K.T @ RK45.P)(r)
            np.testing.assert_allclose(got[:, i], ref, rtol=1e-13, atol=1e-13)

    @pytest.fixture(scope="class")
    def fine_shot(self):
        c = bh.EXACT_AMPLITUDE
        return bh.shoot(3, 7.0, c, 3.0 * c, 20.0, num_intervals=self.N)

    def test_matches_closed_form(self, fine_shot):
        ue = bh.exact_fields(fine_shot.grid.r)[0]
        assert np.abs(fine_shot.u.values - ue).max() <= 1e-9

    def test_residual_at_truncation_floor(self, fine_shot):
        sl = fine_shot.grid.trim_slice()
        res_shot = np.abs(bh.residual(fine_shot).values[sl]).max()
        exact = bh.exact_solution(fine_shot.grid)
        res_exact = np.abs(bh.residual(exact).values[sl]).max()
        assert res_shot <= 1.01 * res_exact

    def test_steps_decoupled_from_nodes(self):
        fine = _exact_shot_stats(self.N)
        coarse = _exact_shot_stats(4096)
        assert fine["accepted"] < self.N / 16
        assert fine["accepted"] <= 3 * coarse["accepted"]
        assert fine["rhs_evals"] >= 6 * fine["accepted"]

    @pytest.mark.parametrize("N", [512, 32768])
    def test_touched_zero_stops_before_event(self, N):
        h = 10.0 / N
        *_, status, i_stop, r_stop, _ = _backend.radial_ivp(3, 7.0, 1.0, 1.0, 0.3, h, N)
        assert status == _backend.STATUS_TOUCHED
        assert 0 < i_stop * h <= r_stop

    # the exact-data shot and a shot that touches zero at r = 4.8
    SHOTS = [(bh.EXACT_AMPLITUDE, 3.0 * bh.EXACT_AMPLITUDE, 20.0), (1.0, 0.3, 10.0)]

    @pytest.mark.parametrize("u0,v0,r_max", SHOTS)
    def test_fill_blocks_leave_values_unchanged(self, u0, v0, r_max, monkeypatch):
        args = (3, 7.0, 1.0, u0, v0, r_max / self.N, self.N)
        monkeypatch.setattr(_backend, "FILL_BLOCK_NODES", self.N + 1)
        one = _backend.radial_ivp(*args)
        monkeypatch.setattr(_backend, "FILL_BLOCK_NODES", 7)
        blocked = _backend.radial_ivp(*args)
        for a, b in zip(one[:4], blocked[:4]):
            assert a.tobytes() == b.tobytes()
        assert one[4:] == blocked[4:]

    def test_fill_peak_memory(self):
        """A 32769-node shot holds its four arrays and one block (9.8 MB unblocked)."""
        import tracemalloc
        u0, v0, r_max = self.SHOTS[0]
        tracemalloc.start()
        try:
            _backend.radial_ivp(3, 7.0, 1.0, u0, v0, r_max / self.N, self.N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5e6, f"peak {peak} B"


class TestSymbolicOracle:
    """Closed-form identities confirmed with a symbolic differentiation oracle."""

    def test_reference_solution_solves_equation(self):
        import sympy as sp
        r = sp.symbols("r", positive=True)
        c = sp.Rational(15) ** sp.Rational(-1, 8)
        u = c * sp.sqrt(1 + r**2)

        def lap(f):
            return sp.diff(f, r, 2) + 2 / r * sp.diff(f, r)

        z = lap(u)
        assert sp.simplify(z - c * (3 + 2 * r**2) * (1 + r**2) ** sp.Rational(-3, 2)) == 0
        assert sp.simplify(lap(z) + u ** (-7)) == 0

    def test_intermediate_laplacian(self):
        import sympy as sp
        r = sp.symbols("r", positive=True)
        f = sp.sqrt(1 + r**2)
        z = sp.diff(f, r, 2) + 2 / r * sp.diff(f, r)
        target = (3 + 2 * r**2) * (1 + r**2) ** sp.Rational(-3, 2)
        assert sp.simplify(z - target) == 0
        z2 = sp.diff(target, r, 2) + 2 / r * sp.diff(target, r)
        assert sp.simplify(z2 + 15 * (1 + r**2) ** sp.Rational(-7, 2)) == 0


class TestExactSolution:
    def test_origin_values(self, exact_coarse):
        assert exact_coarse.u.values[0] == pytest.approx(GOLD_U0, rel=1e-14)
        assert exact_coarse.z.values[0] == pytest.approx(GOLD_DU0, rel=1e-14)

    def test_linear_growth(self):
        prof = bh.exact_solution(RadialGrid.uniform(3, 200.0, 2048))
        r = prof.grid.r
        ratio = prof.u.values[-1] / r[-1]
        assert ratio == pytest.approx(bh.EXACT_AMPLITUDE, rel=1e-3)

    def test_dimension_pinned(self):
        with pytest.raises(DomainError):
            bh.exact_solution(RadialGrid.uniform(4, 10.0, 64))


class TestShoot:
    def test_reproduces_exact(self, shot_exact):
        ue, _, ze, _ = bh.exact_fields(shot_exact.grid.r)
        assert np.abs(shot_exact.u.values - ue).max() / ue.max() < 1e-6
        assert np.abs(shot_exact.z.values - ze).max() / ze.max() < 1e-6
        assert shot_exact.conforming

    def test_zero_initial_laplacian_degenerates(self):
        prof = bh.shoot(3, 7.0, 1.0, 0.0, 10.0, num_intervals=256)
        assert prof.classification.kind == bh.TOUCHED_ZERO
        assert not prof.conforming
        assert prof.classification.r_stop < 0.1

    def test_subcritical_touches_zero(self):
        prof = bh.shoot(3, 7.0, 1.0, 0.3, 10.0, num_intervals=512)
        assert prof.classification.kind == bh.TOUCHED_ZERO
        assert 1.0 < prof.classification.r_stop < 2.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bh.shoot(3, 7.0, -1.0, 1.0, 5.0, num_intervals=64)
        with pytest.raises(DomainError):
            bh.shoot(3, 7.0, 1.0, -0.5, 5.0, num_intervals=64)
        with pytest.raises(DomainError):
            bh.shoot(3.5, 7.0, 1.0, 2.0, 5.0, num_intervals=64)
        with pytest.raises(DomainError):
            bh.shoot(3, np.inf, 1.0, 2.0, 5.0, num_intervals=64)

    def test_zero_intervals_refused(self):
        with pytest.raises(SizeError):
            bh.shoot(3, 7.0, 1.0, 2.0, 5.0, num_intervals=0)
        with pytest.raises(SizeError):   # not 64 intervals of h = 5/64.5
            bh.shoot(3, 7.0, 1.0, 2.0, 5.0, num_intervals=64.5)


class TestRescale:
    def test_identity(self, exact_coarse):
        out = bh.rescale(exact_coarse, 1.0)
        assert np.array_equal(out.u.values, exact_coarse.u.values)
        assert out.grid.h == exact_coarse.grid.h

    def test_amplitude_exponent(self, exact_coarse):
        out = bh.rescale(exact_coarse, 2.0)
        # q = 7 gives the exponent 4/(q+1) = 1/2
        assert out.u.values[0] == pytest.approx(np.sqrt(2.0) * GOLD_U0, rel=1e-14)

    def test_group_property(self, exact_coarse):
        out = bh.rescale(bh.rescale(exact_coarse, 2.0), 0.5)
        assert np.abs(out.u.values - exact_coarse.u.values).max() < 1e-12
        assert out.grid.h == pytest.approx(exact_coarse.grid.h, rel=1e-15)

    def test_domain(self, exact_coarse):
        with pytest.raises(DomainError):
            bh.rescale(exact_coarse, 0.0)


class TestResidual:
    def test_constant_field_is_not_a_solution(self):
        g = RadialGrid.uniform(3, 5.0, 64)
        c0 = 1.3
        prof = bh.SolutionProfile(
            g, Field(g, np.full(g.num_nodes, c0), positive=True),
            Field(g, np.zeros(g.num_nodes)), Field(g, np.zeros(g.num_nodes)),
            Field(g, np.zeros(g.num_nodes)),
            {"n": 3, "q": 7.0, "source": "fields", "u0": c0, "z0": 0.0},
            bh.Classification(bh.POSITIVE))
        res = bh.residual(prof).values
        assert np.allclose(res, c0**-7)

    def test_shooting_residual_at_truncation_floor(self, shot_exact, exact_coarse):
        sl = shot_exact.grid.trim_slice()
        res_shoot = np.abs(bh.residual(shot_exact).values[sl]).max()
        res_exact = np.abs(bh.residual(exact_coarse).values[sl]).max()
        # shooting error (rtol 1e-9) is far below the h^2 truncation floor
        assert res_shoot <= 1.5 * res_exact

    def test_refinement_order(self):
        errs = []
        for N in (1024, 2048):
            prof = bh.exact_solution(RadialGrid.uniform(3, 10.0, N))
            sl = prof.grid.trim_slice()
            errs.append(np.abs(bh.residual(prof).values[sl]).max())
        assert convergence_order(errs[0], errs[1]) >= 1.8


class TestScalingCovariance:
    def test_residual_covariance(self):
        prof = bh.exact_solution(RadialGrid.uniform(3, 10.0, 2048))
        lam = 2.0
        fac = lam ** (-4.0 * 7.0 / 8.0)
        r_base = bh.residual(prof).values
        r_scaled = bh.residual(bh.rescale(prof, lam)).values
        sl = prof.grid.trim_slice()
        num = np.abs(r_scaled - fac * r_base)[sl].max()
        den = np.abs(fac * r_base)[sl].max()
        assert num / den < 1e-6

    def test_quadratic_growth_guard(self):
        # a strongly supercritical shot grows quadratically; u/r^2 settles
        prof = bh.shoot(3, 3.0, 1.0, 6.0, 60.0, num_intervals=1024)
        assert prof.conforming
        r = prof.grid.r
        tail = r >= 30.0
        ratio = prof.u.values[tail] / r[tail] ** 2
        assert np.all(np.diff(ratio) <= 1e-12)


class TestKernelCounters:
    """Shots keep the kernel's step counts as ``counters``, outside the artifacts."""

    @pytest.mark.parametrize("shot", ["biharmonic", "system"])
    def test_deterministic_and_kept_out_of_artifacts(self, shot):
        from dataclasses import replace

        from biharm_lab import system
        from biharm_lab.serialize import json_text
        if shot == "biharmonic":
            profs = [bh.shoot(3, 7.0, 1.0, 2.0, 10.0, num_intervals=256) for _ in range(2)]
        else:
            profs = [system.solve_radial_system(3, 3.0, 2.0, 1.0, 0.7, 2.0, num_intervals=256)
                     for _ in range(2)]
        assert profs[0].counters == profs[1].counters
        c = profs[0].counters
        assert set(c) == {"accepted", "rejected", "rhs_evals", "dt_min", "dt_max", "stop"}
        assert c["accepted"] > 0 and c["stop"] == "window-end"
        assert 0 < c["dt_min"] <= c["dt_max"]
        for prof in profs:
            bare = replace(prof, counters={})
            assert json_text(prof.to_dict()) == json_text(bare.to_dict())
            assert list(prof.columns()) == list(bare.columns())
            assert "counters" not in json_text(prof.to_dict())

    def test_exact_and_rescaled_carry_none(self):
        exact = bh.exact_solution(RadialGrid.uniform(3, 5.0, 64))
        assert exact.counters == {}
        assert bh.rescale(bh.shoot(3, 7.0, 1.0, 2.0, 5.0, num_intervals=256), 2.0).counters == {}


def _plain_rhs(r, u, du, v, dv, n, q, rexp):
    """The right-hand side as one call: (ok, u', du', v', dv')."""
    import math
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


def plain_ivp(n, q, rexp, u0, v0, h, N):
    """radial_ivp in its plain form: one right-hand-side call per stage, a
    loop over the tableau rows, and math.isfinite, abs and max as calls."""
    import math
    b = _backend
    A = [(), (b._A21,), (b._A31, b._A32), (b._A41, b._A42, b._A43),
         (b._A51, b._A52, b._A53, b._A54), (b._A61, b._A62, b._A63, b._A64, b._A65),
         (b._B1, 0.0, b._B3, b._B4, b._B5, b._B6)]
    C = (0.0, b._A21, 0.3, 0.8, 8.0 / 9.0, 1.0, 1.0)
    E = (b._E1, 0.0, b._E3, b._E4, b._E5, b._E6, b._E7)
    outs = tuple(np.zeros(N + 1) for _ in range(4))
    outs[0][0], outs[2][0] = u0, v0
    fl_u, fl_v = b.POSITIVITY_FLOOR * u0, b.POSITIVITY_FLOOR * v0
    uq0 = u0**-q
    vr0 = v0**rexp if v0 > 0.0 else 0.0
    au, av = vr0 / (2.0 * n), -uq0 / (2.0 * n)
    denom4 = 8.0 * n * (n + 2.0)
    bu = -rexp * v0 ** (rexp - 1.0) * uq0 / denom4 if v0 > 0.0 else 0.0
    bv = q * u0 ** (-q - 1.0) * vr0 / denom4
    # the series' own scale: where a nonzero term falls to START_FRACTION of
    # the nonzero term before it
    scales = [math.sqrt(b.START_FRACTION * abs(c0 / c1))
              for c0, c1 in ((u0, au), (au, bu), (v0, av), (av, bv)) if c0 != 0.0 and c1 != 0.0]
    r = r_start = min([h, 1e-2] + scales)
    r2 = r * r
    y = [u0 + au * r2 + bu * r2 * r2, 2.0 * au * r + 4.0 * bu * r2 * r,
         v0 + av * r2 + bv * r2 * r2, 2.0 * av * r + 4.0 * bv * r2 * r]
    counts = [0, 0, 0]
    if y[0] <= fl_u or y[2] <= fl_v:
        return (*outs, b.STATUS_TOUCHED, 0, r, counts)
    i_first = 1
    if r_start == h:
        for out, x in zip(outs, y):
            out[1] = x
        i_first = 2
        if N == 1:
            return (*outs, b.STATUS_OK, N, r, counts)
    rtol = b.RTOL
    fac_tol = min(1.0, b.TOL_PER_H2 * h * h / rtol)
    rtol *= fac_tol
    atol = b.ATOL * fac_tol
    r_end = N * h
    steps = []

    def finish(status, r_covered, r_event, accepted, rejected, nfev):
        i_stop = b._last_node(r_covered, h, N)
        data = np.frombuffer(b"".join(steps)).reshape(-1, b._STEP_WIDTH)
        b._dense_fill(data, b._extension(data), h, i_first, i_stop, outs)
        return (*outs, status, i_stop, r_event, [accepted, rejected, nfev])

    dt = 0.5 * min(h, 1e-3)
    dt_min = 1e-13 * max(h, 1.0)
    nfev = 1
    ok, *k1 = _plain_rhs(r, *y, n, q, rexp)
    accepted = rejected = 0
    if not ok:
        return finish(b.STATUS_FAILED, r, r, accepted, rejected, nfev)
    while accepted + rejected < b.MAX_STEPS:
        ks = [k1]
        for s in range(1, 7):
            row = A[s]
            if s == 1:
                ys = [y[c] + dt * row[0] * k1[c] for c in range(4)]
            else:
                ys = []
                for c in range(4):
                    acc = row[0] * ks[0][c]
                    for j in range(1, s):
                        if j != 1 or s != 6:   # the solution row skips stage 2
                            acc = acc + row[j] * ks[j][c]
                    ys.append(y[c] + dt * acc)
            if s == 6:
                z = ys
            nfev += 1
            ok, *k = _plain_rhs(r + dt if s >= 5 else r + C[s] * dt, *ys, n, q, rexp)
            if not ok:
                break
            ks.append(k)
        if ok:
            err = 0.0
            for c in range(4):
                e = E[0] * ks[0][c]
                for j in range(2, 7):
                    e = e + E[j] * ks[j][c]
                sc = atol + rtol * max(abs(y[c]), abs(z[c]))
                err += (dt * e / sc) ** 2
            err = math.sqrt(err / 4.0)
        else:
            err = math.inf
        if err <= 1.0:
            accepted += 1
            r_next = r + dt
            if z[0] <= fl_u or z[2] <= fl_v:
                return finish(b.STATUS_TOUCHED, r, r_next, accepted, rejected, nfev)
            steps.append(b._pack_step(r, dt, *y, *(x for k in ks for x in k)))
            r, y, k1 = r_next, z, ks[6]
            if r >= r_end:   # the first accepted step that reaches the window end
                return finish(b.STATUS_OK, r, r, accepted, rejected, nfev)
            fac = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err**-0.2))
            dt = dt * fac
        else:
            rejected += 1
            fac = 0.2 if err == math.inf else min(0.9, max(0.2, 0.9 * err**-0.2))
            dt = dt * fac
            if dt < dt_min:
                near = (y[0] <= max(2.0 * fl_u, 1e-5 * u0)
                        or y[2] <= max(2.0 * fl_v, 1e-5 * v0))
                status = b.STATUS_TOUCHED if near else b.STATUS_FAILED
                return finish(status, r, r, accepted, rejected, nfev)
    return finish(b.STATUS_FAILED, r, r, accepted, rejected, nfev)


class TestPlainForm:
    """The unrolled kernel gives its plain form's output bitwise."""

    SHOTS = {
        "closed-form-32768": (3, 7.0, 1.0, bh.EXACT_AMPLITUDE, 3.0 * bh.EXACT_AMPLITUDE,
                              20.0 / 32768, 32768),
        "system": (3, 3.0, 2.0, 1.0, 0.7, 2 / 256, 256),
        "touched-zero": (3, 7, 1, 1, 0.3, 0.05, 400),
        "z0-zero": (3, 7.0, 1.0, 1.0, 0.0, 0.05, 400),
        "N1-start-on-node": (3, 7.0, 1.0, 1.0, 2.0, 0.01, 1),
        "N1-one-step": (3, 7.0, 1.0, 1.0, 2.0, 0.5, 1),
        "rejections": (3, 1.5, 5.0, 1e3, 1e-6, 0.1, 200),
        # sweep shots on [0, 20]: long enough for rare rounding differences to show
        "sweep-n3": (3, 2.0, 0.5, 1.0, 2.5, 20.0 / 1024, 1024),
        "sweep-n4": (4, 3.0, 0.5, 0.7, 0.9, 20.0 / 1024, 1024),
        "sweep-n5": (5, 5.0, 2.0, 1.5, 0.4, 20.0 / 1024, 1024),
        # the series' own scale binds: r_start is below both h and 1e-2
        "series-scale-start": (3, 50.0, 1.0, 0.6, 88070.67117853744, 20.0 / 1024, 1024),
    }

    @pytest.mark.parametrize("shot", list(SHOTS))
    def test_matches_plain_form(self, shot):
        got = _backend.radial_ivp(*self.SHOTS[shot])
        ref = plain_ivp(*self.SHOTS[shot])
        for a, b in zip(got[:4], ref[:4]):
            assert np.array_equal(a, b)
        assert got[4:7] == ref[4:7]
        st = got[7]
        assert [st["accepted"], st["rejected"], st["rhs_evals"]] == ref[7]
        if shot == "rejections":
            assert st["rejected"] > 0


class TestStopReasons:
    """stats["stop"] names the cause behind each status."""

    @pytest.mark.parametrize("shot,stop", [
        ((3, 7.0, 1.0, 1.0, 2.0, 10.0 / 256, 256), "window-end"),
        ((3, 7, 1, 1, 0.3, 0.05, 400), "touched"),
        ((3, 7.0, 1.0, 1.0, 0.0, 0.05, 400), "touched"),          # before the first step
        ((3, 7.0, 2.0, 1.0, 1e154, 0.01, 10), "undefined-start"),  # v^2 at r_start overflows
        ((3, 7.0, 1.0, 1e-60, 1.0, 0.5, 10), "undefined-start"),   # u0^-q overflows
        ((3, 7.0, 2.0, 1.0, 1e200, 0.5, 10), "undefined-start")])  # v0^rexp overflows
    def test_stop(self, shot, stop):
        *_, status, _, _, st = _backend.radial_ivp(*shot)
        assert st["stop"] == stop and _backend.STOPS[stop] == status
        if st["accepted"]:
            assert 0 < st["dt_min"] <= st["dt_max"]
        else:
            assert st["dt_min"] is None and st["dt_max"] is None
        if stop == "undefined-start":   # no step was tried
            assert st["rhs_evals"] <= 1 and st["rejected"] == 0

    def test_max_steps(self, monkeypatch):
        monkeypatch.setattr(_backend, "MAX_STEPS", 3)
        *_, status, _, _, st = _backend.radial_ivp(3, 7.0, 1.0, 1.0, 2.0, 10.0 / 256, 256)
        assert st["stop"] == "max-steps" and status == _backend.STATUS_FAILED
        assert st["accepted"] + st["rejected"] == 3


class TestStartRadius:
    """A shot starts at min(h, 1e-2, s), s the even series' own scale."""

    def test_series_scale_binds(self):
        # q = 50, u0 = 0.6: the r^4 term of v passes START_FRACTION of its r^2
        # term near r = 5e-5, far inside the first node
        u0, v0 = 0.6, 88070.67117853744
        s, au, bu, av, bv = _backend.series_start(3, 50.0, 1.0, u0, v0)
        ratios = (u0 / au, au / bu, v0 / av, av / bv)
        assert s == min((_backend.START_FRACTION * abs(x)) ** 0.5 for x in ratios) < 1e-4
        assert _backend.integrate(3, 50.0, 1.0, u0, v0, 20 / 1024, 20.0).series[0] == s

    def test_zero_terms_are_skipped(self):
        # z0 = 0 zeroes v0, au and bu: only the pair (av, bv = 0) is left, and skipped
        s, *_ = _backend.series_start(3, 7.0, 1.0, 1.0, 0.0)
        assert s == float("inf")
        assert _backend.integrate(3, 7.0, 1.0, 1.0, 0.0, 0.05, 20.0).series[0] == 0.01

    def test_scale_follows_the_symmetry(self):
        # (u0, v0) -> (lam^a u0, lam^b v0) multiplies s by lam
        a, b = bh.scaling_exponents(3.0, 2.0)
        base, *_ = _backend.series_start(4, 3.0, 2.0, 1.0, 0.9)
        for lam in (0.25, 3.0):
            s, *_ = _backend.series_start(4, 3.0, 2.0, lam**a, 0.9 * lam**b)
            assert s == pytest.approx(lam * base, rel=1e-12)

    def test_underflowing_scale_is_undefined(self):
        # u0/au = 1e-300 / (1e300/6) underflows to 0: the series has no range
        with pytest.raises(ArithmeticError):
            _backend.series_start(3, 1.0001, 1.0, 1e-300, 1e300)
        *_, status, i_stop, _, st = _backend.radial_ivp(3, 1.0001, 1.0, 1e-300, 1e300, 0.5, 40)
        assert st["stop"] == "undefined-start" and status == _backend.STATUS_FAILED
        assert i_stop == 0
