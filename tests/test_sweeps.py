"""The shooting sweeps run one base shot per scale-invariant family.

Each row is the family's base shot sampled on the member's rescaled grid; a
row does not depend on which other rows share its family, its verdicts are
the direct shot's, and its values stay within the dense-output envelope of
the direct shot's (r_stop 2.8e-7 relative, min_margin 4.1e-7).  The
families run in forked stripes, and rows and errors are those of one process.
"""
import contextlib
import math
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from biharm_lab import _backend, biharmonic, sweeps, system
from biharm_lab.errors import DomainError, IntegratorError
from biharm_lab.params import weak_coefficient

H = sweeps.DEFAULT_R_MAX / sweeps.DEFAULT_INTERVALS
N = sweeps.DEFAULT_INTERVALS
#: how far r_stop (relative) and min_margin (absolute) may move from the
#: direct shot's: the change the dense-output fill made to the direct shots
R_STOP_ENVELOPE = 2.8e-7
MARGIN_ENVELOPE = 4.1e-7
VERDICTS = ("classification", "weak_pass", "comparison_pass", "concavity_pass",
            "qualifying_nodes")


def _bits(rows):
    """Rows with every float as its hex string, so that == compares bits."""
    return [{k: v.hex() if isinstance(v, float) else v for k, v in row.items()} for row in rows]


def _weak_family(n, q, kappa, u0s=sweeps.U0_GRID):
    """(base v0, plan) of one weak-sweep family restricted to u0s."""
    targets = {u0: z0 for u0, z0, k in sweeps.biharmonic_targets(q) if k == kappa}
    v0 = kappa * weak_coefficient(q)
    return v0, sweeps._family_plan(n, q, 1.0, [(u0, targets[u0]) for u0 in u0s], 20.0, N)


class TestFamilyOfOne:
    """A row computed alone equals the same row computed in its family."""

    def test_weak_rows(self, monkeypatch):
        family = sweeps.weak_bound_sweep(n_values=(3,), q_values=(2.0, 7.0))
        alone = []
        for u0 in sweeps.U0_GRID:
            monkeypatch.setattr(sweeps, "U0_GRID", (u0,))
            alone += sweeps.weak_bound_sweep(n_values=(3,), q_values=(2.0, 7.0))
        key = lambda row: (row["q"], row["u0"], row["kappa"])
        assert _bits(sorted(alone, key=key)) == _bits(sorted(family, key=key))

    def test_system_rows(self, monkeypatch):
        kw = dict(n_values=(4,), q_values=(3.0,), rexp_values=(0.5, 2.0))
        family = sweeps.system_sweep(**kw)
        alone = []
        for u0 in sweeps.SYSTEM_U0_GRID:
            monkeypatch.setattr(sweeps, "SYSTEM_U0_GRID", (u0,))
            alone += sweeps.system_sweep(**kw)
        key = lambda row: (row["rexp"], row["u0"], row["kappa"])
        assert _bits(sorted(alone, key=key)) == _bits(sorted(family, key=key))

    # one family that touches zero and one that stays positive
    @pytest.mark.parametrize("kappa", [0.5, 3.0])
    def test_profiles(self, kappa):
        v0, plan = _weak_family(3, 7.0, kappa)
        family = list(sweeps._family_profiles(3, 7.0, 1.0, v0, plan, N))
        for i, u0 in enumerate(sweeps.U0_GRID):
            v0, single = _weak_family(3, 7.0, kappa, (u0,))
            (alone,) = sweeps._family_profiles(3, 7.0, 1.0, v0, single, N)
            assert alone.classification == family[i].classification
            for name in ("u", "du", "z", "dz"):
                assert np.array_equal(getattr(alone, name).values,
                                      getattr(family[i], name).values)


class TestMemberClassification:
    def _touched_base(self):
        v0 = 0.5 * weak_coefficient(7.0)
        shot = _backend.integrate(3, 7.0, 1.0, 1.0, v0, H, 1e3)
        assert shot.stop == "touched" and shot.r_covered < shot.r_event
        return v0, shot

    def test_window_inside_touching_step_is_touched(self):
        v0, shot = self._touched_base()
        # a member whose window ends halfway through the touching step
        lam = N * H / (0.5 * (shot.r_covered + shot.r_event))
        u0 = lam ** biharmonic.scaling_exponents(7.0)[0]
        h, members = sweeps._family_plan(3, 7.0, 1.0, [(u0, 1.0)], 20.0, N)
        ((_, lam, _, end),) = members
        assert shot.r_covered < end < shot.r_event
        (prof,) = sweeps._family_profiles(3, 7.0, 1.0, v0, (h, members), N)
        assert prof.classification.kind == biharmonic.TOUCHED_ZERO
        assert prof.classification.r_stop == lam * shot.r_event
        assert prof.grid.num_intervals < N

    def test_window_before_touching_step_is_positive(self):
        v0, shot = self._touched_base()
        lam = N * H / (0.5 * shot.r_covered)
        u0 = lam ** biharmonic.scaling_exponents(7.0)[0]
        plan = sweeps._family_plan(3, 7.0, 1.0, [(u0, 1.0)], 20.0, N)
        (prof,) = sweeps._family_profiles(3, 7.0, 1.0, v0, plan, N)
        assert prof.conforming and prof.grid.num_intervals == N

    def test_fill_classifies_by_grid_end(self):
        _, shot = self._touched_base()
        for end, status in ((0.5 * shot.r_covered, _backend.STATUS_OK),
                            (shot.r_covered, _backend.STATUS_OK),
                            (0.5 * (shot.r_covered + shot.r_event), _backend.STATUS_TOUCHED)):
            *_, got, i_stop = _backend.fill(shot, end / 64, 64)
            assert got == status
            assert i_stop == (64 if status == _backend.STATUS_OK
                              else _backend._last_node(shot.r_covered, end / 64, 64))

    def test_base_failure_at_start_raises(self):
        # q = 2000: 0.7^-2000 overflows, so the u0 = 0.7 member's own start,
        # like its direct shot, is undefined
        with pytest.raises(IntegratorError, match="at r = 0"):
            sweeps.system_sweep(n_values=(3,), q_values=(2000.0,), rexp_values=(1.0,))


class TestSeriesNodes:
    def test_node_below_start_radius_from_series(self):
        # lam = 1.7^2 > 1: the member's node 1 lies below r_start in base coordinates
        v0, plan = _weak_family(3, 7.0, 3.0, (1.7,))
        h, ((_, lam, factors, _),) = plan
        g = h / lam
        assert g < min(h, 1e-2) < 2 * g
        shot = _backend.integrate(3, 7.0, 1.0, 1.0, v0, h, N * g)
        u, du, v, dv, status, _ = _backend.fill(shot, g, N)
        _, au, bu, av, bv = _backend.series_start(3, 7.0, 1.0, 1.0, v0)
        r2 = g * g
        assert u[1] == 1.0 + au * r2 + bu * r2 * r2
        assert dv[1] == 2.0 * av * g + 4.0 * bv * r2 * g
        (prof,) = sweeps._family_profiles(3, 7.0, 1.0, v0, plan, N)
        assert prof.u.values[1] == factors[0] * u[1]
        target = dict(((u0, k), z0) for u0, z0, k in sweeps.biharmonic_targets(7.0))[(1.7, 3.0)]
        direct = biharmonic.shoot(3, 7.0, 1.7, target, 20.0, num_intervals=N)
        for name in ("u", "du", "z", "dz"):
            np.testing.assert_allclose(getattr(prof, name).values[:3],
                                       getattr(direct, name).values[:3], rtol=1e-8)


class TestAgainstDirectShots:
    """On a reduced table every verdict is the direct shot's."""

    @pytest.fixture(scope="class")
    def weak(self):
        rows = sweeps.weak_bound_sweep(n_values=(3,), q_values=(2.0, 7.0))
        direct = [sweeps._weak_row(key, biharmonic.shoot(*key[:4], 20.0, num_intervals=N))
                  for key in ((r["n"], r["q"], r["u0"], r["z0"], r["kappa"]) for r in rows)]
        return rows, direct

    @pytest.fixture(scope="class")
    def lane_emden(self):
        rows = sweeps.system_sweep(n_values=(3,), q_values=(2.0, 7.0), rexp_values=(0.5, 2.0))
        direct = [sweeps._system_row(key, system.solve_radial_system(
            *key[:5], 20.0, num_intervals=N))
            for key in ((r["n"], r["q"], r["rexp"], r["u0"], r["v0"], r["kappa"]) for r in rows)]
        return rows, direct

    @pytest.mark.parametrize("table", ["weak", "lane_emden"])
    def test_verdicts_identical(self, table, request):
        rows, direct = request.getfixturevalue(table)
        assert len(rows) == len(direct) == 48
        for row, ref in zip(rows, direct):
            assert [row.get(k) for k in VERDICTS] == [ref.get(k) for k in VERDICTS]
        kinds = {row["classification"] for row in rows}
        assert kinds == {biharmonic.POSITIVE, biharmonic.TOUCHED_ZERO}

    @pytest.mark.parametrize("table", ["weak", "lane_emden"])
    def test_values_inside_envelope(self, table, request):
        rows, direct = request.getfixturevalue(table)
        for row, ref in zip(rows, direct):
            if ref["r_stop"] is not None:
                assert abs(row["r_stop"] - ref["r_stop"]) <= R_STOP_ENVELOPE * ref["r_stop"]
            if ref["min_margin"] is not None:
                assert abs(row["min_margin"] - ref["min_margin"]) <= MARGIN_ENVELOPE


class TestCounters:
    def test_family_counters(self):
        v0, plan = _weak_family(3, 2.0, 1.6)
        profiles = list(sweeps._family_profiles(3, 2.0, 1.0, v0, plan, N))
        shot = _backend.integrate(3, 2.0, 1.0, 1.0, v0, plan[0],
                                  max(end for *_, end in plan[1]))
        for prof in profiles:
            assert prof.counters == dict(shot.stats, family_size=4)
            assert "counters" not in prof.to_dict() and "family_size" not in prof.columns()
        assert profiles[0].counters is not profiles[1].counters

    def test_rows_carry_no_counters(self):
        for row in sweeps.system_sweep(n_values=(3,), q_values=(3.0,), rexp_values=(1.0,)):
            assert not {"counters", "family_size", "accepted"} & set(row)


class TestRange:
    """Targets and scale factors outside the float range are refused before any shot."""

    @pytest.fixture
    def no_shot(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a shot ran before the guards")
        monkeypatch.setattr(sweeps, "integrate", refuse)

    @pytest.mark.parametrize("sweep,message", [
        (lambda: sweeps.weak_bound_sweep(n_values=(3,), q_values=(2.0, 1e300)),
         r"u0\*\*\(-\(q-1\)/2\) at q = 1e\+300"),
        (lambda: sweeps.system_sweep(n_values=(3,), q_values=(2.0, 1e300)),
         r"u0\*\*sigma at q = 1e\+300"),
        # a defined start, but lam = 1.7^((q+1)/4) overflows
        (lambda: sweeps._family_plan(3, 6000.0, 1.0, [(1.7, 1.0)], 20.0, N),
         r"family scale of u0 = 1.7 at q = 6000"),
    ])
    def test_refused_before_any_shot(self, sweep, message, no_shot):
        with pytest.raises(DomainError, match=message):
            sweep()

    def test_scaling_exponents(self):
        a, b = biharmonic.scaling_exponents(7.0)
        assert (a, b) == (0.5, -1.5)
        a, b = biharmonic.scaling_exponents(3.0, 0.5)
        assert a == pytest.approx(1.2) and b == pytest.approx(-1.6)
        assert b / a == pytest.approx(system.sigma_exponent(3.0, 0.5))
        assert math.isclose(2.0 + b * 0.5, a) and math.isclose(2.0 - a * 3.0, b)


class TestDirectShotIsAMember:
    """A direct shot runs under the family's start and stop rule."""

    @pytest.mark.parametrize("kappa", sweeps.KAPPA_V_GRID)
    def test_unit_member_bitwise(self, kappa):
        # the u0 = 1 member is its base shot on the sweep grid: lam = 1
        v0 = kappa * system.comparison_factor(3.0, 2.0)
        plan = sweeps._family_plan(3, 3.0, 2.0, [(1.0, v0)], 20.0, N)
        (member,) = sweeps._family_profiles(3, 3.0, 2.0, v0, plan, N)
        direct = system.solve_radial_system(3, 3.0, 2.0, 1.0, v0, 20.0, num_intervals=N)
        assert member.classification == direct.classification
        for name in ("u", "du", "z", "dz"):
            assert np.array_equal(getattr(member, name).values, getattr(direct, name).values)

    # at large q a member with u0 < 1 starts where its even series has a
    # small range: the start radius follows the series' scale
    def test_weak_classifications_at_large_q(self):
        for row in sweeps.weak_bound_sweep(n_values=(3, 4, 5), q_values=(20.0, 50.0, 70.0)):
            direct = biharmonic.shoot(row["n"], row["q"], row["u0"], row["z0"], 20.0,
                                      num_intervals=N)
            assert direct.classification.kind == row["classification"], row

    def test_system_classifications_at_large_q(self):
        for row in sweeps.system_sweep(n_values=(3, 4, 5), q_values=(20.0, 50.0, 70.0)):
            direct = system.solve_radial_system(row["n"], row["q"], row["rexp"], row["u0"],
                                                row["v0"], 20.0, num_intervals=N)
            assert direct.classification.kind == row["classification"], row


def _reaped(pid):
    """Whether pid is no longer a child of this process, running or unreaped."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestStripes:
    """Families run in forked stripes; rows and errors are those of one process."""

    @pytest.fixture
    def stripes(self, monkeypatch):
        """force(w) runs the sweeps in w stripes, whatever the CPUs."""
        def force(w):
            monkeypatch.setattr(sweeps, "_stripes", lambda families: min(w, families))
        return force

    @pytest.fixture
    def forks(self, monkeypatch):
        """pids of the stripes' children, recorded as they start."""
        pids = []

        class Recorded(multiprocessing.context.ForkProcess):
            def start(self):
                super().start()
                pids.append(self.pid)
        monkeypatch.setattr(multiprocessing.context.ForkContext, "Process", Recorded)
        return pids

    @pytest.mark.parametrize("sweep", [
        lambda: sweeps.weak_bound_sweep(n_values=(3,), q_values=(2.0, 7.0)),
        lambda: sweeps.system_sweep(n_values=(3,), q_values=(2.0, 7.0), rexp_values=(0.5, 2.0)),
    ], ids=["weak", "lane_emden"])
    def test_rows_bitwise_one_process(self, sweep, stripes, forks, monkeypatch):
        # 120 attempted steps stop the longest base shots as max-steps, so
        # the table holds failed, touched and positive families
        monkeypatch.setattr(_backend, "MAX_STEPS", 120)
        default = sweep()
        default_forks = len(forks)
        stripes(1)
        one = sweep()
        stripes(3)
        three = sweep()
        assert len(forks) == default_forks + 2
        assert {row["classification"] for row in one} == {
            biharmonic.POSITIVE, biharmonic.TOUCHED_ZERO, biharmonic.FAILED}
        assert _bits(default) == _bits(one) == _bits(three)

    @pytest.mark.parametrize("case", ["stub", "underflow"])
    def test_child_error_is_raised_alike(self, case, stripes, monkeypatch):
        if case == "stub":
            # the sorted families at q = 7 run kappa = 0.5, 0.9, 1.6, ...: the
            # second and third fail at their third member, in different stripes
            weak_row = sweeps._weak_row

            def make_row(key, prof):
                n, q, u0, z0, kappa = key
                if kappa in (0.9, 1.6) and u0 == 1.2:
                    raise IntegratorError(f"stub failure at kappa = {kappa}", location=z0)
                return weak_row(key, prof)
            monkeypatch.setattr(sweeps, "_weak_row", make_row)
            error, kw = IntegratorError, dict(n_values=(3,), q_values=(7.0,))
        else:
            # q = 100 rows refuse their bounds where u^(-(q-1)/2) underflows
            error, kw = DomainError, dict(n_values=(3,), q_values=(2.0, 100.0))
        raised = []
        for w in (1, 2, 3):
            stripes(w)
            with pytest.raises(error) as info:
                sweeps.weak_bound_sweep(**kw)
            raised.append((type(info.value), str(info.value),
                           getattr(info.value, "location", None)))
        assert raised == [raised[0]] * 3
        if case == "stub":
            z0 = dict(((u0, k), z0) for u0, z0, k in sweeps.biharmonic_targets(7.0))[(1.2, 0.9)]
            assert raised[0][1:] == ("stub failure at kappa = 0.9", z0)

    @pytest.mark.parametrize("fail", [None, "child", "parent", "interrupt", "exit"])
    def test_no_child_remains(self, fail, stripes, forks, monkeypatch):
        stripes(3)
        parent, weak_row = os.getpid(), sweeps._weak_row

        def make_row(key, prof):
            in_parent = os.getpid() == parent
            if (fail == "child" and not in_parent) or (fail == "parent" and in_parent):
                raise IntegratorError("stub failure", location=0.0)
            if fail == "interrupt":
                if in_parent:
                    raise KeyboardInterrupt
                time.sleep(10)   # killed, not waited for
            if fail == "exit" and not in_parent:
                os._exit(5)   # a child that dies without sending its rows
            return weak_row(key, prof)
        monkeypatch.setattr(sweeps, "_weak_row", make_row)
        raises = {None: contextlib.nullcontext(), "child": pytest.raises(IntegratorError),
                  "parent": pytest.raises(IntegratorError),
                  "interrupt": pytest.raises(KeyboardInterrupt),
                  "exit": pytest.raises(RuntimeError, match="exited with code 5")}[fail]
        t0 = time.monotonic()
        with raises:
            sweeps.weak_bound_sweep(n_values=(3,), q_values=(7.0,))
        assert time.monotonic() - t0 < 30
        assert len(forks) == 2 and all(map(_reaped, forks))
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("caller", ["daemon", "thread"])
    def test_one_process_callers(self, caller, stripes, forks):
        kw = dict(n_values=(3,), q_values=(7.0,))
        if caller == "daemon":
            recv, send = multiprocessing.Pipe(duplex=False)

            def run():
                with send:
                    send.send((sweeps.weak_bound_sweep(**kw), len(forks)))
            with send:
                proc = multiprocessing.context.ForkProcess(target=run, daemon=True)
                proc.start()
            with recv:
                assert recv.poll(120)
                rows, children = recv.recv()
            proc.join(60)
            assert proc.exitcode == 0
        else:
            stop = threading.Event()
            thread = threading.Thread(target=stop.wait)
            thread.start()
            try:
                rows, children = sweeps.weak_bound_sweep(**kw), len(forks)
            finally:
                stop.set()
                thread.join(60)
            assert not thread.is_alive()
        assert children == 0
        stripes(1)
        assert _bits(rows) == _bits(sweeps.weak_bound_sweep(**kw))
