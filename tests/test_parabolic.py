import ctypes
import ctypes.util
import glob
import os
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from biharm_lab import parabolic as pb
from biharm_lab.errors import DomainError, PreconditionError, SizeError
from biharm_lab.reports import worst_node


def kinetic_oracle(p, r, u0, v0, times):
    """Independent integration of the reaction-only system."""
    sol = solve_ivp(lambda t, y: [y[1] ** r, y[0] ** p], [0.0, times[-1]],
                    [u0, v0], rtol=1e-11, atol=1e-13, dense_output=True)
    return sol.sol(times)


class TestDefinitions:
    @pytest.mark.parametrize("p,r", [(2.0, 1.0), (3.0, 2.0), (2.0, 2.0), (1.5, 1.2)])
    def test_sigma_ell_identities(self, p, r):
        fld = pb.SpaceTimeField(pb.PeriodicBox(num_nodes=8), p, r,
                                np.array([0.0]), np.ones((1, 8)), np.ones((1, 8)),
                                False, None, 0.0)
        assert 0 < fld.sigma <= 1.0
        assert fld.ell ** (p + 1) * fld.sigma == pytest.approx(1.0, rel=1e-14)
        assert fld.sigma * (p + 1) == pytest.approx(r + 1, rel=1e-14)

    def test_domain_checks(self):
        geom = pb.PeriodicBox(num_nodes=32)
        with pytest.raises(DomainError):
            pb.simulate(geom, 1.0, 2.0, 1.0, 1.0, 0.1)    # p < r
        with pytest.raises(DomainError):
            pb.simulate(geom, 1.0, 0.9, 1.0, 1.0, 0.1)    # p r <= 1
        with pytest.raises(DomainError):
            pb.simulate(geom, 2.0, 1.0, 0.0, 1.0, 0.1)    # nonpositive data
        with pytest.raises(DomainError):
            pb.simulate(geom, np.inf, 1.0, 1.0, 1.0, 0.1)
        with pytest.raises(DomainError):
            pb.simulate(geom, 2.0, 1.0, np.inf, 1.0, 0.1)


class TestHomogeneousRuns:
    def test_matches_kinetic_oracle(self):
        geom = pb.PeriodicBox(num_nodes=32)
        fld = pb.simulate(geom, 2.0, 1.0, 1.0, 1.2, t_final=50.0,
                          num_snapshots=200, blowup_factor=1e3)
        assert fld.blown_up and fld.truncation_reason == "blow-up"
        Y = kinetic_oracle(2.0, 1.0, 1.0, 1.2, fld.times)
        rel_u = np.abs(fld.u[:, 0] - Y[0]) / np.abs(Y[0])
        rel_v = np.abs(fld.v[:, 0] - Y[1]) / np.abs(Y[1])
        assert max(rel_u.max(), rel_v.max()) < 1e-6

    def test_spatial_homogeneity_preserved(self):
        geom = pb.PeriodicBox(num_nodes=32)
        fld = pb.simulate(geom, 2.0, 1.0, 1.0, 1.2, t_final=0.5, num_snapshots=16)
        assert np.abs(fld.u - fld.u[:, :1]).max() < 1e-12

    def test_symmetric_exponents_keep_components_equal(self):
        geom = pb.PeriodicBox(num_nodes=64)
        x = geom.x
        init = 1.0 + 0.05 * np.cos(x)
        fld = pb.simulate(geom, 2.0, 2.0, init, init, t_final=0.3, num_snapshots=16)
        assert fld.sigma == 1.0 and fld.ell == 1.0
        assert np.abs(fld.u - fld.v).max() < 1e-12

    def test_conservation(self):
        geom = pb.PeriodicBox(num_nodes=32)
        fld = pb.simulate(geom, 2.0, 1.0, 1.0, 1.2, t_final=50.0,
                          num_snapshots=400, blowup_factor=500.0)
        G = fld.v[:, 0] ** 2 / 2 - fld.u[:, 0] ** 3 / 3
        assert np.abs(G - G[0]).max() <= 1e-6 * max(1.0, abs(G[0]))


@pytest.fixture(scope="module")
def nonhomog():
    geom = pb.PeriodicBox(num_nodes=512)
    x = geom.x
    return pb.simulate(geom, 2.0, 1.0, 1.0 + 0.05 * np.cos(x),
                       1.1 + 0.03 * np.sin(x), t_final=0.4, num_snapshots=256)


class TestHeatDiffInequality:
    def test_margin_nonnegative(self, nonhomog):
        rep = pb.verify_heat_diff_inequality(nonhomog)
        assert rep.passed

    def test_unit_sigma_margin_near_zero(self):
        geom = pb.PeriodicBox(num_nodes=512)
        x = geom.x
        fld = pb.simulate(geom, 2.0, 2.0, 1.0 + 0.05 * np.cos(x),
                          1.1 + 0.03 * np.sin(x), t_final=0.25, num_snapshots=256)
        rep = pb.verify_heat_diff_inequality(fld)
        assert rep.passed
        assert abs(rep.min_margin) < 1e-5   # dropped term vanishes identically

    def test_homogeneous_margin_near_zero(self):
        geom = pb.PeriodicBox(num_nodes=32)
        fld = pb.simulate(geom, 2.0, 1.0, 1.0, 1.2, t_final=0.4, num_snapshots=256)
        rep = pb.verify_heat_diff_inequality(fld)
        assert rep.passed
        assert abs(rep.min_margin) < 1e-6

    def test_coarse_snapshots_refused(self):
        geom = pb.PeriodicBox(num_nodes=64)
        fld = pb.simulate(geom, 2.0, 1.0, 1.0, 1.2, t_final=50.0,
                          num_snapshots=40, blowup_factor=1e3)
        with pytest.raises(PreconditionError):
            pb.verify_heat_diff_inequality(fld)

    def test_two_snapshots_refused(self):
        # no interior snapshot for a central difference: refused before any block
        fld = pb.simulate(pb.PeriodicBox(num_nodes=16), 2.0, 1.0, 1.0, 1.2, t_final=0.01,
                          num_snapshots=1)
        assert fld.times.shape == (2,)
        with pytest.raises(PreconditionError, match="need at least three snapshots"):
            pb.verify_heat_diff_inequality(fld)

    def test_sign_coupling(self, nonhomog):
        fld = nonhomog
        w = fld.w
        drive = fld.u ** fld.p_exp - fld.ell ** fld.p_exp * fld.v ** (fld.sigma * fld.p_exp)
        assert np.array_equal(np.sign(np.round(drive, 14)), np.sign(np.round(w, 14)))


class TestComparison:
    def test_nonnegative_gap_data(self):
        geom = pb.PeriodicBox(num_nodes=128)
        x = geom.x
        sig, ell = 2.0 / 3.0, (2.0 / 3.0) ** (-1.0 / 3.0)
        v0 = 1.2 + 0.04 * np.cos(2 * x)
        u0 = ell * v0**sig - 0.05
        fld = pb.simulate(geom, 2.0, 1.0, u0, v0, t_final=0.4, num_snapshots=64)
        rep = pb.verify_component_comparison(fld)
        assert rep.passed
        assert any("eternal" in c for c in rep.caveats)

    def test_violating_data_reported_failed(self):
        # initial data violating the comparison: the theorem does not apply
        # on a finite window, so the report is an honest fail + caveat
        geom = pb.PeriodicBox(num_nodes=64)
        fld = pb.simulate(geom, 2.0, 1.0, 2.0, 1.0, t_final=0.05, num_snapshots=8)
        rep = pb.verify_component_comparison(fld)
        assert rep.passed is False
        assert any("eternal" in c for c in rep.caveats)


class TestPropagation:
    def test_negative_gap_stays_negative(self):
        geom = pb.PeriodicBox(num_nodes=256)
        x = geom.x
        sig, ell = 2.0 / 3.0, (2.0 / 3.0) ** (-1.0 / 3.0)
        v0 = 1.2 + 0.04 * np.cos(2 * x)
        u0 = ell * v0**sig - 0.05 + 0.01 * np.sin(x)
        fld = pb.simulate(geom, 2.0, 1.0, u0, v0, t_final=0.4, num_snapshots=128)
        rep = pb.verify_sign_propagation(fld)
        assert rep.passed

    def test_not_applicable_when_initial_gap_positive(self):
        geom = pb.PeriodicBox(num_nodes=64)
        fld = pb.simulate(geom, 2.0, 1.0, 2.0, 1.0, t_final=0.05, num_snapshots=8)
        rep = pb.verify_sign_propagation(fld)
        assert rep.passed is None
        assert any("not applicable" in c for c in rep.caveats)

    def test_not_applicable_without_later_snapshot(self):
        # this run overflows in its first step and keeps only t = 0, where
        # w <= 0: there is no later snapshot to check, not an empty argmin
        fld = pb.simulate(pb.RadialBall(3, np.pi, 16), 7e5, 1, 1.0000559, 5e8, 1.0,
                          num_snapshots=4)
        assert fld.times.tolist() == [0.0] and fld.w[0].max() <= 0
        rep = pb.verify_sign_propagation(fld)
        assert rep.passed is None
        assert rep.caveats == ["not applicable: no snapshot after t = 0"]

    def test_pure_diffusion_preserves_constant_gap(self):
        # a CN step is linear and fixes constants, so two fields that differ
        # by a constant keep that offset under pure diffusion
        for make, geom in ((pb._PeriodicDiffusion, pb.PeriodicBox(num_nodes=128)),
                           (pb._RadialDiffusion, pb.RadialBall(n=3, num_intervals=128))):
            diffuser = make(geom)
            u0 = 1.0 + 0.05 * np.cos(geom.x)
            u, v = u0, u0 + 0.07
            for _ in range(16):
                u, v = diffuser.cn_step(u, 0.02), diffuser.cn_step(v, 0.02)
            assert np.abs(v - u - 0.07).max() < 1e-13
            assert np.abs(u - u0).max() > 1e-3   # the perturbation did diffuse


class TestPositivityAndBlowup:
    def test_radial_run_stays_positive_until_flag(self):
        geom = pb.RadialBall(n=3, radius=np.pi, num_intervals=128)
        r = geom.x
        fld = pb.simulate(geom, 2.0, 1.0, 1.0 + 0.05 * np.cos(r),
                          1.1 + 0.02 * np.cos(2 * r), t_final=30.0,
                          num_snapshots=100, blowup_factor=1e3)
        assert fld.blown_up and fld.truncation_reason == "blow-up"
        assert fld.u.min() > 0 and fld.v.min() > 0

    def test_radial_heat_inequality_short_window(self):
        geom = pb.RadialBall(n=3, radius=np.pi, num_intervals=256)
        r = geom.x
        fld = pb.simulate(geom, 2.0, 1.0, 1.0 + 0.05 * np.cos(r),
                          1.1 + 0.02 * np.cos(2 * r), t_final=0.4,
                          num_snapshots=256)
        rep = pb.verify_heat_diff_inequality(fld)
        assert rep.passed

    @pytest.mark.parametrize("geom", [pb.PeriodicBox(num_nodes=16),
                                      pb.RadialBall(n=3, num_intervals=16)],
                             ids=["periodic", "radial"])
    def test_overflowing_reaction_is_a_non_finite_state(self, geom):
        # u grows by a relative REL_INCREMENT a step, so u^p overflows within the RK4
        # stages; both diffusions carry the inf into a non-finite state, which
        # the truncation reports without a NumPy warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fld = pb.simulate(geom, 7e5, 1.0, float(np.exp(5.59e-5)), 5e8, 1.0,
                              num_snapshots=4)
        assert caught == []
        assert fld.truncation_reason == "non-finite-state" and fld.blown_up
        assert fld.meta["counters"]["steps"] == 1 and fld.times.shape == (1,)


def three_call_reason(S, cap):
    """The truncation tests as three separate reductions."""
    if not np.all(np.isfinite(S)):
        return "non-finite-state"
    if np.any(S <= 0):
        return "positivity-lost"
    if float(S.max()) > cap:
        return "blow-up"
    return None


class TestTruncation:
    CAP = 10.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0, 11.0, 10.0, 5.0])
    def test_matches_three_reductions(self, bad):
        for row, node in [(0, 0), (0, 3), (1, 7)]:
            S = np.stack((np.linspace(1.0, 2.0, 8), np.linspace(3.0, 0.5, 8)))
            S[row, node] = bad
            assert pb._truncation(S, self.CAP) == three_call_reason(S, self.CAP)

    @pytest.mark.parametrize("values", [(np.nan, -1.0), (np.inf, -1.0), (-np.inf, 20.0),
                                        (0.0, 20.0), (np.nan, np.inf), (-1.0, 11.0)])
    def test_first_failing_test_wins(self, values):
        S = np.ones((2, 8))
        S[0, 2], S[1, 5] = values
        assert pb._truncation(S, self.CAP) == three_call_reason(S, self.CAP)
        assert pb._truncation(S, self.CAP) is not None


class ExplicitRadialDiffusion(pb._RadialDiffusion):
    """The radial half-step solved against its spelled-out right-hand side (I + s/2 L) f."""

    def __init__(self, geom):
        super().__init__(geom)
        self.geom = geom

    def cn_step(self, f, s):
        from scipy.linalg import solve_banded
        ab = -0.5 * s * self._bands
        ab[1] += 1.0
        return solve_banded((1, 1), ab, (f + 0.5 * s * self.geom.laplacian(f)).T).T


class TestDirectSolve:
    """cn_step is x = 2y - f, y from LAPACK's dgtsv called through ctypes.

    It is bitwise SciPy's solve_banded((1, 1), ...) on the same bands, with
    the dgtsv NumPy bundles (64-bit integers) and with SciPy's (32-bit).
    """

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("rows", [1, 2])
    def test_matches_solve_banded(self, n, rows, monkeypatch):
        import scipy
        from scipy.linalg import solve_banded
        scipy_libs = sorted(glob.glob(os.path.join(os.path.dirname(scipy.__path__[0]),
                                                   "scipy.libs", "libscipy_openblas*")))
        assert scipy_libs, "SciPy's wheel bundles its LAPACK"
        for libraries, int_type in ((pb._lapack_libraries, ctypes.c_int64),
                                    (lambda: iter(scipy_libs), ctypes.c_int32)):
            monkeypatch.setattr(pb, "_lapack_libraries", libraries)
            assert pb._dgtsv()[1] is int_type
            for intervals in (40, 16, 512, 2048):
                geom = pb.RadialBall(n=n, radius=2.0, num_intervals=intervals)
                diffuser = pb._RadialDiffusion(geom)
                x = geom.x
                S = np.stack((1.0 + 0.1 * np.cos(x),
                              2.0 + 0.3 * np.cos(2 * x) + 0.01 * x**2))[:rows]
                S0 = S.copy()
                for s in (1e-4, 0.05, 3.0):
                    ab = -0.5 * s * diffuser._bands
                    ab[1] += 1.0
                    ref = 2.0 * solve_banded((1, 1), ab, S.T).T - S
                    got = diffuser.cn_step(S, s)
                    assert got.shape == S.shape and np.array_equal(got, ref)
                    assert np.array_equal(diffuser.cn_step(S[0], s), ref[0])
                    assert np.array_equal(S, S0)   # snapshots hold the input: it is never written
                    # (I - kL)^-1 (I + kL) = 2 (I - kL)^-1 - I: the explicit right-hand side's
                    # step, whose product kL f rounds at eps k times the stencil's largest
                    # weight, under 1e-12 on 40 intervals
                    explicit = ExplicitRadialDiffusion(geom).cn_step(S, s)
                    tol = max(1e-12, np.finfo(float).eps * 0.5 * s * np.abs(diffuser._bands).max())
                    assert np.abs(got - explicit).max() <= tol * np.abs(explicit).max()

    def test_no_lapack_refused(self, monkeypatch):
        # with no library to search, a radial run is refused before its first
        # step, naming the symbols and libraries it looked for; a periodic run
        # needs no LAPACK
        monkeypatch.setattr(pb, "_lapack_libraries", lambda: iter(()))
        with pytest.raises(PreconditionError, match=(
                r"^the radial Crank-Nicolson half-step needs LAPACK's dgtsv: none of "
                r"scipy_dgtsv_64_, dgtsv_64_, scipy_dgtsv_, dgtsv_ is exported by NumPy's "
                r"bundled LAPACK or the system's lapack \(searched: no library found\)$")):
            pb.simulate(pb.RadialBall(num_intervals=16), 2.0, 1.0, 1.0, 1.2, t_final=0.1,
                        num_snapshots=4)
        # a library that loads but lacks the routine is named as searched
        libc = ctypes.util.find_library("c")
        monkeypatch.setattr(pb, "_lapack_libraries", lambda: iter([libc]))
        with pytest.raises(PreconditionError, match=re.escape(f"(searched: {libc})")):
            pb._RadialDiffusion(pb.RadialBall(num_intervals=16))
        fld = pb.simulate(pb.PeriodicBox(num_nodes=16), 2.0, 1.0, 1.0, 1.2, t_final=0.1,
                          num_snapshots=4)
        assert fld.times.shape == (5,) and not fld.blown_up

    @pytest.mark.parametrize("radius", [1e-10, 1e-100, 1e-152])
    def test_singular_half_step_refused(self, radius):
        # the ball passes its spacing check, but k times the stencil's
        # weights swamps the 1 on the diagonal of I - k L, and a pivot is 0
        geom = pb.RadialBall(n=3, radius=radius, num_intervals=16)
        with pytest.raises(PreconditionError, match=r"half-step over s = \S+ is singular in "
                                                    r"floating point: s/2 times the stencil's "
                                                    r"largest weight \S+ swamps the identity"):
            pb.simulate(geom, 2.0, 1.0, 1.0, 1.2, t_final=0.1, num_snapshots=4)


class TestTrajectory:
    def test_radial_run_matches_explicit_right_hand_side(self, monkeypatch):
        geom = pb.RadialBall(n=3, radius=np.pi, num_intervals=128)
        r = geom.x

        def run():
            return pb.simulate(geom, 2.0, 1.5, 1.0 + 0.03 * np.cos(r),
                               1.1 + 0.02 * np.cos(2 * r), t_final=0.3, num_snapshots=128)

        got = run()
        monkeypatch.setattr(pb, "_RadialDiffusion", ExplicitRadialDiffusion)
        ref = run()
        assert got.meta["counters"]["steps"] == ref.meta["counters"]["steps"] > 128
        assert got.t_reached == ref.t_reached and not got.blown_up and not ref.blown_up
        for a, b in ((got.u, ref.u), (got.v, ref.v)):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
        assert (pb.verify_heat_diff_inequality(got).passed
                == pb.verify_heat_diff_inequality(ref).passed)

    def test_periodic_factor_follows_the_step(self):
        # the factor is kept for one s: a changed s builds a fresh one
        geom = pb.PeriodicBox(num_nodes=64)
        S = TestStackedForm.stack(geom)
        diffuser = pb._PeriodicDiffusion(geom)
        for s in (0.05, 0.05, 1e-4, 0.05):
            assert np.array_equal(diffuser.cn_step(S, s), pb._PeriodicDiffusion(geom).cn_step(S, s))


class TestTimeRefinement:
    """The step rule REL_INCREMENT against runs at finer rules, as in the study that chose it.

    The budget: no check's verdict moves, and a margin that the run at
    REL_INCREMENT / 32 puts within 10 tol * scale of zero stays within
    0.1 tol * scale of that run.
    """

    @staticmethod
    def run_at(monkeypatch, rel, geom, p, r, u_init, v_init, t_final, snapshots):
        monkeypatch.setattr(pb, "REL_INCREMENT", rel)
        return pb.simulate(geom, p, r, u_init, v_init, t_final, num_snapshots=snapshots)

    @pytest.mark.parametrize("geom", [pb.PeriodicBox(num_nodes=64),
                                      pb.RadialBall(n=3, num_intervals=64)],
                             ids=["periodic", "radial"])
    def test_second_order_in_time(self, geom, monkeypatch):
        # four snapshots leave every run bound by the controller, not the snapshot mesh
        x, rule = geom.x, pb.REL_INCREMENT
        *runs, ref = (self.run_at(monkeypatch, rel, geom, 2.0, 1.5, 1.0 + 0.05 * np.cos(x),
                                  1.6 + 0.02 * np.cos(2 * x), 0.2, 4)
                      for rel in (rule, rule / 2, rule / 4, rule / 32))
        for name in ("u", "v"):
            err = [np.abs(getattr(fld, name) - getattr(ref, name)).max() for fld in runs]
            orders = np.log2(np.divide(err[:-1], err[1:]))
            assert np.all(np.abs(orders - 2.0) <= 0.3), (name, orders)

    def readme_moves(self, monkeypatch, rule):
        """Whether the README example keeps its verdicts at rule, and its heat margin's move."""
        geom = pb.PeriodicBox()
        x = geom.x
        reports = []
        for rel in (rule, rule / 32):
            fld = self.run_at(monkeypatch, rel, geom, 2.0, 1.0, 1.0 + 0.03 * np.cos(x),
                              1.2 + 0.03 * np.cos(2 * x), 0.4, 128)
            reports.append([pb.verify_heat_diff_inequality(fld),
                            pb.verify_component_comparison(fld), pb.verify_sign_propagation(fld)])
        (heat, *_), (heat_ref, *_) = reports
        tol = heat_ref.tol * heat_ref.scale
        # the early-time heat defect leaves this margin failing, inside the budget's 10 tol
        assert -10.0 <= heat_ref.min_margin / tol < -1.0
        verdicts = [[rep.passed for rep in run] for run in reports]
        return verdicts[0] == verdicts[1], abs(heat.min_margin - heat_ref.min_margin) / tol

    def test_readme_example_within_budget(self, monkeypatch):
        # the binding case of the study; the next one-digit rule leaves the
        # budget here, so the rule is the largest inside it
        rule = pb.REL_INCREMENT
        same_verdicts, move = self.readme_moves(monkeypatch, rule)
        assert same_verdicts and move <= 0.1
        assert self.readme_moves(monkeypatch, rule + 10.0 ** np.floor(np.log10(rule)))[1] > 0.1


def spelled_out_bands(geom):
    """The radial operator's (upper, diagonal, lower) bands, coefficient by coefficient."""
    h, n = geom.h, geom.n
    bands = np.zeros((3, geom.num_nodes))
    upper, diag, lower = bands
    two_h_r = 2.0 * h * (np.arange(1, geom.num_nodes - 1) * h)
    diag[1:] = -2.0 / h**2
    lower[0:-2] = 1.0 / h**2 - (n - 1) / two_h_r
    upper[2:] = 1.0 / h**2 + (n - 1) / two_h_r
    diag[0] = -2.0 * n / h**2
    upper[1] = 2.0 * n / h**2
    lower[-2] = 2.0 / h**2
    return bands


class TestBandsFromStencil:
    """The CN bands are read off RadialBall.laplacian, so they are its operator."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    @pytest.mark.parametrize("intervals", [3, 4, 5, 512])
    @pytest.mark.parametrize("radius", [np.pi, 0.37])
    def test_match_spelled_out_bands(self, n, intervals, radius):
        geom = pb.RadialBall(n=n, radius=radius, num_intervals=intervals)
        got, ref = pb._RadialDiffusion(geom)._bands, spelled_out_bands(geom)
        # the entries dgtsv reads
        for band, sl in ((0, np.s_[1:]), (1, np.s_[:]), (2, np.s_[:-1])):
            assert np.array_equal(got[band, sl], ref[band, sl])

    @pytest.mark.parametrize("n", [1, 3, 7])
    @pytest.mark.parametrize("intervals", [3, 64])
    def test_band_product_is_the_stencil(self, n, intervals):
        # a row reaching past its three neighbours would alias in the combs
        # and fail here
        geom = pb.RadialBall(n=n, radius=np.pi, num_intervals=intervals)
        upper, diag, lower = pb._RadialDiffusion(geom)._bands
        f = np.random.default_rng(n + intervals).normal(size=geom.num_nodes)
        prod = diag * f
        prod[:-1] += upper[1:] * f[1:]
        prod[1:] += lower[:-1] * f[:-1]
        lap = geom.laplacian(f)
        assert np.abs(prod - lap).max() <= 1e-13 * np.abs(diag).max() * np.abs(f).max()


class TestScalarPowerBounds:
    def test_square_case_is_identity(self):
        # (a+b)^2 - a^2 = 2ab + b^2 >= b^2
        rep = pb.verify_scalar_power_bounds(2.0, 1.0)
        assert rep.passed and rep.params["violations"] == 0

    def test_hand_sample(self):
        # p = 3, eps = 0.5: a = 2, b = 1 gives 7 >= 2
        eps = pb.convexity_epsilon(3.0, 2.0)
        assert eps == pytest.approx(0.5 * min((3 * 2 - 1) / 3, 2.0), rel=1e-14)
        a, b, p = 2.0, 1.0, 3.0
        lhs = a**p - b**p
        rhs = (p / (1 + 0.5)) * b ** (p - 0.5 - 1) * (a - b) ** 1.5
        assert lhs == 7.0 and rhs == pytest.approx(2.0, rel=1e-14)

    # at p = 7e5, (1 + t)^p overflows to +inf without a warning
    @pytest.mark.parametrize("p,r", [(2.0, 1.0), (3.0, 2.0), (2.0, 2.0), (1.1, 1.0),
                                     (7.0, 0.2), (1.5, 0.7), (50.0, 0.05), (7e5, 1.0)])
    def test_no_violations(self, p, r):
        rep = pb.verify_scalar_power_bounds(p, r)
        assert rep.passed and rep.params["violations"] == 0

    def test_empty_interval_refused(self):
        with pytest.raises(PreconditionError):
            pb.convexity_epsilon(1.0, 1.0)
        # a non-finite or non-positive exponent is refused before p*r > 1 and
        # p > 1, which NaN and inf pass
        for p, r in [(2.0, np.nan), (np.inf, 2.0), (3.0, np.inf), (3.0, -1.0)]:
            with pytest.raises(DomainError):
                pb.verify_scalar_power_bounds(p, r)


class TestGeometryGuards:
    @pytest.mark.parametrize("length", [0.0, -1.0, np.nan, np.inf])
    def test_periodic_length(self, length):
        with pytest.raises(DomainError):
            pb.PeriodicBox(length=length)

    @pytest.mark.parametrize("radius", [0.0, -1.0, np.nan, np.inf])
    def test_radial_radius(self, radius):
        with pytest.raises(DomainError):
            pb.RadialBall(radius=radius)

    @pytest.mark.parametrize("make", [
        lambda: pb.PeriodicBox(num_nodes=64.9),
        lambda: pb.RadialBall(num_intervals=64.5),
        lambda: pb.simulate(pb.PeriodicBox(num_nodes=16), 2.0, 1.0, 1.0, 1.2, 0.01,
                            num_snapshots=4.5)])
    def test_non_integer_counts(self, make):
        with pytest.raises(SizeError, match="must be an integer"):
            make()

    def test_sizes(self):
        for nodes in (0, 1, 2):
            with pytest.raises(SizeError):
                pb.PeriodicBox(num_nodes=nodes)
            with pytest.raises(SizeError):
                pb.RadialBall(num_intervals=nodes)
        assert pb.PeriodicBox(num_nodes=3).x.shape == (3,)
        assert pb.RadialBall(num_intervals=3).x.shape == (4,)


class TestRadialStencil:
    def test_interior_matches_grid_stencil(self):
        from biharm_lab.grids import laplacian_values
        geom = pb.RadialBall(n=4, radius=2.0, num_intervals=64)
        f = np.cos(geom.x) + 0.1 * geom.x**3
        lap = geom.laplacian(f)
        assert np.array_equal(lap[:-1], laplacian_values(f, geom.h, geom.n)[:-1])
        assert lap[-1] == 2.0 * (f[-2] - f[-1]) / geom.h**2

    # n = 1 and 2 exist only for the ball: the elliptic grids start at n = 3
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("stacked", [False, True], ids=["1d", "stack"])
    def test_grid_stencil_with_ghost_wall(self, n, stacked):
        from biharm_lab.grids import laplacian_values
        geom = pb.RadialBall(n=n, radius=0.37, num_intervals=40)
        f = np.cos(geom.x) + 0.1 * geom.x**3
        if stacked:
            f = np.stack([f, 2.0 * f - geom.x, f**2])
        lap = geom.laplacian(f)
        assert lap.shape == f.shape
        assert np.array_equal(lap[..., :-1], laplacian_values(f, geom.h, n)[..., :-1])
        assert np.array_equal(lap[..., -1], 2.0 * (f[..., -2] - f[..., -1]) / geom.h**2)


def stack_run(case):
    """A perturbed periodic run, a radial run or a homogeneous run."""
    if case == "radial":
        geom = pb.RadialBall(n=3, radius=np.pi, num_intervals=96)
        r = geom.x
        return pb.simulate(geom, 2.5, 1.0, 1.0 + 0.03 * np.cos(r),
                           1.6 + 0.02 * np.cos(2 * r), t_final=0.1, num_snapshots=32)
    geom = pb.PeriodicBox(num_nodes=96)
    if case == "homogeneous":
        return pb.simulate(geom, 2.0, 1.0, 1.0, 1.2, t_final=0.1, num_snapshots=16)
    x = geom.x
    return pb.simulate(geom, 2.0, 1.3, 1.0 + 0.05 * np.cos(2 * x),
                       2.0 + 0.04 * np.sin(2 * x), t_final=0.1, num_snapshots=32)


def loop_residual(fld):
    """Per-snapshot reference of the snapshot residual check."""
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
    return worst


def loop_heat_margin(fld):
    """Per-snapshot reference of the heat inequality's worst margin and scale."""
    geom = fld.geometry
    sig, ell = fld.sigma, fld.ell
    dt = fld.times[1] - fld.times[0]
    w = fld.w
    sl = geom.trim_slice()
    worst = {"min_margin": np.inf}
    scale = 1.0
    for j in range(1, fld.times.shape[0] - 1):
        lap_w = geom.laplacian(w[j])
        w_t = (w[j + 1] - w[j - 1]) / (2.0 * dt)
        reac = ell * sig * fld.v[j] ** (sig - 1.0) \
            * (fld.u[j] ** fld.p_exp - ell**fld.p_exp * fld.v[j] ** (sig * fld.p_exp))
        scale = max(scale, float(np.abs(lap_w[sl]).max()),
                    float(np.abs(w_t[sl]).max()), float(np.abs(reac[sl]).max()))
        margin = (lap_w - w_t - reac)[sl]
        i = int(np.argmin(margin))
        if margin[i] < worst["min_margin"]:   # strict: the earliest snapshot wins a tie
            worst = {"min_margin": float(margin[i]), "argmin_r": float(geom.x[sl][i]),
                     "argmin_t": float(fld.times[j])}
    return dict(worst, scale=scale)


class TestStackedForm:
    """Operators act on the last axis: a stack equals its rows, bitwise."""

    GEOMETRIES = [pb.PeriodicBox(num_nodes=64), pb.RadialBall(n=3, num_intervals=64),
                  pb.RadialBall(n=2, radius=2.0, num_intervals=40)]
    IDS = ["periodic", "radial-n3", "radial-n2"]

    @staticmethod
    def stack(geom):
        x = geom.x
        return np.stack((1.0 + 0.1 * np.cos(x), 2.0 + 0.3 * np.cos(2 * x) + 0.01 * x**2))

    def test_grid_laplacian(self):
        from biharm_lab.grids import laplacian_values
        S = self.stack(pb.RadialBall(n=4, radius=2.0, num_intervals=50))
        S3 = np.stack((S, 2.0 * S[::-1]))   # (2, 2, nodes)
        assert np.array_equal(laplacian_values(S, 0.04, 4),
                              [laplacian_values(f, 0.04, 4) for f in S])
        assert np.array_equal(laplacian_values(S3, 0.04, 4),
                              [[laplacian_values(f, 0.04, 4) for f in rows] for rows in S3])

    @pytest.mark.parametrize("geom", GEOMETRIES, ids=IDS)
    def test_geometry_laplacian(self, geom):
        S = self.stack(geom)
        assert np.array_equal(geom.laplacian(S), [geom.laplacian(f) for f in S])

    @pytest.mark.parametrize("geom", GEOMETRIES, ids=IDS)
    def test_cn_step(self, geom):
        diffuser = (pb._PeriodicDiffusion(geom) if isinstance(geom, pb.PeriodicBox)
                    else pb._RadialDiffusion(geom))
        S = self.stack(geom)
        for s in (1e-4, 0.05):
            assert np.array_equal(diffuser.cn_step(S, s), [diffuser.cn_step(f, s) for f in S])

    @pytest.mark.parametrize("case", ["periodic", "radial", "homogeneous"])
    def test_verifiers_match_snapshot_loops(self, case):
        fld = stack_run(case)
        assert not fld.blown_up
        rep = pb.verify_heat_diff_inequality(fld)
        assert rep.params["relative_residual"] == loop_residual(fld)
        ref = loop_heat_margin(fld)
        got = {"min_margin": rep.min_margin, "argmin_r": rep.argmin_r,
               "argmin_t": rep.argmin_t, "scale": rep.scale}
        assert got == ref

    @pytest.mark.parametrize("geom", GEOMETRIES[:2], ids=IDS[:2])
    def test_residual_refusal_matches_loop(self, geom):
        # four snapshots of a fast-growing run are far too coarse in time
        x = geom.x
        fld = pb.simulate(geom, 3.0, 1.5, 1.5 + 0.2 * np.cos(x), 1.8 + 0.1 * np.cos(2 * x),
                          0.5, num_snapshots=4, blowup_factor=50.0)
        worst = loop_residual(fld)
        assert worst > pb.RESIDUAL_THRESHOLD
        with pytest.raises(PreconditionError, match=f"relative residual {worst:.3e} exceeds"):
            pb.verify_heat_diff_inequality(fld)


class TestCounters:
    def test_deterministic_and_kept_out_of_manifest(self):
        from dataclasses import replace

        from biharm_lab.serialize import json_text
        runs = [stack_run("radial") for _ in range(2)]
        counters = [fld.meta["counters"] for fld in runs]
        assert counters[0] == counters[1]
        c = counters[0]
        assert c["diffusion_solves"] == 2 * c["steps"]
        assert c["steps"] >= 32 and 0 < c["dt_min"] <= 0.1 / 32
        assert isinstance(c["rate_last"], float) and c["rate_last"] > 0
        for fld in runs:
            text = json_text(fld.manifest())
            bare = replace(fld, meta={"dt_policy": fld.meta["dt_policy"]})
            assert "counters" not in text and text == json_text(bare.manifest())

    def test_no_step_taken(self):
        # a controller step below the floor truncates before the first step
        fld = pb.simulate(pb.PeriodicBox(num_nodes=16), 2.0, 1.0, 1e10, 1e10, 1.0)
        assert fld.truncation_reason == "controller-underflow"
        assert fld.meta["counters"] == {"steps": 0, "dt_min": None, "diffusion_solves": 0,
                                        "rate_last": None}


def allocating_simulate(geometry, p_exp, r_exp, u_init, v_init, t_final, num_snapshots,
                        blowup_factor=pb.BLOWUP_FACTOR):
    """Reference of simulate's step loop, building the reaction and every RK4 sum afresh.

    Returns the snapshots of u and v, their times, the counters, the
    truncation reason and the time reached.
    """
    def reaction(S):
        out = np.empty_like(S)
        out[0] = S[1] ** r_exp
        out[1] = S[0] ** p_exp
        return out

    S = np.empty((2, geometry.num_nodes))
    S[0], S[1] = u_init, v_init
    diffuser = (pb._PeriodicDiffusion(geometry) if isinstance(geometry, pb.PeriodicBox)
                else pb._RadialDiffusion(geometry))
    t_snap = np.linspace(0.0, t_final, num_snapshots + 1)
    cap = blowup_factor * float(S.max())
    dt_floor = 1e-12 * max(t_final, 1.0)
    snaps, ts, dts = [S], [0.0], []
    t, reason, rate_last, j_next = 0.0, None, None, 1
    with np.errstate(over="ignore", invalid="ignore"):
        while j_next <= num_snapshots:
            rate = float((reaction(S) / S).max())
            dt = pb.REL_INCREMENT / rate if rate > 0 else t_final / num_snapshots
            dt = min(dt, t_snap[j_next] - t)
            if dt < dt_floor:
                reason = "controller-underflow"
                break
            dts.append(dt)
            rate_last = rate
            Sn = diffuser.cn_step(S, 0.5 * dt)
            k1 = reaction(Sn)
            k2 = reaction(Sn + 0.5 * dt * k1)
            k3 = reaction(Sn + 0.5 * dt * k2)
            k4 = reaction(Sn + dt * k3)
            Sn = diffuser.cn_step(Sn + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4), 0.5 * dt)
            reason = pb._truncation(Sn, cap)
            if reason in ("non-finite-state", "positivity-lost"):
                break
            S = Sn
            t += dt
            if reason == "blow-up":
                break
            if t >= t_snap[j_next] - 1e-14 * max(t_final, 1.0):
                t = t_snap[j_next]
                snaps.append(S)
                ts.append(t)
                j_next += 1
    snaps = np.stack(snaps, axis=1)
    counters = {"steps": len(dts), "dt_min": min(dts, default=None),
                "diffusion_solves": 2 * len(dts), "rate_last": rate_last}
    return snaps[0], snaps[1], np.asarray(ts), counters, reason, t


def stepper_case(case):
    """(geometry, p, r, u_init, v_init, t_final, snapshots, blowup_factor) of a named run."""
    if case.startswith("radial-n"):
        geom = pb.RadialBall(n=int(case[-1]), radius=np.pi, num_intervals=48)
        x = geom.x
        return (geom, 2.5, 1.3, 1.0 + 0.03 * np.cos(x), 1.6 + 0.02 * np.cos(2 * x),
                0.1, 16, pb.BLOWUP_FACTOR)
    if case == "blow-up":
        geom = pb.RadialBall(n=3, radius=np.pi, num_intervals=32)
        x = geom.x
        return (geom, 2.0, 1.0, 1.0 + 0.05 * np.cos(x), 1.1 + 0.02 * np.cos(2 * x),
                30.0, 20, 2.0)
    if case == "non-finite":
        return (pb.PeriodicBox(num_nodes=16), 7e5, 1.0, float(np.exp(5.59e-5)), 5e8,
                1.0, 4, pb.BLOWUP_FACTOR)
    geom = pb.PeriodicBox(num_nodes=64)
    x = geom.x
    p, r = (2.0, 1.5) if case == "periodic" else map(float, case.split("-")[1:])
    return (geom, p, r, 1.0 + 0.05 * np.cos(2 * x), 2.0 + 0.04 * np.sin(2 * x),
            0.1, 16, pb.BLOWUP_FACTOR)


class TestStepperReference:
    """simulate with its five buffers and stacked power is the allocating loop, bitwise."""

    # p-<p>-<r>: exponents 0.5, 1 and 2 take NumPy's scalar fast paths
    @pytest.mark.parametrize("case", [
        "periodic", "radial-n2", "radial-n3", "radial-n5",
        "p-3-0.5", "p-2-1", "p-3-1", "p-2-2", "p-3-2", "blow-up", "non-finite"])
    def test_matches_allocating_loop(self, case):
        geom, p, r, u_init, v_init, t_final, snapshots, factor = stepper_case(case)
        fld = pb.simulate(geom, p, r, u_init, v_init, t_final, num_snapshots=snapshots,
                          blowup_factor=factor)
        u, v, times, counters, reason, t = allocating_simulate(
            geom, p, r, u_init, v_init, t_final, snapshots, blowup_factor=factor)
        assert np.array_equal(fld.u, u) and np.array_equal(fld.v, v)
        assert np.array_equal(fld.times, times) and fld.meta["counters"] == counters
        assert (fld.truncation_reason, fld.t_reached) == (reason, t)
        assert reason == {"blow-up": "blow-up", "non-finite": "non-finite-state"}.get(case)

    def test_second_run_leaves_the_first_unchanged(self):
        geom, p, r, u_init, v_init, t_final, snapshots, factor = stepper_case("radial-n3")
        first = pb.simulate(geom, p, r, u_init, v_init, t_final, num_snapshots=snapshots)
        u, v = first.u.copy(), first.v.copy()
        second = pb.simulate(geom, p, r, 2.0 * u_init, v_init, t_final, num_snapshots=snapshots)
        assert np.array_equal(first.u, u) and np.array_equal(first.v, v)
        assert not np.array_equal(second.u, u)


def whole_field_residual(fld):
    """The snapshot residual reduced over whole (snapshots, nodes) arrays, without refusal."""
    rate, defect = 1.0, 0.0
    for f, source, power in ((fld.u, fld.v, fld.r_exp), (fld.v, fld.u, fld.p_exp)):
        res = pb._time_rate(f, fld.times)
        rate = np.maximum(rate, np.abs(res).max(axis=1))
        res = res - fld.geometry.laplacian(f[1:-1]) - source[1:-1] ** power
        defect = np.maximum(defect, np.abs(res).max(axis=1))
    return float((defect / rate).max())


def whole_field_heat(fld):
    """The heat inequality's report reduced over whole arrays, without the residual gate."""
    geom = fld.geometry
    sig, ell, p_exp = fld.sigma, fld.ell, fld.p_exp
    sl = geom.trim_slice()
    w = fld.w
    lap_w = geom.laplacian(w[1:-1])[:, sl]
    w_t = pb._time_rate(w, fld.times)[:, sl]
    u, v = fld.u[1:-1, sl], fld.v[1:-1, sl]
    reac = ell * sig * v ** (sig - 1.0) * (u ** p_exp - ell**p_exp * v ** (sig * p_exp))
    scale = max(1.0, *(float(np.abs(a).max()) for a in (lap_w, w_t, reac)))
    margin = lap_w - w_t - reac
    return pb.VerificationReport(
        inequality="gap-heat-inequality",
        params={"p": fld.p_exp, "r": fld.r_exp, "sigma": sig,
                "relative_residual": whole_field_residual(fld)},
        tol=pb.TOL_SECOND_ORDER, scale=scale,
        **worst_node(margin, geom.x[sl], fld.times[1:-1])), margin


def whole_field_comparison(fld):
    v_term = fld.v ** (fld.r_exp + 1.0) / (fld.r_exp + 1.0)
    u_term = fld.u ** (fld.p_exp + 1.0) / (fld.p_exp + 1.0)
    margin = v_term - u_term
    scale = max(1.0, float(v_term.max()), float(u_term.max()))
    return pb.VerificationReport(
        inequality="parabolic-power-comparison",
        params={"p": fld.p_exp, "r": fld.r_exp}, tol=pb.TOL_FIRST_ORDER, scale=scale,
        caveats=[pb.ETERNALITY_CAVEAT], **worst_node(margin, fld.geometry.x, fld.times)), margin


def whole_field_propagation(fld):
    w = fld.w
    scale = max(1.0, float(np.abs(w).max()))
    w0_max = float(w[0].max())
    params = {"p": fld.p_exp, "r": fld.r_exp, "initial_max_gap": w0_max}
    if w0_max > pb.TOL_FIRST_ORDER * scale:
        caveat = "not applicable: initial gap has positive nodes"
    elif len(fld.times) < 2:
        caveat = "not applicable: no snapshot after t = 0"
    else:
        return pb.VerificationReport(
            inequality="negativity-propagation", params=params,
            tol=pb.TOL_SECOND_ORDER, scale=scale,
            **worst_node(-w[1:], fld.geometry.x, fld.times[1:])), -w[1:]
    return pb.VerificationReport(
        inequality="negativity-propagation", params=params, applicable=False,
        min_margin=-w0_max, argmin_r=np.nan, tol=pb.TOL_SECOND_ORDER, scale=scale,
        caveats=[caveat]), None


def block_field(geom, snapshots, kind):
    """A (snapshots, nodes) field built to probe the block boundaries.

    ``random`` is noise around a negative gap w; ``homogeneous`` is constant,
    so every margin ties across every block; ``overflow`` puts u^p past the
    float range at nodes in several blocks, so margins read inf and NaN.
    """
    rng = np.random.default_rng(snapshots)
    shape = (snapshots, geom.num_nodes)
    times = np.linspace(0.0, 0.1, snapshots)
    p = 2.0
    if kind == "homogeneous":
        u, v = np.full(shape, 1.0), np.full(shape, 2.0)
    else:
        u, v = 1.0 + 0.1 * rng.random(shape), 2.0 + 0.1 * rng.random(shape)
    if kind == "overflow":
        # u^3 and v^1.5 overflow: alone, to an infinite margin; together, to
        # NaN.  From the middle snapshot on, so a block of finite maxima comes first
        p, mid = 3.0, geom.num_nodes // 2
        for k in range(snapshots // 2, snapshots - 1, 11):
            u[k, mid + 1 + k % 3] = u[k, mid] = 1e150
            v[k, mid - 1 - k % 2] = v[k, mid] = 1e300
    return pb.SpaceTimeField(geometry=geom, p_exp=p, r_exp=1.0, times=times, u=u, v=v,
                             blown_up=False, truncation_reason=None, t_reached=0.1)


class TestBlockReference:
    """The block reductions are the whole-field ones, bitwise, scale included."""

    B = pb.CHECK_BLOCK_SNAPSHOTS

    # K - 2 interior snapshots: a multiple of the block, one more and one less; K = 3
    @pytest.mark.parametrize("snapshots", [2 * B + 2, 2 * B + 3, 2 * B + 1, 3])
    @pytest.mark.parametrize("kind", ["random", "homogeneous", "overflow"])
    @pytest.mark.parametrize("geom", [pb.PeriodicBox(num_nodes=24),
                                      pb.RadialBall(n=3, num_intervals=32)],
                             ids=["periodic", "radial"])
    def test_matches_whole_field(self, geom, snapshots, kind, monkeypatch):
        fld = block_field(geom, snapshots, kind)
        monkeypatch.setattr(pb, "RESIDUAL_THRESHOLD", np.inf)   # any field reaches the checks
        with np.errstate(over="ignore", invalid="ignore"):
            for check, reference in ((pb.verify_heat_diff_inequality, whole_field_heat),
                                     (pb.verify_component_comparison, whole_field_comparison),
                                     (pb.verify_sign_propagation, whole_field_propagation)):
                ref, margin = reference(fld)
                assert repr(check(fld).to_dict()) == repr(ref.to_dict()), check.__name__
                if kind == "overflow" and check is not pb.verify_sign_propagation:
                    assert np.isnan(margin).any() and np.isinf(margin).any(), check.__name__
        if kind == "homogeneous":   # the tie goes to the first node of the first snapshot
            assert pb.verify_component_comparison(fld).argmin_t == 0.0

    def test_nan_rules_across_blocks(self):
        # NaN first shows in the second block: the running maximum keeps it, as
        # ndarray.max does, and a NaN margin in a later block does not displace
        # the earlier block's
        fld = block_field(pb.PeriodicBox(num_nodes=24), 3 * self.B, "random")
        fld.u[self.B + 2, 5] = fld.u[2 * self.B + 1, 3] = np.nan
        residual = pb.verify_heat_diff_inequality(fld).params["relative_residual"]
        assert np.isnan(residual) and np.isnan(whole_field_residual(fld))
        rep = pb.verify_component_comparison(fld)
        assert np.isnan(rep.min_margin) and rep.argmin_t == fld.times[self.B + 2]
        assert rep.argmin_r == fld.geometry.x[5] and not np.isnan(rep.scale)
        assert repr(rep.to_dict()) == repr(whole_field_comparison(fld)[0].to_dict())
