import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from biharm_lab import parabolic as pb
from biharm_lab.errors import DomainError, PreconditionError, SizeError


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

    def test_pure_diffusion_preserves_constant_gap(self):
        # a CN step is linear and fixes constants, so two fields that differ
        # by a constant keep that offset under pure diffusion
        for diffuser in (pb._PeriodicDiffusion(pb.PeriodicBox(num_nodes=128)),
                         pb._RadialDiffusion(pb.RadialBall(n=3, num_intervals=128))):
            u0 = 1.0 + 0.05 * np.cos(diffuser.geom.x)
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
        # u grows by a relative 1e-3 a step, so u^p overflows within the RK4
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


class TestDirectSolve:
    """cn_step calls dgtsv on the bands solve_banded((1, 1), ...) would pass it."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("rows", [1, 2])
    def test_matches_solve_banded(self, n, rows):
        from scipy.linalg import solve_banded
        geom = pb.RadialBall(n=n, radius=2.0, num_intervals=40)
        diffuser = pb._RadialDiffusion(geom)
        x = geom.x
        S = np.stack((1.0 + 0.1 * np.cos(x), 2.0 + 0.3 * np.cos(2 * x) + 0.01 * x**2))[:rows]
        for s in (1e-4, 0.05, 3.0):
            ab = -0.5 * s * diffuser._bands
            ab[1] += 1.0
            rhs = S + 0.5 * s * geom.laplacian(S)
            ref = solve_banded((1, 1), ab, rhs.T).T
            got = diffuser.cn_step(S, s)
            assert got.shape == S.shape and np.array_equal(got, ref)
            assert np.array_equal(diffuser.cn_step(S[0], s), ref[0])


def spelled_out_bands(geom):
    """The radial operator's (upper, diagonal, lower) bands, coefficient by coefficient."""
    h, n = geom.h, geom.n
    bands = np.zeros((3, geom.num_nodes))
    upper, diag, lower = bands
    diag[1:] = -2.0 / h**2
    lower[0:-2] = 1.0 / h**2 - (n - 1) / geom.two_h_r
    upper[2:] = 1.0 / h**2 + (n - 1) / geom.two_h_r
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

    @pytest.mark.parametrize("p,r", [(2.0, 1.0), (3.0, 2.0), (2.0, 2.0), (1.1, 1.0),
                                     (7.0, 0.2), (1.5, 0.7), (50.0, 0.05)])
    def test_no_violations(self, p, r):
        rep = pb.verify_scalar_power_bounds(p, r)
        assert rep.passed and rep.params["violations"] == 0

    def test_empty_interval_refused(self):
        with pytest.raises(PreconditionError):
            pb.convexity_epsilon(1.0, 1.0)


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
        assert pb._check_snapshot_residuals(fld) == loop_residual(fld)
        rep = pb.verify_heat_diff_inequality(fld)
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
        for fld in runs:
            text = json_text(fld.manifest())
            bare = replace(fld, meta={"dt_policy": fld.meta["dt_policy"]})
            assert "counters" not in text and text == json_text(bare.manifest())

    def test_no_step_taken(self):
        # a controller step below the floor truncates before the first step
        fld = pb.simulate(pb.PeriodicBox(num_nodes=16), 2.0, 1.0, 1e10, 1e10, 1.0)
        assert fld.truncation_reason == "controller-underflow"
        assert fld.meta["counters"] == {"steps": 0, "dt_min": None, "diffusion_solves": 0}
