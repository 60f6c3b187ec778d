import numpy as np
import pytest

from biharm_lab import _backend
from biharm_lab import biharmonic as bh
from biharm_lab.errors import DomainError
from biharm_lab.grids import Field, RadialGrid, convergence_order

from conftest import GOLD_DU0, GOLD_U0


def test_backend_reported():
    assert _backend.BACKEND == "python"


def test_python_kernel_always_available():
    u, du, v, dv, status, i_stop, _ = _backend.radial_ivp(
        3, 7.0, 1.0, 1.0, 2.0, 10.0 / 256, 256)
    assert status == _backend.STATUS_OK and i_stop == 256
    assert np.all(u > 0)


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
            bh.shoot(3, 7.0, -1.0, 1.0, 5.0)
        with pytest.raises(DomainError):
            bh.shoot(3, 7.0, 1.0, -0.5, 5.0)


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
