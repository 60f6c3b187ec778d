import numpy as np
import pytest

from biharm_lab import biharmonic as bh
from biharm_lab import system as st
from biharm_lab.errors import DomainError, PreconditionError, SizeError
from biharm_lab.grids import RadialGrid

from conftest import GOLD_CMP_MARGIN0, GOLD_CONCAVITY_HALF


@pytest.fixture(scope="module")
def exact_pair():
    """The r = 1 coupled system started on the closed-form biharmonic data."""
    c = bh.EXACT_AMPLITUDE
    return st.solve_radial_system(3, 7.0, 1.0, c, 3.0 * c, 10.0, num_intervals=2048)


class TestDefinitions:
    @pytest.mark.parametrize("q,rexp", [(2.0, 0.5), (3.0, 1.0), (7.0, 2.0), (5.0, 1.5)])
    def test_sigma_ell_identities(self, q, rexp):
        sig = st.sigma_exponent(q, rexp)
        ell = st.comparison_factor(q, rexp)
        assert sig < 0
        assert ell ** (rexp + 1) * (-sig) == pytest.approx(1.0, rel=1e-14)
        assert sig * (rexp + 1) == pytest.approx(1.0 - q, rel=1e-14)
        # l^(r+1) = (r+1)/(q-1): the equality level of the comparison
        assert ell ** (rexp + 1) == pytest.approx((rexp + 1) / (q - 1), rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            st.sigma_exponent(1.0, 1.0)
        with pytest.raises(DomainError):
            st.sigma_exponent(7.0, 0.0)
        with pytest.raises(DomainError):
            st.sigma_exponent(np.inf, 1.0)


class TestSolveRadialSystem:
    def test_exact_case_reproduced(self, exact_pair):
        ue, _, ze, _ = bh.exact_fields(exact_pair.grid.r)
        assert np.abs(exact_pair.u.values - ue).max() / ue.max() < 1e-6
        assert np.abs(exact_pair.v.values - ze).max() / ze.max() < 1e-6

    def test_residual_refinement_order(self):
        c = bh.EXACT_AMPLITUDE
        errs = []
        for N in (1024, 2048):
            prof = st.solve_radial_system(3, 7.0, 1.0, c, 3.0 * c, 10.0,
                                          num_intervals=N)
            ru, rv = prof.residuals()
            sl = prof.grid.trim_slice()
            errs.append(max(np.abs(ru.values[sl]).max(), np.abs(rv.values[sl]).max()))
        assert np.log2(errs[0] / errs[1]) >= 1.8

    def test_nonpositive_start_refused(self):
        with pytest.raises(DomainError):
            st.solve_radial_system(3, 7.0, 1.0, 1.0, 0.0, 5.0, num_intervals=64)
        with pytest.raises(DomainError):
            st.solve_radial_system(3, 7.0, 1.0, -1.0, 1.0, 5.0, num_intervals=64)

    def test_zero_intervals_refused(self):
        with pytest.raises(SizeError):
            st.solve_radial_system(3, 7.0, 1.0, 1.0, 2.0, 5.0, num_intervals=0)


class TestComparison:
    def test_exact_case_origin_value(self, exact_pair):
        margin = st.comparison_margin(exact_pair)
        assert margin[0] == pytest.approx(GOLD_CMP_MARGIN0, rel=1e-10)
        rep = st.verify_component_comparison(exact_pair)
        assert rep.passed and rep.min_margin > 0

    def test_equality_level_gives_zero_margin(self):
        # fields with v = l u^sigma pointwise sit exactly on the equality level
        g = RadialGrid.uniform(3, 5.0, 128)
        q, rexp = 5.0, 1.5
        u = 1.0 + 0.1 * g.r**2
        v = st.comparison_factor(q, rexp) * u ** st.sigma_exponent(q, rexp)
        prof = st.SystemProfile.from_fields(g, u, v, q, rexp)
        margin = st.comparison_margin(prof)
        assert np.abs(margin).max() < 1e-14
        assert np.abs(prof.gap_values()).max() < 1e-14

    def test_margin_sign_equivalent_to_gap_sign(self):
        rng = np.random.default_rng(99)
        g = RadialGrid.uniform(3, 5.0, 64)
        q, rexp = 4.0, 0.8
        for _ in range(50):
            u = np.exp(rng.normal(0, 0.5, g.num_nodes))
            v = np.exp(rng.normal(0, 0.5, g.num_nodes))
            prof = st.SystemProfile.from_fields(g, u, v, q, rexp)
            margin = st.comparison_margin(prof)
            w = prof.gap_values()
            assert np.array_equal(margin > 0, w < 0)


class TestGapDiffInequality:
    def test_exact_case_passes(self, exact_pair):
        rep = st.verify_gap_diff_inequality(exact_pair)
        assert rep.passed

    def test_refinement_order(self):
        c = bh.EXACT_AMPLITUDE
        margins = []
        for N in (2048, 4096, 8192):
            prof = st.solve_radial_system(3, 7.0, 1.0, c, 3.0 * c, 10.0,
                                          num_intervals=N)
            margins.append(st.verify_gap_diff_inequality(prof).margin.values)
        t = slice(8, 2041)
        d01 = np.abs(margins[1][::2][:2049] - margins[0])[t].max()
        d12 = np.abs(margins[2][::4][:2049] - margins[1][::2][:2049])[t].max()
        assert np.log2(d01 / d12) >= 1.5

    def test_dropped_term_sign(self):
        # l sigma (sigma-1) u^(sigma-2) |grad u|^2 >= 0 because sigma < 0
        for q, rexp in [(2.0, 0.5), (7.0, 1.0), (3.0, 2.0)]:
            sig = st.sigma_exponent(q, rexp)
            assert sig * (sig - 1.0) > 0

    def test_constant_fields_rhs_sign(self):
        # wiring check of the algebraic side on non-solutions
        g = RadialGrid.uniform(3, 5.0, 64)
        q, rexp = 5.0, 1.5
        sig = st.sigma_exponent(q, rexp)
        ell = st.comparison_factor(q, rexp)
        for c1, c2 in [(1.0, 0.5), (1.0, 2.0), (0.7, 1.3)]:
            prof = st.SystemProfile.from_fields(
                g, np.full(g.num_nodes, c1), np.full(g.num_nodes, c2), q, rexp)
            rhs = st.gap_inequality_rhs(prof)
            expected_sign = np.sign(ell**rexp * c1 ** (sig * rexp) - c2**rexp)
            assert np.all(np.sign(rhs) == expected_sign)

    def test_non_solution_refused(self):
        g = RadialGrid.uniform(3, 5.0, 128)
        prof = st.SystemProfile.from_fields(
            g, 1.0 + 0.5 * np.sin(g.r), 1.0 + 0.3 * np.cos(g.r), 5.0, 1.5)
        with pytest.raises(PreconditionError):
            st.verify_gap_diff_inequality(prof)


class TestConcavityStep:
    def test_synthetic_fields_below_one(self):
        # v = 1, w = 1, rexp = 1/2: margin = sqrt(2) - 1 - 1/(2 sqrt(2))
        g = RadialGrid.uniform(3, 5.0, 64)
        q, rexp = 3.0, 0.5
        sig = st.sigma_exponent(q, rexp)
        ell = st.comparison_factor(q, rexp)
        v = np.ones(g.num_nodes)
        u = ((1.0 + v) / ell) ** (1.0 / sig)   # makes w = l u^sigma - v = 1
        prof = st.SystemProfile.from_fields(g, u, v, q, rexp)
        rep = st.verify_concavity_step(prof)
        assert rep.passed
        assert rep.min_margin == pytest.approx(GOLD_CONCAVITY_HALF, rel=1e-12)

    def test_unit_exponent_degenerates(self):
        g = RadialGrid.uniform(3, 5.0, 64)
        q, rexp = 3.0, 1.0
        ell = st.comparison_factor(q, rexp)
        sig = st.sigma_exponent(q, rexp)
        v = np.ones(g.num_nodes)
        u = ((1.0 + v) / ell) ** (1.0 / sig)
        prof = st.SystemProfile.from_fields(g, u, v, q, rexp)
        rep = st.verify_concavity_step(prof)
        assert rep.passed
        assert abs(rep.min_margin) < 1e-14   # (a+b) - a - b

    def test_vacuous_on_genuine_solution(self, exact_pair):
        rep = st.verify_concavity_step(exact_pair)
        assert rep.passed
        assert rep.params["qualifying_nodes"] == 0
        assert any("vacuous" in c for c in rep.caveats)

    def test_touched_zero_refused(self):
        prof = st.solve_radial_system(3, 7.0, 1.0, 1.0, 0.3, 10.0, num_intervals=512)
        assert not prof.conforming
        with pytest.raises(PreconditionError):
            st.verify_concavity_step(prof)
