import math

import numpy as np
import pytest

from biharm_lab import biharmonic as bh
from biharm_lab import reports
from biharm_lab import verify as vf
from biharm_lab.errors import PreconditionError
from biharm_lab.grids import Field, RadialGrid

from conftest import (GOLD_B0, GOLD_DU0, GOLD_SCAL0, GOLD_THM_MARGIN0,
                      GOLD_WEAK_MARGIN0)

BETA_REF = math.sqrt(3.0 / 8.0)


def constant_profile(value=1.0, q=7.0, N=64):
    g = RadialGrid.uniform(3, 5.0, N)
    zeros = np.zeros(g.num_nodes)
    return bh.SolutionProfile(
        g, Field(g, np.full(g.num_nodes, value), positive=True),
        Field(g, zeros.copy()), Field(g, zeros.copy()), Field(g, zeros.copy()),
        {"n": 3, "q": q, "source": "fields", "u0": value, "z0": 0.0},
        bh.Classification(bh.POSITIVE))


class TestAuxFields:
    def test_origin_values(self, exact_coarse):
        aux = vf.aux_fields(exact_coarse, 0.5, BETA_REF)
        assert aux.A.values[0] == 0.0
        assert aux.B.values[0] == pytest.approx(GOLD_B0, rel=1e-14)

    def test_zero_coefficients_make_w_negative(self, exact_coarse):
        aux = vf.aux_fields(exact_coarse, 0.0, 0.0)
        assert np.all(aux.w.values < 0)

    def test_weight_preserves_sign(self, exact_coarse):
        aux = vf.aux_fields(exact_coarse, 0.5, BETA_REF)
        w_gamma = exact_coarse.u.values ** -0.3 * aux.w.values
        assert np.array_equal(np.sign(w_gamma), np.sign(aux.w.values))


class TestPointwiseBound:
    def test_reference_margin_at_origin(self, exact_coarse):
        rep = vf.verify_pointwise_bound(exact_coarse, 0.5, BETA_REF)
        assert rep.passed
        assert rep.margin.values[0] == pytest.approx(GOLD_THM_MARGIN0, rel=1e-12)
        assert rep.min_margin > 0

    def test_degenerate_zero_coefficients(self, exact_coarse):
        rep = vf.verify_pointwise_bound(exact_coarse, 0.0, 0.0)
        assert rep.passed
        assert np.array_equal(rep.margin.values, exact_coarse.z.values)

    def test_weak_margin_at_origin(self, exact_coarse):
        rep = vf.verify_weak_bound(exact_coarse)
        assert rep.passed
        assert rep.margin.values[0] == pytest.approx(GOLD_WEAK_MARGIN0, rel=1e-12)
        assert rep.caveats == []

    def test_inadmissible_params_refused(self, exact_coarse):
        with pytest.raises(PreconditionError, match="beta <= beta_max"):
            vf.verify_pointwise_bound(exact_coarse, 0.5, 2.0 * BETA_REF)

    def test_sharp_requires_q_at_least_three(self):
        prof = bh.shoot(3, 2.0, 1.0, 3.0, 10.0, num_intervals=256)
        with pytest.raises(PreconditionError):
            vf.verify_sharp_bound(prof)

    def test_monotone_in_beta(self, exact_coarse):
        mins = []
        for frac in (0.2, 0.5, 0.8, 1.0):
            rep = vf.verify_pointwise_bound(exact_coarse, 0.5, frac * BETA_REF)
            mins.append(rep.min_margin)
        assert all(a >= b - 1e-14 for a, b in zip(mins, mins[1:]))

    def test_equivalent_to_gap_sign(self, exact_coarse):
        rep = vf.verify_pointwise_bound(exact_coarse, 0.5, BETA_REF)
        aux = vf.aux_fields(exact_coarse, 0.5, BETA_REF)
        sl = exact_coarse.grid.trim_slice()
        assert rep.passed == bool(aux.w.values[sl].max() <= rep.tol * rep.scale)
        assert np.allclose(rep.margin.values, -aux.w.values)


class TestGradientBound:
    def test_origin_margin_is_laplacian(self, exact_coarse):
        rep = vf.verify_gradient_bound(exact_coarse)
        assert rep.passed
        assert rep.margin.values[0] == pytest.approx(GOLD_DU0, rel=1e-13)

    def test_closed_form_at_interior_point(self, exact_coarse):
        # brute evaluation of lap u - |grad u|^2/(2u) at r = 5
        rep = vf.verify_gradient_bound(exact_coarse)
        r = 5.0
        c = bh.EXACT_AMPLITUDE
        z = c * (3 + 2 * r * r) * (1 + r * r) ** -1.5
        a = c * r * r * (1 + r * r) ** -1.5
        i = int(round(r / exact_coarse.grid.h))
        assert rep.margin.values[i] == pytest.approx(z - a / 2, rel=1e-6)
        assert z - a / 2 > 0

    def test_constant_profile_margin_zero(self):
        rep = vf.verify_gradient_bound(constant_profile())
        assert np.allclose(rep.margin.values, 0.0)
        assert rep.passed


class TestAuxInequality:
    def test_reference_params_pass(self, exact_fine):
        rep = vf.verify_aux_inequality(exact_fine, 0.5, BETA_REF)
        assert rep.passed

    def test_laplacian_identity(self, exact_fine):
        rep = vf.laplacian_identity_defect(exact_fine, 0.5, BETA_REF)
        assert rep.passed
        assert abs(rep.min_margin) <= rep.tol * rep.scale

    def test_hessian_trace_inequality(self, exact_coarse):
        # ||hess u||^2 >= (tr hess u)^2 / n for the radial Hessian
        # diag(u'', u'/r, ..., u'/r): elementary Cauchy-Schwarz check
        g = exact_coarse.grid
        r = g.r[1:]
        c = bh.EXACT_AMPLITUDE
        upp = c * (1 + r * r) ** -1.5
        uor = exact_coarse.du.values[1:] / r
        lhs = upp**2 + (g.n - 1) * uor**2
        rhs = (upp + (g.n - 1) * uor) ** 2 / g.n
        assert np.all(lhs >= rhs - 1e-14)

    def test_margin_equals_matrix_gap(self, exact_fine):
        # the aux margin is exactly the Cauchy-Schwarz slack of the radial
        # Hessian, 2 alpha (n-1)/n (u'' - u'/r + (alpha-1) u'^2/u)^2
        alpha, beta = 0.35, 0.4
        rep = vf.verify_aux_inequality(exact_fine, alpha, beta)
        g = exact_fine.grid
        r = g.r
        c = bh.EXACT_AMPLITUDE
        u = exact_fine.u.values
        du = exact_fine.du.values
        upp = c * (1 + r * r) ** -1.5
        uor = np.where(r > 0, du / np.where(r > 0, r, 1.0), upp)
        gap = 2 * alpha * (g.n - 1) / g.n * (upp - uor + (alpha - 1) * du * du / u) ** 2
        sl = g.trim_slice()
        assert np.abs(rep.margin.values[sl] - gap[sl]).max() < 5e-6


class TestWeightedAuxInequality:
    def test_gamma_zero_is_unweighted_reduction(self, exact_fine):
        # at gamma = 0 the weighted margin equals the aux margin with the
        # I-coefficient terms dropped
        alpha, beta = 0.5, BETA_REF
        rep_w = vf.verify_weighted_aux_inequality(exact_fine, alpha, beta, 0.0)
        from biharm_lab.grids import derivative_values, laplacian_values
        from biharm_lab.params import ParamSet, coefficients
        aux = vf.aux_fields(exact_fine, alpha, beta)
        g = exact_fine.grid
        c = coefficients(ParamSet(n=g.n, q=7.0, alpha=alpha, beta=beta))
        dw = derivative_values(aux.w.values, g.h)
        reduced = (exact_fine.u.values * laplacian_values(aux.w.values, g.h, g.n)
                   - (-2 * alpha * exact_fine.du.values * dw
                      + (2 * alpha / g.n) * aux.w.values**2
                      + c.K1 * alpha * aux.A.values * aux.w.values
                      + c.K2 * beta * aux.B.values * aux.w.values))
        assert np.allclose(rep_w.margin.values, reduced, atol=1e-10)

    def test_feasible_gamma_passes(self, exact_fine):
        rep = vf.verify_weighted_aux_inequality(exact_fine, 0.5, BETA_REF, 0.2)
        assert rep.passed

    def test_infeasible_gamma_refused(self, exact_coarse):
        with pytest.raises(PreconditionError):
            vf.verify_weighted_aux_inequality(exact_coarse, 0.5, BETA_REF, 0.9)


class TestScalarCurvature:
    def test_reference_origin_value(self, exact_coarse):
        rep = vf.scalar_curvature(exact_coarse)
        fld = rep.margin
        assert rep.passed
        assert fld.values[0] == pytest.approx(GOLD_SCAL0, rel=1e-12)
        sl = exact_coarse.grid.trim_slice()
        assert np.all(fld.values[sl] < 0)

    def test_constant_profile_flat(self):
        rep = vf.scalar_curvature(constant_profile(1.0))
        assert np.allclose(rep.margin.values, 0.0)
        assert rep.passed


class TestNonConformingProfilesRefused:
    def test_touched_zero_rejected(self):
        prof = bh.shoot(3, 7.0, 1.0, 0.3, 10.0, num_intervals=256)
        with pytest.raises(PreconditionError):
            vf.verify_pointwise_bound(prof, 0.5, BETA_REF)


class TestFormulationEquivalence:
    def test_weighted_gap_sign_matches_plain(self, exact_coarse):
        # pass/fail of the pointwise bound is equivalent to max w <= tol*scale
        # and to max w_gamma <= tol*scale' (positive pointwise rescaling)
        alpha, beta = 0.5, BETA_REF
        rep = vf.verify_pointwise_bound(exact_coarse, alpha, beta)
        sl = exact_coarse.grid.trim_slice()
        for gamma in (0.0, 0.2, 0.45):
            aux = vf.aux_fields(exact_coarse, alpha, beta)
            wg = (exact_coarse.u.values ** -gamma * aux.w.values)[sl]
            scale_g = max(1.0, np.abs(wg).max())
            assert rep.passed == bool(wg.max() <= rep.tol * scale_g)


class TestVerdictRule:
    """The verdict is derived from min_margin, tol, scale and two_sided."""

    def test_worst_node_coordinates(self):
        m = np.array([[0.5, 0.2, 0.3], [0.4, -0.1, 0.6]])
        r, t = np.array([0.0, 1.0, 2.0]), np.array([10.0, 20.0])
        assert reports.worst_node(m, r, t) == {
            "min_margin": -0.1, "argmin_r": 1.0, "argmin_t": 20.0}
        # two-sided: largest magnitude, sign kept
        assert reports.worst_node(m, r, t, two_sided=True) == {
            "min_margin": 0.6, "argmin_r": 2.0, "argmin_t": 20.0}
        assert reports.worst_node(m[0], r) == {"min_margin": 0.2, "argmin_r": 1.0}

    def test_tol_rederives_verdict(self):
        rep = reports.VerificationReport(inequality="x", params={}, min_margin=-2e-6,
                                         argmin_r=0.0, tol=1e-6, scale=1.0)
        assert rep.passed is False and rep.to_dict()["pass"] is False
        rep.tol = 3e-6
        assert rep.passed is True and rep.to_dict()["pass"] is True
        # two-sided: a positive margin beyond tol * scale fails too
        rep.two_sided, rep.min_margin = True, 4e-6
        assert rep.passed is False
        rep.tol = 5e-6
        assert rep.passed is True

    def test_not_applicable_has_no_verdict(self):
        rep = reports.VerificationReport(inequality="x", params={}, min_margin=-1.0,
                                         argmin_r=0.0, tol=1e-6, scale=1.0,
                                         applicable=False)
        assert rep.passed is None
        rep.tol = 10.0
        assert rep.passed is None and rep.to_dict()["pass"] is None
