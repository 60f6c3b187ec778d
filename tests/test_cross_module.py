"""Agreements between modules on shared objects."""
import dataclasses
import math

import numpy as np
import pytest

from biharm_lab import biharmonic as bh
from biharm_lab import parabolic as pb
from biharm_lab import params as pm
from biharm_lab import system as st
from biharm_lab import verify as vf


class TestBiharmonicVsCoupledSystem:
    def test_weak_bound_equals_comparison_at_unit_exponent(self):
        # for rexp = 1 the comparison level l u^sigma is exactly the
        # gradient-free bound sqrt(2/(q-1)) u^(-(q-1)/2), so the system gap
        # is the negated weak margin of the biharmonic profile
        q = 7.0
        assert st.comparison_factor(q, 1.0) == pytest.approx(
            math.sqrt(2.0 / (q - 1.0)), rel=1e-14)
        prof = bh.shoot(3, q, 1.0, 2.5, 15.0, num_intervals=1024)
        assert prof.conforming
        sysprof = st.SystemProfile.from_fields(
            prof.grid, prof.u.values, prof.z.values, q, 1.0)
        weak = vf.verify_weak_bound(prof)
        gap = sysprof.gap_values()
        assert np.allclose(gap, -weak.margin.values, atol=1e-13)
        cmp_rep = st.verify_component_comparison(sysprof)
        assert cmp_rep.passed == weak.passed

    def test_shared_kernel_consistency(self):
        # shooting the fourth-order problem and the rexp = 1 system from the
        # same data must give the same profile, read as (u, z) or as (u, v)
        c = bh.EXACT_AMPLITUDE
        a = bh.shoot(3, 7.0, c, 3 * c, 10.0, num_intervals=512)
        b = st.solve_radial_system(3, 7.0, 1.0, c, 3 * c, 10.0, num_intervals=512)
        assert isinstance(b, bh.SolutionProfile)
        for x, y in ((a.u, b.u), (a.du, b.du), (a.z, b.v), (a.dz, b.dv), (a.z, b.z)):
            assert x.values.tobytes() == y.values.tobytes()
        assert a.classification == b.classification
        assert a.counters == b.counters
        assert b.residuals()[1].values.tobytes() == bh.residual(a).values.tobytes()


class TestParabolicEqualityManifold:
    def test_zero_gap_is_kinetically_invariant(self):
        # u = l v^sigma solves w = 0 for the reaction ODE; homogeneous runs
        # must stay on the manifold to time-integration accuracy
        p, r = 2.0, 1.0
        sig = (r + 1.0) / (p + 1.0)
        ell = sig ** (-1.0 / (p + 1.0))
        v0 = 1.3
        geom = pb.PeriodicBox(num_nodes=16)
        fld = pb.simulate(geom, p, r, ell * v0**sig, v0, t_final=2.0,
                          num_snapshots=64, blowup_factor=100.0)
        w = fld.w
        scale = max(1.0, float(np.abs(fld.u).max()))
        assert np.abs(w).max() <= 1e-6 * scale

    def test_zero_initial_comparison_margin_is_conserved(self):
        # G(0) = 0 data: the comparison margin stays 0 under the kinetics
        p, r = 3.0, 2.0
        v0 = 1.1
        u0 = ((p + 1.0) / (r + 1.0) * v0 ** (r + 1.0)) ** (1.0 / (p + 1.0))
        geom = pb.PeriodicBox(num_nodes=16)
        fld = pb.simulate(geom, p, r, u0, v0, t_final=5.0,
                          num_snapshots=64, blowup_factor=50.0)
        margin = fld.v ** (r + 1.0) / (r + 1.0) - fld.u ** (p + 1.0) / (p + 1.0)
        assert np.abs(margin).max() <= 1e-6


class TestReportDeterminism:
    def test_repeated_verification_bitwise_equal(self, exact_coarse):
        a = vf.verify_pointwise_bound(exact_coarse, 0.5, math.sqrt(3 / 8))
        b = vf.verify_pointwise_bound(exact_coarse, 0.5, math.sqrt(3 / 8))
        assert a.min_margin == b.min_margin
        assert a.argmin_r == b.argmin_r
        assert np.array_equal(a.margin.values, b.margin.values)
        assert a.to_dict() == b.to_dict()


@pytest.mark.parametrize("record,kind", [
    (pm.ParamSet(n=4, q=5.0, alpha=0.25, beta=0.3, gamma=0.1), None),
    (pm.coefficients(pm.ParamSet(n=4, q=5.0, alpha=0.25, beta=0.3, gamma=0.1)), None),
    (bh.Classification(bh.TOUCHED_ZERO, r_stop=1.5), None),
    (pb.PeriodicBox(length=3.0, num_nodes=24), "periodic"),
    (pb.RadialBall(n=4, radius=2.0, num_intervals=32), "radial"),
])
def test_record_to_dict_is_its_fields_in_a_fresh_dict(record, kind):
    """A record's to_dict is its fields in order, after the geometry's kind."""
    expected = {"kind": kind} if kind else {}
    expected.update((f.name, getattr(record, f.name)) for f in dataclasses.fields(record))
    out = record.to_dict()
    assert list(out.items()) == list(expected.items())
    out.clear()   # a fresh dict: clearing it leaves the record and its next dict whole
    assert record.to_dict() == expected
