"""Formulas written once give what their separate spellings gave, bit for bit.

Each reference below is a test-local copy of a formula as it was spelt a
second time: the float path of the region formulas (math.sqrt, libm
x ** 2, Python's max and min), the scalar even-series start of integrate,
rescale's own profile assembly, each Laplacian lower bound's own margin and
report, and each second-order check's own stencil call, scale and report.
The package's single spelling must reproduce them by float.hex.
"""
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from biharm_lab import _backend, biharmonic, system, verify
from biharm_lab.biharmonic import POSITIVE, Classification
from biharm_lab.errors import BiharmLabError, DomainError, PreconditionError
from biharm_lab.grids import Field, RadialGrid, derivative_values, laplacian_values
from biharm_lab.params import (BOUNDARY_TOL, ParamSet, beta_max, beta_max_or_zero,
                               check_admissible, coefficients, gamma_interval, q_min,
                               weak_coefficient)
from biharm_lab.reports import TOL_FIRST_ORDER, TOL_SECOND_ORDER, report_from_margin
from biharm_lab.sweeps import region_sweep


def _hex(x):
    """x with every float (NumPy scalars too) as its hex string, recursively."""
    if isinstance(x, float):
        return float(x).hex()
    if isinstance(x, dict):
        return {k: _hex(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_hex(v) for v in x]
    return x


# -- the region formulas: one NumPy spelling against the float path ------------

def _float_region(n, q, a, b, g=0.0):
    """(bmax, qf, admissible, coefficients, gamma_star) by the float-path spelling."""
    def leq(x, y):
        return x <= y + BOUNDARY_TOL * max(1.0, abs(x), abs(y))

    def square(x):
        try:
            return x ** 2
        except OverflowError:
            return math.inf

    def q_floor(al):
        return 3.0 * al + math.sqrt(9.0 * al * al + (1.0 - 2.0 * al) * (1.0 + 16.0 * al / n))

    den = q - 1.0 - 4.0 * a / n
    bmax = math.sqrt(2.0 / den) if den > 0 else 0.0
    qf = q_floor(min(a, 0.5))
    admissible = leq(a, 0.5) and bmax != 0.0 and leq(b, bmax) and leq(qf, q)
    p = (q - 1.0) / 2.0
    K1 = 1.0 + 4.0 * (1.0 - 2.0 * a) / n
    K2 = p - 4.0 * a / n
    coefs = {"I1": (2.0 / n) * square(1.0 - 2.0 * a) - 2.0 * a * a + a,
             "I2": 1.0 + (2.0 / n) * a * b * b - p * b * b,
             "I3": p * ((q + 1.0) / 2.0 - a) - a * (q - 8.0 * a / n + 4.0 / n),
             "K1": K1, "K2": K2, "J1": 2.0 * a / n + g, "J2": a + g,
             "L1": K1 * a - 3.0 * g * a - g * g + g, "L2": (K2 - g) * b, "p_half": p}
    gamma_star = None
    if admissible:
        b_lin = 3.0 * a - 1.0
        c_const = -(a + 4.0 * a * (1.0 - 2.0 * a) / n)
        gamma_star = min((-b_lin + math.sqrt(b_lin * b_lin - 4.0 * c_const)) / 2.0,
                         (q - 1.0 - 8.0 * a / n) / 2.0, 1.0)
    return bmax, qf, admissible, coefs, gamma_star


N_CELLS = (3, 4, 8)
Q_CELLS = (1.1, 1.5, q_min(0.25, 4), q_min(0.5, 3), 3.0, 7.0, 1e300)
ALPHA_CELLS = (0.0, 0.1, 0.25, 0.5, 0.5 + 1e-13, 0.6, 1e200, 1.7e308)


class TestRegionCells:
    """A single checked cell: Python floats, the float path's bits, the sweep row's bits."""

    @pytest.fixture(scope="class")
    def rows(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return {(r["n"], r["q"], r["alpha"]): r
                    for r in region_sweep(N_CELLS, Q_CELLS, ALPHA_CELLS)}

    @pytest.mark.parametrize("n", N_CELLS)
    @pytest.mark.parametrize("q", Q_CELLS)
    def test_cells(self, n, q, rows):
        for a in ALPHA_CELLS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                beta = beta_max_or_zero(a, q, n)
                res = check_admissible(ParamSet(n=n, q=q, alpha=a, beta=beta))
                gamma_star = gamma_interval(a, q, n).gamma_star if res.admissible else None
            bmax, _, admissible, coefs, ref_gamma = _float_region(n, q, a, beta)
            assert type(beta) is float and beta.hex() == bmax.hex()
            assert res.admissible is admissible
            got = res.coefficients.to_dict()
            assert all(type(v) is float for v in got.values())
            assert _hex(got) == _hex(coefs)
            assert _hex(gamma_star) == _hex(ref_gamma)
            assert gamma_star is None or type(gamma_star) is float
            row = rows[(n, q, a)]
            assert _hex([beta, res.admissible, gamma_star] + [got[k] for k in
                                                              ("I1", "I2", "I3", "K1", "K2")]) \
                == _hex([row[k] for k in ("beta", "admissible", "gamma_star",
                                          "I1", "I2", "I3", "K1", "K2")])

    @pytest.mark.parametrize("a,b,g", [(0.2, 0.3, 0.1), (0.5, 1.7976931348623157e308, 0.0),
                                       (1.7e308, 1.7976931348623157e308, 0.5),
                                       (1e200, 1e200, 0.9), (0.0, 0.0, 0.0)])
    def test_explicit_beta_and_gamma(self, a, b, g):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = check_admissible(ParamSet(n=3, q=7.0, alpha=a, beta=b))
            got = coefficients(ParamSet(n=3, q=7.0, alpha=a, beta=b, gamma=g)).to_dict()
        _, _, admissible, _, _ = _float_region(3, 7.0, a, b)
        assert res.admissible is admissible
        assert all(type(v) is float for v in got.values())
        assert _hex(got) == _hex(_float_region(3, 7.0, a, b, g)[3])

    def test_q_min(self):
        for n in N_CELLS:
            for a in (1e-300, 0.1, 0.25, 0.5):
                got = q_min(a, n)
                assert type(got) is float and got.hex() == _float_region(n, 7.0, a, 0.0)[1].hex()


# -- the even-series start: integrate's point against fill's nodes -------------

def _series_at(series, r):
    """(u, du, v, dv) of the series start at a float r, as integrate spelt it."""
    _, u0, au, bu, v0, av, bv = series
    r2 = r * r
    return (u0 + au * r2 + bu * r2 * r2, 2.0 * au * r + 4.0 * bu * r2 * r,
            v0 + av * r2 + bv * r2 * r2, 2.0 * av * r + 4.0 * bv * r2 * r)


C = biharmonic.EXACT_AMPLITUDE


@pytest.mark.parametrize("n,q,rexp,u0,v0", [(3, 7.0, 1.0, C, 3.0 * C), (4, 5.0, 1.0, 0.8, 3.0),
                                           (5, 2.0, 0.5, 0.7, 0.3), (3, 3.0, 2.0, 1.0, 1.5)])
def test_series_nodes_match_integrate_start(n, q, rexp, u0, v0):
    shot = _backend.integrate(n, q, rexp, u0, v0, 0.02, 5.0)
    r_start = shot.series[0]
    assert r_start == 0.01 and shot.steps[0, 0] == r_start
    # integrate's start state is the series at r_start
    assert _hex(shot.steps[0, 2:6].tolist()) == _hex(_series_at(shot.series, r_start))
    # a fine grid reads nodes 1..10 from the series, node by node as the float form gives
    h = 0.001
    *arrays, status, i_stop = _backend.fill(shot, h, 40)
    assert status == _backend.STATUS_OK and i_stop == 40
    for i in range(1, 11):
        assert _hex([a[i] for a in arrays]) == _hex(_series_at(shot.series, i * h))
    # a grid with a node on r_start meets the steps there without a jump
    *arrays, _, _ = _backend.fill(shot, r_start, 8)
    assert _hex([a[1] for a in arrays]) == _hex(shot.steps[0, 2:6].tolist())


# -- rescale: through the shot-to-profile step, as its own assembly gave -------

def _rescale_ref(profile, lam):
    """(grid, fields, meta) as rescale assembled them itself."""
    fu, fdu, fz, fdz = biharmonic.rescale_factors(lam, *biharmonic.scaling_exponents(profile.q))
    grid = RadialGrid(n=profile.grid.n, h=profile.grid.h * lam,
                      num_intervals=profile.grid.num_intervals)
    meta = dict(profile.meta)
    meta.update(source="rescaled", scale=lam * meta.get("scale", 1.0),
                u0=fu * profile.meta["u0"], z0=fz * profile.meta["z0"])
    fields = (fu * profile.u.values, fdu * profile.du.values,
              fz * profile.z.values, fdz * profile.dz.values)
    return grid, fields, meta


@pytest.mark.parametrize("lam", [0.5, 3.0, 1e-3, 7.25])
@pytest.mark.parametrize("which", ["exact", "shot", "twice"])
def test_rescale_matches_own_assembly(which, lam, exact_coarse, shot_exact):
    profile = {"exact": exact_coarse, "shot": shot_exact,
               "twice": biharmonic.rescale(shot_exact, 1.5)}[which]
    grid, fields, meta = _rescale_ref(profile, lam)
    got = biharmonic.rescale(profile, lam)
    assert got.grid == grid
    for fld, ref in zip((got.u, got.du, got.z, got.dz), fields):
        assert fld.values.tobytes() == ref.tobytes()
    assert got.u.positive and not (got.du.positive or got.z.positive or got.dz.positive)
    assert _hex(got.meta) == _hex(meta) and list(got.meta) == list(meta)
    assert got.classification == Classification(POSITIVE)
    assert got.counters == {}


def test_rescale_refuses_underflowing_u(exact_coarse):
    # near q = 1 the factor lam^(4/(q+1)) is about 1e-300 at lam = 1e-150 and
    # takes a small u below the float range: refused, as a positive Field is
    g = exact_coarse.grid
    profile = replace(exact_coarse, u=Field(g, 1e-30 * exact_coarse.u.values, positive=True),
                      meta=dict(exact_coarse.meta, q=1.0001))
    with pytest.raises(DomainError, match="rescaled u underflows to 0"):
        biharmonic.rescale(profile, 1e-150)


# -- the four lower bounds: one margin-and-report builder ----------------------

GUARD_CAVEAT = "growth guard: tail ratio still rising at window end"


def _pointwise_ref(profile, alpha, beta, check_region=True):
    profile.require_positive()
    params = ParamSet(n=profile.n, q=profile.q, alpha=alpha, beta=beta)
    caveats = [verify.GROWTH_CAVEAT]
    if check_region:
        res = check_admissible(params)
        if not res.admissible:
            raise PreconditionError("; ".join(res.reasons))
        if not verify._growth_guard_ok(profile):
            caveats.append(GUARD_CAVEAT)
    aux = verify.aux_fields(profile, alpha, beta)
    margin = profile.z.values - alpha * aux.A.values - beta * aux.B.values
    scale = max(1.0, float(profile.z.values.max()))
    return report_from_margin("laplacian-lower-bound", Field(profile.grid, margin),
                              TOL_FIRST_ORDER, scale, params.to_dict(), caveats)


def _sharp_ref(profile):
    if profile.q < 3:
        raise PreconditionError(f"the alpha = 1/2 bound needs q >= 3, got q = {profile.q}")
    rep = _pointwise_ref(profile, 0.5, beta_max(0.5, profile.q, profile.n))
    rep.inequality = "laplacian-lower-bound-max-alpha"
    return rep


def _weak_ref(profile):
    rep = _pointwise_ref(profile, 0.0, weak_coefficient(profile.q), check_region=False)
    rep.inequality = "laplacian-lower-bound-weak"
    rep.caveats = []
    return rep


def _gradient_ref(profile):
    profile.require_positive()
    aux = verify.aux_fields(profile, 0.5, 0.0)
    margin = profile.z.values - 0.5 * aux.A.values
    scale = max(1.0, float(profile.z.values.max()))
    return report_from_margin(
        "laplacian-gradient-bound", Field(profile.grid, margin), TOL_FIRST_ORDER, scale,
        {"n": profile.n, "q": profile.q, "alpha": 0.5, "beta": 0.0}, [verify.GROWTH_CAVEAT])


BOUNDS = {
    "pointwise": (lambda p: verify.verify_pointwise_bound(p, 0.5, 0.4),
                  lambda p: _pointwise_ref(p, 0.5, 0.4)),
    "pointwise-zero": (lambda p: verify.verify_pointwise_bound(p, 0.0, 0.0),
                       lambda p: _pointwise_ref(p, 0.0, 0.0)),
    "pointwise-outside": (lambda p: verify.verify_pointwise_bound(p, 0.6, 0.1),
                          lambda p: _pointwise_ref(p, 0.6, 0.1)),
    "sharp": (verify.verify_sharp_bound, _sharp_ref),
    "weak": (verify.verify_weak_bound, _weak_ref),
    "gradient": (verify.verify_gradient_bound, _gradient_ref),
}


@pytest.fixture(scope="module")
def bound_profiles(exact_coarse, shot_exact):
    g = exact_coarse.grid
    # not a solution: u grows like r^3, which trips the growth guard
    rising = Field(g, exact_coarse.u.values * (1.0 + g.r * g.r), positive=True)
    return {
        "exact": exact_coarse,
        "shot": shot_exact,
        "q2.9": biharmonic.shoot(3, 2.9, 1.0, 2.0, 20.0, num_intervals=1024),
        "n4-q5": biharmonic.shoot(4, 5.0, 0.8, 3.0, 20.0, num_intervals=1024),
        "rising-tail": replace(exact_coarse, u=rising),
        "touched": biharmonic.shoot(3, 7.0, 1.0, 0.5, 20.0, num_intervals=1024),
    }


@pytest.mark.parametrize("bound", sorted(BOUNDS))
@pytest.mark.parametrize("which", ["exact", "shot", "q2.9", "n4-q5", "rising-tail", "touched"])
def test_lower_bounds_match_own_margins(bound, which, bound_profiles):
    profile = bound_profiles[which]
    new, ref = BOUNDS[bound]
    try:
        expected = ref(profile)
    except BiharmLabError as exc:
        with pytest.raises(type(exc)) as got:
            new(profile)
        assert str(got.value) == str(exc)
        return
    rep = new(profile)
    assert _hex(rep.to_dict()) == _hex(expected.to_dict())
    assert rep.margin.values.tobytes() == expected.margin.values.tobytes()
    assert rep.margin.grid == expected.margin.grid


def test_some_bounds_carry_the_guard_caveat(bound_profiles):
    # the cases above reach both caveat lists of the region bounds
    caveats = {tuple(_pointwise_ref(bound_profiles[w], 0.5, 0.4).caveats)
               for w in ("exact", "rising-tail")}
    assert caveats == {(verify.GROWTH_CAVEAT,), (verify.GROWTH_CAVEAT, GUARD_CAVEAT)}


def test_aux_fields_refuses_underflow_by_name(exact_coarse):
    # u^(-3) underflows past u = 1e108: the first such node is named
    u = exact_coarse.u.values.copy()
    far = exact_coarse.grid.r >= 5.0
    u[far] *= 1e120
    profile = replace(exact_coarse, u=Field(exact_coarse.grid, u, positive=True))
    i = int(np.argmax(far))
    with pytest.raises(BiharmLabError) as exc:
        verify.aux_fields(profile, 0.5, 0.1)
    assert str(exc.value) == (f"u^(-(q-1)/2) underflows to 0 at r = {exact_coarse.grid.r[i]:.6g} "
                              f"(u = {u[i]:.6g}, q = 7): the bounds cannot be evaluated in floats")


# -- the four second-order checks: one stencil call ----------------------------

def _aux_ref(profile, alpha, beta):
    profile.require_positive()
    params = ParamSet(n=profile.n, q=profile.q, alpha=alpha, beta=beta)
    coefs = coefficients(params)
    aux = verify.aux_fields(profile, alpha, beta)
    g = profile.grid
    dw = derivative_values(aux.w.values, g.h)
    A, B, w = aux.A.values, aux.B.values, aux.w.values
    rhs = (-2.0 * alpha * profile.du.values * dw
           + (2.0 * alpha / g.n) * w * w
           + coefs.K1 * alpha * A * w + coefs.K2 * beta * B * w
           + coefs.I1 * alpha * A * A + coefs.I2 * B * B + coefs.I3 * beta * A * B)
    lhs = profile.u.values * laplacian_values(aux.w.values, g.h, g.n)
    margin = lhs - rhs
    scale = max(1.0, float(np.abs(lhs[g.trim_slice()]).max()))
    return report_from_margin("aux-differential-inequality", Field(g, margin),
                              TOL_SECOND_ORDER, scale, params.to_dict())


def _identity_ref(profile, alpha, beta):
    profile.require_positive()
    p = (profile.q - 1.0) / 2.0
    aux = verify.aux_fields(profile, alpha, beta)
    g = profile.grid
    A, B, w = aux.A.values, aux.B.values, aux.w.values
    lhs = profile.u.values * laplacian_values(B, g.h, g.n)
    rhs = p * B * w + p * (p + 1.0 - alpha) * A * B - p * beta * B * B
    scale = max(1.0, float(np.abs(lhs[g.trim_slice()]).max()))
    return report_from_margin(
        "power-field-laplacian-identity", Field(g, lhs - rhs), TOL_SECOND_ORDER, scale,
        {"n": profile.n, "q": profile.q, "alpha": alpha, "beta": beta}, two_sided=True)


def _weighted_ref(profile, alpha, beta, gamma):
    profile.require_positive()
    params = ParamSet(n=profile.n, q=profile.q, alpha=alpha, beta=beta, gamma=gamma)
    coefs = coefficients(params)
    aux = verify.aux_fields(profile, alpha, beta)
    g = profile.grid
    u = profile.u.values
    wg = Field(g, u ** (-gamma) * aux.w.values).values
    dwg = derivative_values(wg, g.h)
    lhs = u ** (1.0 - gamma) * laplacian_values(wg, g.h, g.n)
    rhs = (coefs.J1 * wg * wg
           + u ** (-gamma) * (-2.0 * coefs.J2 * profile.du.values * dwg
                              + coefs.L1 * aux.A.values * wg
                              + coefs.L2 * aux.B.values * wg))
    scale = max(1.0, float(np.abs(lhs[g.trim_slice()]).max()))
    return report_from_margin("weighted-aux-differential-inequality",
                              Field(g, lhs - rhs), TOL_SECOND_ORDER, scale, params.to_dict())


def _gap_ref(profile):
    profile.require_positive()
    system._require_solution(profile)
    g = profile.grid
    lap_w = laplacian_values(profile.gap_values(), g.h, g.n)
    rhs = system.gap_inequality_rhs(profile)
    scale = max(1.0, float(np.abs(lap_w[g.trim_slice()]).max()))
    return report_from_margin(
        "gap-differential-inequality", Field(g, lap_w - rhs), TOL_SECOND_ORDER, scale,
        {"n": profile.n, "q": profile.q, "rexp": profile.rexp})


SECOND_ORDER = {
    "aux": (lambda p: verify.verify_aux_inequality(p, 0.5, 0.4), lambda p: _aux_ref(p, 0.5, 0.4)),
    "aux-other": (lambda p: verify.verify_aux_inequality(p, 0.3, 1.2),
                  lambda p: _aux_ref(p, 0.3, 1.2)),
    "identity": (lambda p: verify.laplacian_identity_defect(p, 0.5, 0.4),
                 lambda p: _identity_ref(p, 0.5, 0.4)),
    "identity-other": (lambda p: verify.laplacian_identity_defect(p, 0.2, 0.0),
                       lambda p: _identity_ref(p, 0.2, 0.0)),
    "weighted": (lambda p: verify.verify_weighted_aux_inequality(p, 0.5, 0.4, 0.2),
                 lambda p: _weighted_ref(p, 0.5, 0.4, 0.2)),
    "weighted-zero": (lambda p: verify.verify_weighted_aux_inequality(p, 0.4, 0.1, 0.0),
                      lambda p: _weighted_ref(p, 0.4, 0.1, 0.0)),
}


@pytest.fixture(scope="module")
def second_order_profiles(exact_fine):
    return {
        "exact": exact_fine,
        # the steep corner of the n = 3 draw box, where the identity check misses
        "steep-n3": biharmonic.shoot(3, 9.0, 0.5, 24.0, 20.0, num_intervals=32768),
        "n5": biharmonic.shoot(5, 5.0, 1.0, 2.0, 20.0, num_intervals=4096),
        "touched": biharmonic.shoot(3, 7.0, 1.0, 0.5, 20.0, num_intervals=1024),
    }


def _assert_same_report(new, ref):
    try:
        expected = ref()
    except BiharmLabError as exc:
        with pytest.raises(type(exc)) as got:
            new()
        assert str(got.value) == str(exc)
        return
    rep = new()
    assert _hex(rep.to_dict()) == _hex(expected.to_dict())
    assert rep.two_sided is expected.two_sided
    assert rep.margin.values.tobytes() == expected.margin.values.tobytes()
    assert rep.margin.grid == expected.margin.grid


@pytest.mark.parametrize("check", sorted(SECOND_ORDER))
@pytest.mark.parametrize("which", ["exact", "steep-n3", "n5", "touched"])
def test_second_order_checks_match_own_tails(check, which, second_order_profiles):
    profile = second_order_profiles[which]
    new, ref = SECOND_ORDER[check]
    _assert_same_report(lambda: new(profile), lambda: ref(profile))


@pytest.mark.parametrize("n,q,rexp,u0,v0", [(3, 7.0, 1.0, C, 3.0 * C), (5, 5.0, 2.0, 0.7, 2.0),
                                           (4, 3.0, 0.5, 1.0, 2.0)])
def test_gap_check_matches_own_tail(n, q, rexp, u0, v0):
    profile = system.solve_radial_system(n, q, rexp, u0, v0, 10.0, num_intervals=2048)
    assert profile.conforming
    _assert_same_report(lambda: system.verify_gap_diff_inequality(profile),
                        lambda: _gap_ref(profile))


@pytest.mark.parametrize("check", ["aux", "weighted", "identity", "gap"])
def test_second_order_checks_call_the_stencil_once(check, monkeypatch, exact_coarse):
    """One stencil call on a derived field; the gap check's residuals keep their slopes."""
    calls = []

    def spy(f, h, n, df=None):
        calls.append(df is None)
        return laplacian_values(f, h, n, df)

    for module in (verify, system, biharmonic):
        monkeypatch.setattr(module, "laplacian_values", spy)
    if check == "gap":
        system.verify_gap_diff_inequality(system.solve_radial_system(
            3, 7.0, 1.0, C, 3.0 * C, 10.0, num_intervals=512))
        assert sorted(calls) == [False, False, True]   # lap u and lap v with stored slopes
        return
    {"aux": lambda: verify.verify_aux_inequality(exact_coarse, 0.5, 0.4),
     "weighted": lambda: verify.verify_weighted_aux_inequality(exact_coarse, 0.5, 0.4, 0.2),
     "identity": lambda: verify.laplacian_identity_defect(exact_coarse, 0.5, 0.4)}[check]()
    assert calls == [True]
