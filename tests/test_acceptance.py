"""Acceptance suite: the package exit criteria.

One test per criterion; each prints a PASS line with its measured numbers
(run pytest -s to see them).  Tolerances are pinned here, not configurable.
"""
import math
import time

import numpy as np

from biharm_lab import biharmonic as bh
from biharm_lab import cutoffs as co
from biharm_lab import parabolic as pb
from biharm_lab import sweeps
from biharm_lab import system as st
from biharm_lab import verify as vf
from biharm_lab.grids import RadialGrid, convergence_order
from biharm_lab.params import (ParamSet, beta_max, check_admissible,
                               coefficients, q_min)

from test_params import brute_admissible

EPS64 = np.finfo(float).eps


def admissible_samples(n=3, q=7.0, count=10, seed=20260810):
    """Deterministic admissible (alpha, beta) draws for the aux checks."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        a = float(rng.uniform(0.02, 0.5))
        if q_min(a, n) > q:
            continue
        b = float(rng.uniform(0.05, 1.0)) * beta_max(a, q, n)
        if check_admissible(ParamSet(n=n, q=q, alpha=a, beta=b)).admissible:
            out.append((a, b))
    return out


def test_criterion_1_exact_solution_residual():
    t0 = time.perf_counter()
    maxres = {}
    for N in (2048, 4096):
        prof = bh.exact_solution(RadialGrid.uniform(3, 10.0, N))
        sl = prof.grid.trim_slice()
        maxres[N] = float(np.abs(bh.residual(prof).values[sl]).max())
    order = convergence_order(maxres[2048], maxres[4096])
    elapsed = time.perf_counter() - t0
    assert order >= 1.8
    assert maxres[4096] <= 1e-4
    assert elapsed < 5.0
    print(f"\ncriterion 1 PASS: residual order {order:.2f} (>= 1.8), "
          f"max {maxres[4096]:.3e} (<= 1e-4), {elapsed:.2f}s (< 5s)")


def test_criterion_2_pointwise_bound_on_reference_solution():
    prof = bh.exact_solution(RadialGrid.uniform(3, 10.0, 4096))
    rep = vf.verify_pointwise_bound(prof, 0.5, math.sqrt(3.0 / 8.0))
    margin0 = float(rep.margin.values[0])
    assert rep.min_margin > 0
    assert abs(margin0 - 0.4473) <= 1e-3
    print(f"\ncriterion 2 PASS: min margin {rep.min_margin:.4f} > 0, "
          f"margin(0) = {margin0:.6f} within 1e-3 of 0.4473")


def test_criterion_3_weak_bound_across_shooting_sweep():
    t0 = time.perf_counter()
    rows = sweeps.weak_bound_sweep()   # n in {3,4,5}, q in {2,3,5,7}, 24 targets each
    elapsed = time.perf_counter() - t0
    per_combo = {}
    for r in rows:
        per_combo.setdefault((r["n"], r["q"]), []).append(r)
    assert all(len(v) >= 20 for v in per_combo.values())
    positive = [r for r in rows if r["classification"] == "positive-on-window"]
    assert positive, "sweep produced no positive windows"
    failures = [r for r in positive if not r["weak_pass"]]
    assert failures == []
    worst = min(r["min_margin"] for r in positive)
    assert elapsed < 120.0
    print(f"\ncriterion 3 PASS: {len(rows)} shots, {len(positive)} positive windows, "
          f"0 failures, worst margin {worst:+.3e}, {elapsed:.1f}s (< 120s)")


def test_criterion_4_aux_differential_inequality():
    samples = admissible_samples()
    q = 7.0
    grids = {N: bh.exact_solution(RadialGrid.uniform(3, 10.0, N))
             for N in (8192, 16384, 32768)}
    sl_coarse = grids[8192].grid.trim_slice()
    worst_ratio = math.inf
    worst_order = math.inf
    for a, b in samples:
        margins = {}
        for N, prof in grids.items():
            rep = vf.verify_aux_inequality(prof, a, b)
            margins[N] = rep.margin.values
            if N == 32768:
                assert rep.passed, (a, b)
                worst_ratio = min(worst_ratio, rep.min_margin / (rep.tol * rep.scale))
        d01 = np.abs(margins[16384][::2][:8193] - margins[8192])[sl_coarse].max()
        d12 = np.abs(margins[32768][::4][:8193] - margins[16384][::2][:8193])[sl_coarse].max()
        order = convergence_order(d01, d12)
        worst_order = min(worst_order, order)
        assert order >= 1.5, (a, b, order)
    rep_eq = vf.laplacian_identity_defect(grids[32768], 0.5, math.sqrt(3.0 / 8.0))
    assert rep_eq.passed
    print(f"\ncriterion 4 PASS: 10 admissible samples, worst margin/tol*scale "
          f"{worst_ratio:+.2f}, worst refinement order {worst_order:.2f} (>= 1.5), "
          f"identity defect {abs(rep_eq.min_margin):.2e} <= {rep_eq.tol * rep_eq.scale:.2e}")


def test_criterion_5_parameter_region_algebra():
    t0 = time.perf_counter()
    for n in range(3, 9):
        assert q_min(0.5, n) == 3.0
        assert abs(q_min(1e-6, n) - 1.0) <= 1e-3
    for (n, q, a) in [(3, 7.0, 0.5), (4, 3.0, 0.25), (5, 5.0, 0.1), (8, 2.0, 0.05)]:
        b = beta_max(a, q, n)
        assert abs(coefficients(ParamSet(n=n, q=q, alpha=a, beta=b)).I2) <= 1e-12
    rng = np.random.default_rng(123)
    mismatches = 0
    for _ in range(10_000):
        n = int(rng.integers(3, 9))
        q = float(rng.uniform(1.0 + 1e-9, 10.0))
        a = float(rng.uniform(0.0, 0.6))
        b = float(rng.uniform(0.0, 2.0))
        got = check_admissible(ParamSet(n=n, q=q, alpha=a, beta=b)).admissible
        mismatches += got != brute_admissible(n, q, a, b)
    elapsed = time.perf_counter() - t0
    assert mismatches == 0
    assert elapsed < 5.0
    print(f"\ncriterion 5 PASS: q_min exact at alpha=1/2 for n=3..8, limit at "
          f"alpha->0 within 1e-3, I2(beta_max)=0 to 1e-12, 10^4 verdicts with "
          f"0 mismatches, {elapsed:.1f}s (< 5s)")


def test_criterion_6_scaling_symmetry():
    c = bh.EXACT_AMPLITUDE
    beta = math.sqrt(3.0 / 8.0)
    worst = 0.0
    for lam in (0.5, 2.0):
        base = bh.shoot(3, 7.0, c, 3 * c, 10.0, num_intervals=2048)
        scaled = bh.rescale(base, lam)
        mu = lam ** 0.5
        direct = bh.shoot(3, 7.0, mu * c, mu / lam**2 * 3 * c, 10.0 * lam,
                          num_intervals=2048)
        rel_u = np.abs(scaled.u.values - direct.u.values).max() / direct.u.values.max()
        rel_z = np.abs(scaled.z.values - direct.z.values).max() / direct.z.values.max()
        assert max(rel_u, rel_z) < 1e-6
        worst = max(worst, rel_u, rel_z)
        assert (vf.verify_aux_inequality(base, 0.5, beta).passed
                == vf.verify_aux_inequality(scaled, 0.5, beta).passed)
    print(f"\ncriterion 6 PASS: shoot/rescale commutation within {worst:.2e} "
          f"(< 1e-6) for lam in {{1/2, 2}}; aux verdicts invariant under rescaling")


def test_criterion_7_component_comparison_for_coupled_system():
    rows = sweeps.system_sweep()
    positive = [r for r in rows if r["classification"] == "positive-on-window"]
    assert positive
    failures = [r for r in positive if not r["comparison_pass"]]
    assert failures == []
    worst = min(r["min_margin"] for r in positive)

    c = bh.EXACT_AMPLITUDE
    margins = {}
    for N in (2048, 4096, 8192):
        prof = st.solve_radial_system(3, 7.0, 1.0, c, 3 * c, 10.0, num_intervals=N)
        if N == 2048:
            m0 = float(st.comparison_margin(prof)[0])
            assert abs(m0 - 1.0159) <= 1e-3
        rep = st.verify_gap_diff_inequality(prof)
        assert rep.passed
        margins[N] = rep.margin.values
    sl = slice(8, 2041)
    d01 = np.abs(margins[4096][::2][:2049] - margins[2048])[sl].max()
    d12 = np.abs(margins[8192][::4][:2049] - margins[4096][::2][:2049])[sl].max()
    order = convergence_order(d01, d12)
    assert order >= 1.5
    print(f"\ncriterion 7 PASS: {len(positive)} positive system windows, 0 comparison "
          f"failures (worst margin {worst:+.3e}); reference case margin(0) = {m0:.5f} "
          f"within 1e-3 of 1.0159; gap inequality order {order:.2f} (>= 1.5)")


def test_criterion_8_parabolic_suite():
    t0 = time.perf_counter()
    pairs = [(2.0, 1.0), (3.0, 2.0), (2.0, 2.0)]

    # (a) kinetic conservation until the blow-up flag.  The blow-up cap is
    # set by float64 cancellation: G subtracts terms of size cap^(p+1), so
    # the 1e-6 drift bound is representable only while
    # cap^(p+1) * eps <= 1e-6 / 4; growth still spans 2-3 decades.
    drifts = {}
    for p, r in pairs:
        cap = (1e-6 / (4.0 * EPS64)) ** (1.0 / (p + 1.0))
        geom = pb.PeriodicBox(num_nodes=32)
        fld = pb.simulate(geom, p, r, 1.0, 1.2, t_final=50.0,
                          num_snapshots=400, blowup_factor=cap)
        assert fld.blown_up and fld.truncation_reason == "blow-up"
        G = fld.v[:, 0] ** (r + 1) / (r + 1) - fld.u[:, 0] ** (p + 1) / (p + 1)
        drift = float(np.abs(G - G[0]).max()) / max(1.0, abs(G[0]))
        drifts[(p, r)] = drift
        assert drift <= 1e-6, (p, r, drift)

    # (b) parabolic differential inequality on non-homogeneous runs
    geom = pb.PeriodicBox(num_nodes=512)
    x = geom.x
    ratios = {}
    for p, r in pairs:
        fld = pb.simulate(geom, p, r, 1.0 + 0.05 * np.cos(x),
                          1.1 + 0.03 * np.sin(x), t_final=0.3, num_snapshots=192)
        rep = pb.verify_heat_diff_inequality(fld)
        assert rep.passed, (p, r, rep.min_margin)
        ratios[(p, r)] = rep.min_margin / (rep.tol * rep.scale)

    # (c) propagation of a nonpositive gap
    sig, ell = 2.0 / 3.0, (2.0 / 3.0) ** (-1.0 / 3.0)
    v0 = 1.2 + 0.04 * np.cos(2 * x)
    u0 = ell * v0**sig - 0.05 + 0.01 * np.sin(x)
    fld = pb.simulate(geom, 2.0, 1.0, u0, v0, t_final=0.4, num_snapshots=128)
    rep_prop = pb.verify_sign_propagation(fld)
    assert rep_prop.passed

    # (d) scalar inequalities on the fixed grid in t = b/a, per exponent pair
    for p, r in pairs:
        rep = pb.verify_scalar_power_bounds(p, r)
        assert rep.passed and rep.params["violations"] == 0

    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    worst_drift = max(drifts.values())
    worst_ratio = min(ratios.values())
    print(f"\ncriterion 8 PASS: conservation drift <= {worst_drift:.2e} (<= 1e-6) "
          f"with blow-up flags raised; inequality margin/tol*scale >= "
          f"{worst_ratio:+.2f}; propagation max gap {-rep_prop.min_margin:+.3e}; "
          f"0 scalar violations on 3 grids in b/a; {elapsed:.1f}s (< 180s)")


def test_criterion_9_cutoff_bound_constants():
    lines = []
    for m in (2.0, 4.0, 8.0):
        fams = {N: co.build_cutoff(m, 1.0, N) for N in (2048, 4096, 8192)}
        rel_l = abs(fams[8192].c_lap - fams[4096].c_lap) / fams[8192].c_lap
        rel_g = abs(fams[8192].c_grad - fams[4096].c_grad) / fams[8192].c_grad
        assert rel_l <= 0.05 and rel_g <= 0.05, (m, rel_l, rel_g)
        scaled = co.build_cutoff(m, 5.0, 8192)
        dev_l = abs(scaled.c_lap * 25.0 - fams[8192].c_lap) / fams[8192].c_lap
        dev_g = abs(scaled.c_grad * 25.0 - fams[8192].c_grad) / fams[8192].c_grad
        assert dev_l <= 0.01 and dev_g <= 0.01, (m, dev_l, dev_g)
        lines.append(f"m={m:g}: C_lap={fams[8192].c_lap:.2f} "
                     f"C_grad={fams[8192].c_grad:.2f} stab=({rel_l:.1%},{rel_g:.1%}) "
                     f"rescale-dev=({dev_l:.2%},{dev_g:.2%})")
    print("\ncriterion 9 PASS: " + "; ".join(lines))
