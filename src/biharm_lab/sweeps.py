"""Deterministic parameter sweeps.

Targets are fixed tables, not random draws: shooting initial data are placed
as multiples kappa of the gradient-free bound coefficient (biharmonic) or of
the comparison level l u0^sigma (coupled system).  Sub-unit multiples produce
windows that lose positivity and exercise the touched-zero classification;
multiples >= 1.6 sit safely inside the entire-solution region, so their
margins are the quantities the sweeps verify.

Every sweep runs its cases one after another in sorted key order, so rows
come out in the same order whatever order the inputs were given in.
"""
from __future__ import annotations

import numpy as np

from . import biharmonic, system, verify
from .params import (ParamSet, _coefficients, _gamma_star, _region_tests, beta_max_or_zero,
                     weak_coefficient)

#: initial-amplitude grid shared by both shooting sweeps
U0_GRID = (0.6, 0.85, 1.2, 1.7)
#: multiples of the gradient-free bound for the biharmonic sweep; the first
#: two lose positivity inside the window, the rest stay entire-like
KAPPA_GRID = (0.5, 0.9, 1.6, 2.2, 3.0, 4.5)
#: multiples of the comparison level for the system sweep
KAPPA_V_GRID = (0.75, 1.4, 2.0, 3.0)

DEFAULT_R_MAX = 20.0
DEFAULT_INTERVALS = 1024


def biharmonic_targets(q: float):
    """(u0, z0, kappa) table for one exponent q."""
    coef = weak_coefficient(q)
    p = (q - 1.0) / 2.0
    return [(u0, kappa * coef * u0**-p, kappa)
            for u0 in U0_GRID for kappa in KAPPA_GRID]


def _weak_case(key):
    n, q, u0, z0, kappa, r_max, intervals = key
    prof = biharmonic.shoot(n, q, u0, z0, r_max, num_intervals=intervals)
    row = {"n": n, "q": q, "u0": u0, "z0": z0, "kappa": kappa,
           "classification": prof.classification.kind,
           "r_stop": prof.classification.r_stop,
           "weak_pass": None, "min_margin": None, "argmin_r": None}
    if prof.conforming:
        rep = verify.verify_weak_bound(prof)
        row.update(weak_pass=rep.passed, min_margin=rep.min_margin,
                   argmin_r=rep.argmin_r)
    return row


def weak_bound_sweep(n_values=(3, 4, 5), q_values=(2.0, 3.0, 5.0, 7.0),
                     r_max: float = DEFAULT_R_MAX,
                     intervals: int = DEFAULT_INTERVALS) -> list[dict]:
    """Shoot the target table and check the gradient-free bound on every
    positive-on-window profile."""
    keys = [(n, q, u0, z0, kappa, r_max, intervals)
            for n in n_values for q in q_values
            for (u0, z0, kappa) in biharmonic_targets(q)]
    return [_weak_case(k) for k in sorted(keys)]


def system_targets(q: float, rexp: float):
    ell = system.comparison_factor(q, rexp)
    sig = system.sigma_exponent(q, rexp)
    return [(u0, kappa * ell * u0**sig, kappa)
            for u0 in (0.7, 1.0, 1.5) for kappa in KAPPA_V_GRID]


def _system_case(key):
    n, q, rexp, u0, v0, kappa, r_max, intervals = key
    prof = system.solve_radial_system(n, q, rexp, u0, v0, r_max,
                                      num_intervals=intervals)
    row = {"n": n, "q": q, "rexp": rexp, "u0": u0, "v0": v0, "kappa": kappa,
           "classification": prof.classification.kind,
           "r_stop": prof.classification.r_stop,
           "comparison_pass": None, "min_margin": None,
           "concavity_pass": None, "qualifying_nodes": None}
    if prof.conforming:
        rep = system.verify_component_comparison(prof)
        step = system.verify_concavity_step(prof)
        row.update(comparison_pass=rep.passed, min_margin=rep.min_margin,
                   concavity_pass=step.passed,
                   qualifying_nodes=step.params["qualifying_nodes"])
    return row


def system_sweep(n_values=(3, 4, 5), q_values=(2.0, 3.0, 5.0, 7.0),
                 rexp_values=(0.5, 1.0, 2.0), r_max: float = DEFAULT_R_MAX,
                 intervals: int = DEFAULT_INTERVALS) -> list[dict]:
    """Solve the coupled system over the sweep grid and verify the
    component comparison plus the concavity step on positive windows."""
    keys = [(n, q, rexp, u0, v0, kappa, r_max, intervals)
            for n in n_values for q in q_values for rexp in rexp_values
            for (u0, v0, kappa) in system_targets(q, rexp)]
    return [_system_case(k) for k in sorted(keys)]


def _by_q(x, shape) -> list:
    """The q rows of a (q, alpha) block of the given shape, as lists.

    A value free of q (I1, K1) broadcasts to a single row: every q row
    shares that one list, so its floats are made once per block.  That keeps
    the rows' memory below the per-cell version's.
    """
    rows = np.broadcast_to(x, (len(x), shape[1])).tolist()
    return rows * shape[0] if len(rows) == 1 else rows


def region_sweep(n_values=(3, 4, 5, 6, 7, 8),
                 q_values=tuple(np.linspace(1.25, 10.0, 36)),
                 alpha_values=tuple(np.linspace(0.0, 0.5, 21))) -> list[dict]:
    """Admissibility and derived coefficients over a rectangular grid.

    beta is beta_max where it is defined, else 0, and gamma_star is set on
    admissible cells.  Each dimension's (q, alpha) block goes through the
    formulas of check_admissible and gamma_interval as arrays, with the same
    values; every row value is a Python float, int, bool or None.
    """
    ns = sorted(n_values)
    qs = [float(q) for q in sorted(q_values)]
    alphas = [float(a) for a in sorted(alpha_values)]
    if not (ns and qs and alphas):
        return []
    # refuse the bad value a cell-by-cell ParamSet would meet first: cells run
    # n-major, then q, then alpha, so n0, q0, every alpha, every q, every n
    for a in alphas:
        ParamSet(n=ns[0], q=qs[0], alpha=a)
    for q in qs[1:]:
        ParamSet(n=ns[0], q=q)
    for n in ns[1:]:
        ParamSet(n=n, q=qs[0])

    q_col, a_row = np.array(qs)[:, None], np.array(alphas)[None, :]
    rows = []
    # a huge alpha overflows the coefficients, and gamma_star's root is NaN on
    # some inadmissible cells; those values are never read or stay inadmissible
    with np.errstate(over="ignore", invalid="ignore"):
        for n in map(int, ns):
            beta = beta_max_or_zero(a_row, q_col, n)
            admissible = _region_tests(n, q_col, a_row, beta)[-1]
            c = _coefficients(n, q_col, a_row, beta)
            gamma = _gamma_star(a_row, q_col, n)
            block = (beta, admissible, c.I1, c.I2, c.I3, c.K1, c.K2, gamma)
            for q, *cells in zip(qs, *(_by_q(x, beta.shape) for x in block)):
                rows.extend(
                    {"alpha": a, "q": q, "n": n, "beta": b, "admissible": ok,
                     "I1": i1, "I2": i2, "I3": i3, "K1": k1, "K2": k2,
                     "gamma_star": g if ok else None}
                    for a, b, ok, i1, i2, i3, k1, k2, g in zip(alphas, *cells))
    return rows
