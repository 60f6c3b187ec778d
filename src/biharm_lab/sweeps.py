"""Deterministic parameter sweeps.

Targets are fixed tables, not random draws: shooting initial data are placed
as multiples kappa of the gradient-free bound coefficient (biharmonic) or of
the comparison level l u0^sigma (coupled system).  Sub-unit multiples produce
windows that lose positivity and exercise the touched-zero classification;
multiples >= 1.6 sit safely inside the entire-solution region, so their
margins are the quantities the sweeps verify.

The shooting sweeps run one base shot per scale-invariant family and fill
every member's row from it (_family_profiles).  Every sweep returns its rows
in sorted key order, so rows come out in the same order whatever order the
inputs were given in.

The families are dealt to one process per CPU of the process's affinity
mask, the caller and forked children, by the rule that also deals the
artifact writer's row blocks (``_stripes.dealt``).  A row is computed by
the same code on the same inputs in whichever process runs it, so the rows
are bitwise those of one process.  The caller reads the families in order
and raises at the first that fails, as one process does, and the children
are then sent SIGTERM.
There is no setting: a single family, a daemonic caller, a caller with
other threads and a platform without fork run one process.
"""
from __future__ import annotations

import numpy as np

from . import biharmonic, system, verify
from ._backend import RTOL, fill, integrate, series_start
from ._stripes import dealt
from .biharmonic import _profile_from_arrays, shooting_grid
from .errors import DomainError, IntegratorError, require_above, require_power
from .params import (ParamSet, _beta_max_or_zero, _coefficients, _gamma_star, _half_p,
                     _region_tests, weak_coefficient)

#: initial-amplitude grid shared by both shooting sweeps
U0_GRID = (0.6, 0.85, 1.2, 1.7)
#: multiples of the gradient-free bound for the biharmonic sweep; the first
#: two lose positivity inside the window, the rest stay entire-like
KAPPA_GRID = (0.5, 0.9, 1.6, 2.2, 3.0, 4.5)
#: initial amplitudes of the system sweep
SYSTEM_U0_GRID = (0.7, 1.0, 1.5)
#: multiples of the comparison level for the system sweep
KAPPA_V_GRID = (0.75, 1.4, 2.0, 3.0)

#: the shooting sweeps' default tables of n, q and the coupling exponent r
#: (system only), and their window: DEFAULT_INTERVALS intervals on [0, DEFAULT_R_MAX]
N_VALUES = (3, 4, 5)
Q_VALUES = (2.0, 3.0, 5.0, 7.0)
REXP_VALUES = (0.5, 1.0, 2.0)
DEFAULT_R_MAX = 20.0
DEFAULT_INTERVALS = 1024


def biharmonic_targets(q: float):
    """(u0, z0, kappa) table for one exponent q."""
    coef = weak_coefficient(q)
    p = _half_p(q)
    return [(u0, kappa * coef * require_power(f"u0**(-(q-1)/2) at q = {q:g}", u0, -p), kappa)
            for u0 in U0_GRID for kappa in KAPPA_GRID]


def system_targets(q: float, rexp: float):
    """(u0, v0, kappa) table for one pair (q, rexp)."""
    ell = system.comparison_factor(q, rexp)
    sig = system.sigma_exponent(q, rexp)
    return [(u0, kappa * ell * require_power(f"u0**sigma at q = {q:g}", u0, sig), kappa)
            for u0 in SYSTEM_U0_GRID for kappa in KAPPA_V_GRID]


def _family_plan(n, q, rexp, starts, r_max, intervals):
    """(h, members) of one family, with every guard checked before its shot.

    Member k, started at (u0_k, v0_k), is the base solution rescaled by
    lam_k = u0_k^(1/a); members holds (u0, lam, rescale factors, window end
    r_max/lam in base coordinates) per member.  A member whose own start is
    undefined fails at r = 0, as its direct shot does.
    """
    h = shooting_grid(n, q, r_max, intervals, RTOL).h
    a, b = biharmonic.scaling_exponents(q, rexp)
    members = []
    for u0, v0 in starts:
        try:
            series_start(n, q, rexp, u0, v0)
        except ArithmeticError:
            raise IntegratorError("integration failed at r = 0", location=0.0) from None
        try:
            lam = require_power("u0**(1/a)", u0, 1.0 / a)
            factors = biharmonic.rescale_factors(lam, a, b)
        except DomainError as exc:
            raise DomainError(f"family scale of u0 = {u0:g} at q = {q:g}: {exc}") from None
        members.append((u0, lam, factors, require_above("member window", intervals * (h / lam))))
    return h, members


def _family_profiles(n, q, rexp, v0, plan, intervals):
    """The members' profiles, in plan order, from one base shot at (1, v0).

    The base runs on the sweep's own h to the first accepted step past the
    widest member window.  Member k samples it on the spacing h/lam_k, which
    the rescale maps onto the sweep grid; its window is positive when the
    base covers it, else it takes the base's stop at lam_k r_event.  A
    member reads only the steps that start on its window, so its profile is
    its family of one's: the u0 = 1 member is the direct shot.
    """
    h, members = plan
    shot = integrate(n, q, rexp, 1.0, v0, h, max(end for *_, end in members))
    for u0, lam, factors, _ in members:
        meta = {"n": n, "q": float(q), "rexp": float(rexp), "source": "family",
                "u0": u0, "scale": lam, "rtol": RTOL}
        yield _member_profile(shot, n, h, intervals, lam, factors, meta,
                              dict(shot.stats, family_size=len(members)))


def _member_profile(shot, n, h, intervals, lam, factors, meta, counters):
    # a function of its own, so that the fill's arrays are freed before the
    # row's verifiers run rather than held by the suspended generator
    *arrays, status, i_stop = fill(shot, h / lam, intervals)
    return _profile_from_arrays(n, h, *(f * x for f, x in zip(factors, arrays)),
                                status, i_stop, lam * shot.r_event, meta, counters)


def _family_sweep(keys, families, r_max, intervals, make_row):
    """Rows of the keys in sorted order, one base shot per family.

    families maps the start (n, q, rexp, v0) of a family's base shot to its
    members, {key: (u0, v0)}; make_row(key, profile) gives a member's row.
    Every family's guards run before the first shot, and the families are
    then dealt to forked processes (``_stripes.dealt``).
    """
    bases = sorted(families)
    plans = [_family_plan(*base[:3], families[base].values(), r_max, intervals)
             for base in bases]

    def family_rows(i):
        return [make_row(key, prof) for key, prof in
                zip(families[bases[i]], _family_profiles(*bases[i], plans[i], intervals))]

    def sweep(deal):
        return [deal.value(i, family_rows) for i in range(len(bases))]

    rows = {}
    with dealt(len(bases), sweep) as deal:
        for base, base_rows in zip(bases, sweep(deal)):
            rows.update(zip(families[base], base_rows))
    return [rows[key] for key in sorted(keys)]


def _weak_row(key, prof):
    n, q, u0, z0, kappa = key
    row = {"n": n, "q": q, "u0": u0, "z0": z0, "kappa": kappa,
           "classification": prof.classification.kind,
           "r_stop": prof.classification.r_stop,
           "weak_pass": None, "min_margin": None, "argmin_r": None}
    if prof.conforming:
        rep = verify.verify_weak_bound(prof)
        row.update(weak_pass=rep.passed, min_margin=rep.min_margin,
                   argmin_r=rep.argmin_r)
    return row


def weak_bound_sweep(n_values=N_VALUES, q_values=Q_VALUES, r_max: float = DEFAULT_R_MAX,
                     intervals: int = DEFAULT_INTERVALS) -> list[dict]:
    """Shoot the target table and check the gradient-free bound on every
    positive-on-window profile.

    z0 = kappa c u0^(-(q-1)/2), c the weak coefficient, is invariant under
    the scaling symmetry, so the u0 of one (n, q, kappa) are one family
    with its base at (1, kappa c).
    """
    keys, families = [], {}
    for n in n_values:
        for q in q_values:
            coef = weak_coefficient(q)
            for u0, z0, kappa in biharmonic_targets(q):
                keys.append(key := (n, q, u0, z0, kappa))
                families.setdefault((n, q, 1.0, kappa * coef), {})[key] = (u0, z0)
    return _family_sweep(keys, families, r_max, intervals, _weak_row)


def _system_row(key, prof):
    n, q, rexp, u0, v0, kappa = key
    prof = system.SystemProfile(**vars(prof))
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


def system_sweep(n_values=N_VALUES, q_values=Q_VALUES, rexp_values=REXP_VALUES,
                 r_max: float = DEFAULT_R_MAX, intervals: int = DEFAULT_INTERVALS) -> list[dict]:
    """Solve the coupled system over the sweep grid and verify the
    component comparison plus the concavity step on positive windows.

    v0 = kappa l u0^sigma is invariant under the scaling symmetry, so the u0
    of one (n, q, rexp, kappa) are one family with its base at (1, kappa l).
    """
    keys, families = [], {}
    for n in n_values:
        for q in q_values:
            for rexp in rexp_values:
                ell = system.comparison_factor(q, rexp)
                for u0, v0, kappa in system_targets(q, rexp):
                    keys.append(key := (n, q, rexp, u0, v0, kappa))
                    families.setdefault((n, q, rexp, kappa * ell), {})[key] = (u0, v0)
    return _family_sweep(keys, families, r_max, intervals, _system_row)


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
            beta = _beta_max_or_zero(a_row, q_col, n)
            admissible = _region_tests(n, q_col, a_row, beta)[-1]
            c = _coefficients(n, q_col, a_row, beta)
            gamma = _gamma_star(a_row, q_col, n)
            block = (beta, admissible, c.I1, c.I2, c.I3, c.K1, c.K2, gamma)
            for q, *cells in zip(qs, *(np.broadcast_to(x, beta.shape).tolist() for x in block)):
                rows.extend(
                    {"alpha": a, "q": q, "n": n, "beta": b, "admissible": ok,
                     "I1": i1, "I2": i2, "I3": i3, "K1": k1, "K2": k2,
                     "gamma_star": g if ok else None}
                    for a, b, ok, i1, i2, i3, k1, k2, g in zip(alphas, *cells))
    return rows
