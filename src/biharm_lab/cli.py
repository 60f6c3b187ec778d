"""Command-line front end.

Subcommands: region, solve-biharmonic, verify, solve-system,
simulate-parabolic, sweep.  Exit codes: 0 success (all requested
verifications pass), 1 usage error, 2 precondition violation,
3 verification failure, 4 integrator failure.

A JSON config can be supplied with --config; explicit flags override config
values.  Every run echoes its resolved configuration into the output
directory, and the config round-trips losslessly through JSON.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, biharmonic, parabolic, serialize, system, sweeps, verify
from .errors import (BiharmLabError, DomainError, IntegratorError,
                     PreconditionError, SizeError)
from .grids import RadialGrid
from .params import (ParamSet, beta_max_or_zero, check_admissible, gamma_interval,
                     growth_exponent, tau)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_VERIFICATION = 3
EXIT_INTEGRATOR = 4

#: verify subcommand checks on the closed-form reference profile
CHECKS = ("pointwise", "sharp", "weak", "gradient", "aux-ineq", "weighted",
          "identity", "curvature", "all")


@dataclass
class RunConfig:
    """Resolved invocation; round-trips losslessly through JSON."""

    command: str
    parameters: dict = field(default_factory=dict)
    out: str | None = None
    formats: list[str] = field(default_factory=lambda: ["json"])
    tol: float | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        data = json.loads(text)
        return cls(command=data["command"], parameters=dict(data.get("parameters", {})),
                   out=data.get("out"), formats=list(data.get("formats", ["json"])),
                   tol=data.get("tol"))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; contract says 1
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    p = _Parser(prog="biharm-lab",
                description="Solvers and pointwise-inequality verifiers for "
                            "singular biharmonic and coupled Lane-Emden type problems")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", help="output directory for artifacts")
        sp.add_argument("--format", default=None,
                        help="comma-separated artifact formats (default json): json,csv")
        sp.add_argument("--config", help="JSON config file; flags override it")
        sp.add_argument("--tol", type=float, default=None,
                        help="override the pass tolerance of verification reports")

    sp = sub.add_parser("region", help="admissibility and derived coefficients")
    sp.add_argument("--n", type=int, default=argparse.SUPPRESS, help="dimension (default 3)")
    sp.add_argument("--q", type=float, default=argparse.SUPPRESS)
    sp.add_argument("--alpha", type=float, default=argparse.SUPPRESS, help="gradient coefficient (default 0.5)")
    sp.add_argument("--beta", type=float, default=argparse.SUPPRESS,
                    help="defaults to beta_max(alpha, q, n)")
    common(sp)

    sp = sub.add_parser("solve-biharmonic", help="shoot the fourth-order problem")
    sp.add_argument("--n", type=int, default=argparse.SUPPRESS, help="dimension (default 3)")
    sp.add_argument("--q", type=float, default=argparse.SUPPRESS, help="singular exponent (default 7)")
    sp.add_argument("--u0", type=float, required=True)
    sp.add_argument("--z0", type=float, required=True)
    sp.add_argument("--r-max", type=float, default=argparse.SUPPRESS, help="window end (default 20)")
    sp.add_argument("--h", type=float, default=argparse.SUPPRESS, help="grid spacing (default 20/4096)")
    sp.add_argument("--rtol", type=float, default=argparse.SUPPRESS, help="integrator tolerance (default 1e-9)")
    common(sp)

    sp = sub.add_parser("verify", help="pointwise checks on a profile")
    sp.add_argument("--exact", action="store_true", default=argparse.SUPPRESS,
                    help="use the closed-form n=3, q=7 reference solution")
    sp.add_argument("--u0", type=float, help="shooting start when not --exact")
    sp.add_argument("--z0", type=float)
    sp.add_argument("--n", type=int, default=argparse.SUPPRESS, help="dimension (default 3)")
    sp.add_argument("--q", type=float, default=argparse.SUPPRESS, help="singular exponent (default 7)")
    sp.add_argument("--check", choices=CHECKS, default=argparse.SUPPRESS,
                    help="which inequality to verify (default all)")
    sp.add_argument("--alpha", type=float, default=argparse.SUPPRESS, help="gradient coefficient (default 0.5)")
    sp.add_argument("--beta", type=float, default=argparse.SUPPRESS)
    sp.add_argument("--gamma", type=float, default=argparse.SUPPRESS)
    sp.add_argument("--r-max", type=float, default=argparse.SUPPRESS, help="window end (default 20)")
    sp.add_argument("--h", type=float, default=argparse.SUPPRESS,
                    help="grid spacing; default 20/4096 for first-order checks, "
                         "20/32768 for checks differencing derived fields")
    common(sp)

    sp = sub.add_parser("solve-system", help="shoot the coupled radial system")
    sp.add_argument("--n", type=int, default=argparse.SUPPRESS, help="dimension (default 3)")
    sp.add_argument("--q", type=float, default=argparse.SUPPRESS, help="singular exponent (default 7)")
    sp.add_argument("--r-exp", type=float, default=argparse.SUPPRESS, help="coupling exponent (default 1)")
    sp.add_argument("--u0", type=float, required=True)
    sp.add_argument("--v0", type=float, required=True)
    sp.add_argument("--r-max", type=float, default=argparse.SUPPRESS, help="window end (default 20)")
    sp.add_argument("--h", type=float, default=argparse.SUPPRESS, help="grid spacing (default 20/4096)")
    sp.add_argument("--rtol", type=float, default=argparse.SUPPRESS, help="integrator tolerance (default 1e-9)")
    common(sp)

    sp = sub.add_parser("simulate-parabolic", help="method-of-lines run")
    sp.add_argument("--p-exp", type=float, required=True)
    sp.add_argument("--r-exp", type=float, required=True)
    sp.add_argument("--geometry", choices=("periodic", "radial"), default=argparse.SUPPRESS, help="default periodic")
    sp.add_argument("--nodes", type=int, default=argparse.SUPPRESS, help="spatial nodes (default 512)")
    sp.add_argument("--length", type=float, default=argparse.SUPPRESS,
                    help="periodic box length")
    sp.add_argument("--radius", type=float, default=argparse.SUPPRESS, help="radial ball radius (default pi)")
    sp.add_argument("--n", type=int, default=argparse.SUPPRESS, help="dimension for radial geometry (default 3)")
    sp.add_argument("--u0", type=float, default=argparse.SUPPRESS, help="initial level of u (default 1)")
    sp.add_argument("--v0", type=float, default=argparse.SUPPRESS, help="initial level of v (default 1.2)")
    sp.add_argument("--perturb", type=float, default=argparse.SUPPRESS,
                    help="amplitude of a one-mode spatial perturbation")
    sp.add_argument("--t-final", type=float, default=argparse.SUPPRESS, help="simulated time (default 1)")
    sp.add_argument("--snapshots", type=int, default=argparse.SUPPRESS, help="snapshot count (default 64)")
    sp.add_argument("--blowup-factor", type=float, default=argparse.SUPPRESS)
    common(sp)

    sp = sub.add_parser("sweep", help="deterministic parameter sweeps")
    sp.add_argument("--module", choices=("region", "biharmonic", "lane-emden"),
                    required=True)
    sp.add_argument("--n", default=argparse.SUPPRESS, help="comma list of dimensions (default 3,4,5)")
    sp.add_argument("--q", default=argparse.SUPPRESS, help="comma list of exponents q (default 2,3,5,7)")
    sp.add_argument("--r-exp", "--r", dest="r_exp", default=argparse.SUPPRESS,
                    help="comma list of exponents r (lane-emden; default 0.5,1,2)")
    sp.add_argument("--alpha", default=argparse.SUPPRESS, help="comma list of alphas (region)")
    sp.add_argument("--r-max", type=float, default=argparse.SUPPRESS, help="window end (default 20)")
    sp.add_argument("--h", type=float, default=argparse.SUPPRESS, help="grid spacing (default 20/1024)")
    common(sp)

    return p


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in str(text).split(",") if tok.strip()]


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in str(text).split(",") if tok.strip()]


def _merge_config(args) -> RunConfig:
    params = {k: v for k, v in vars(args).items()
              if k not in ("command", "out", "format", "config", "tol") and v is not None}
    if getattr(args, "config", None):
        try:
            base = RunConfig.from_json(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError, KeyError) as exc:
            raise UsageError(f"malformed config {args.config}: {exc}")
        if base.command != args.command:
            raise UsageError(
                f"config command {base.command!r} does not match {args.command!r}")
        merged = dict(base.parameters)
        merged.update(params)
        params = merged
        out = args.out or base.out
        formats = (args.format or ",".join(base.formats)).split(",")
        tol = args.tol if args.tol is not None else base.tol
    else:
        out = args.out
        formats = (args.format or "json").split(",")
        tol = args.tol
    return RunConfig(command=args.command, parameters=params, out=out,
                     formats=[f.strip() for f in formats if f.strip()], tol=tol)


class UsageError(BiharmLabError):
    pass


def _emit(cfg: RunConfig, name: str, json_obj=None, csv_parts=None):
    if cfg.out is None:
        return
    outdir = Path(cfg.out)
    serialize.atomic_write_text(outdir / "run-config.json", cfg.to_json() + "\n")
    if "json" in cfg.formats and json_obj is not None:
        serialize.write_json(outdir / f"{name}.json", serialize.sanitize_nan(json_obj))
    if "csv" in cfg.formats and csv_parts is not None:
        header, rows = csv_parts
        serialize.write_csv(outdir / f"{name}.csv", header, rows)


def _print(obj):
    print(json.dumps(serialize.sanitize_nan(obj), indent=2, sort_keys=True))


def _cmd_region(cfg: RunConfig) -> int:
    p = cfg.parameters
    if "q" not in p:
        raise UsageError("region needs --q")
    n, q, alpha = int(p.get("n", 3)), float(p["q"]), float(p.get("alpha", 0.5))
    beta = p.get("beta")
    if beta is None:
        beta = beta_max_or_zero(alpha, q, n)
    params = ParamSet(n=n, q=q, alpha=alpha, beta=float(beta))
    res = check_admissible(params)
    gamma_star = None
    gexp = None
    if res.admissible:
        gamma_star = gamma_interval(alpha, q, n).gamma_star
        # supremum of 2/(1-gamma) over the open interval [0, gamma_star)
        gexp = 2.0 / (1.0 - gamma_star) if gamma_star < 1.0 else None
    out = {"params": params.to_dict(), "admissible": res.admissible,
           "reasons": res.reasons, "coefficients": res.coefficients.to_dict(),
           "coefficient_signs": res.coefficient_signs,
           "beta_max_used": beta, "gamma_star": gamma_star,
           "growth_exponent": gexp,
           "tau": tau(q, n) if q >= 3 else None}
    _print(out)
    _emit(cfg, "region", out)
    return EXIT_OK


def _window(p, default_h) -> tuple[float, int]:
    """(r_max, interval count) of the radial grid from --r-max and --h."""
    r_max = float(p.get("r_max", 20.0))
    h = default_h if p.get("h") is None else float(p["h"])
    for name, x in (("r_max", r_max), ("h", h)):
        if not (math.isfinite(x) and x > 0):
            raise DomainError(f"{name} must be finite and positive, got {x}")
    return r_max, max(16, round(r_max / h))


def _cmd_solve_biharmonic(cfg: RunConfig) -> int:
    p = cfg.parameters
    r_max, intervals = _window(p, 20.0 / 4096)
    prof = biharmonic.shoot(int(p.get("n", 3)), float(p.get("q", 7.0)),
                            float(p["u0"]), float(p["z0"]), r_max,
                            num_intervals=intervals,
                            rtol=float(p.get("rtol", 1e-9)))
    out = prof.to_dict()
    out["residual_max"] = float(np.abs(
        biharmonic.residual(prof).values[prof.grid.trim_slice()]).max()) \
        if prof.grid.num_intervals > 8 else None
    _print({"classification": out["classification"], "meta": out["meta"],
            "residual_max": out["residual_max"]})
    _emit(cfg, "profile", out,
          (["r", "u", "du", "z", "dz", "residual"], prof.csv_rows()))
    return EXIT_OK


def _profile_for_verify(p) -> biharmonic.SolutionProfile:
    aux_checks = p.get("check", "all") in ("aux-ineq", "weighted", "identity", "all")
    default_h = 20.0 / 32768 if aux_checks else 20.0 / 4096
    if p.get("exact"):
        if p.get("q", 7.0) != 7.0 or p.get("n", 3) != 3:
            raise UsageError("--exact pins (n, q) = (3, 7); drop --n/--q or --exact")
        return biharmonic.exact_solution(RadialGrid.uniform(3, *_window(p, default_h)))
    if p.get("u0") is None or p.get("z0") is None:
        raise UsageError("verify needs --exact or both --u0 and --z0")
    r_max, intervals = _window(p, default_h)
    return biharmonic.shoot(int(p.get("n", 3)), float(p.get("q", 7.0)),
                            float(p["u0"]), float(p["z0"]), r_max,
                            num_intervals=intervals)


def _exact_aux_refinement_order(prof, alpha: float, beta: float) -> float:
    """Observed order of the aux-inequality margin over three nested grids."""
    from .grids import self_convergence_order
    n_fine = prof.grid.num_intervals
    if n_fine % 4 != 0 or n_fine < 64:
        return float("nan")
    margins = []
    for div in (4, 2, 1):
        g = RadialGrid.uniform(3, prof.grid.r_max, n_fine // div)
        rep = verify.verify_aux_inequality(biharmonic.exact_solution(g), alpha, beta)
        margins.append(rep.margin.values)
    return self_convergence_order(margins)


def _cmd_verify(cfg: RunConfig) -> int:
    p = cfg.parameters
    check = p.get("check", "all")
    prof = _profile_for_verify(p)
    alpha = float(p.get("alpha", 0.5))
    beta = p.get("beta")
    beta = beta_max_or_zero(alpha, prof.q, prof.n) if beta is None else float(beta)
    gamma = p.get("gamma")

    reports = []
    if check in ("pointwise", "all"):
        reports.append(verify.verify_pointwise_bound(prof, alpha, beta))
    if check in ("sharp", "all"):
        reports.append(verify.verify_sharp_bound(prof))
    if check in ("weak", "all"):
        reports.append(verify.verify_weak_bound(prof))
    if check in ("gradient", "all"):
        reports.append(verify.verify_gradient_bound(prof))
    if check in ("aux-ineq", "all"):
        rep = verify.verify_aux_inequality(prof, alpha, beta)
        if p.get("exact"):
            rep.refinement_order = _exact_aux_refinement_order(prof, alpha, beta)
        reports.append(rep)
    if check in ("identity", "all"):
        reports.append(verify.laplacian_identity_defect(prof, alpha, beta))
    if check in ("weighted", "all"):
        g = float(gamma) if gamma is not None else 0.5 * gamma_interval(
            alpha, prof.q, prof.n).gamma_star
        reports.append(verify.verify_weighted_aux_inequality(prof, alpha, beta, g))
    if check in ("curvature", "all"):
        reports.append(verify.scalar_curvature(prof)[1])

    if cfg.tol is not None:
        for rep in reports:
            rep.recheck(cfg.tol)

    payload = [rep.to_dict() for rep in reports]
    _print(payload)
    _emit(cfg, "reports", payload)
    if cfg.out and "csv" in cfg.formats:
        for rep in reports:
            if rep.margin is not None:
                serialize.write_csv(Path(cfg.out) / f"margin-{rep.inequality}.csv",
                                    ["r", "margin"], rep.margin_csv_rows())
    failed = [rep for rep in reports if rep.passed is False]
    return EXIT_VERIFICATION if failed else EXIT_OK


def _cmd_solve_system(cfg: RunConfig) -> int:
    p = cfg.parameters
    r_max, intervals = _window(p, 20.0 / 4096)
    prof = system.solve_radial_system(
        int(p.get("n", 3)), float(p.get("q", 7.0)), float(p.get("r_exp", 1.0)),
        float(p["u0"]), float(p["v0"]), r_max,
        num_intervals=intervals, rtol=float(p.get("rtol", 1e-9)))
    reports = []
    if prof.conforming:
        reports = [system.verify_component_comparison(prof),
                   system.verify_concavity_step(prof)]
    out = {"classification": prof.classification.to_dict(),
           "sigma": prof.sigma, "ell": prof.ell,
           "reports": [rep.to_dict() for rep in reports]}
    _print(out)
    _emit(cfg, "system-profile", prof.to_dict(),
          (["r", "u", "v", "w", "margin_comparison", "residual_u", "residual_v"],
           prof.csv_rows()))
    if cfg.out:
        serialize.write_json(Path(cfg.out) / "system-reports.json",
                             serialize.sanitize_nan(out))
    failed = [rep for rep in reports if rep.passed is False]
    return EXIT_VERIFICATION if failed else EXIT_OK


def _cmd_simulate_parabolic(cfg: RunConfig) -> int:
    p = cfg.parameters
    if p.get("geometry", "periodic") == "radial":
        geom = parabolic.RadialBall(n=int(p.get("n", 3)),
                                    radius=float(p.get("radius", np.pi)),
                                    num_intervals=int(p.get("nodes", 512)))
    else:
        geom = parabolic.PeriodicBox(length=float(p.get("length", 2.0 * np.pi)),
                                     num_nodes=int(p.get("nodes", 512)))
    eps = float(p.get("perturb", 0.0))
    x = geom.x
    scale_x = 2.0 * np.pi / (x[-1] + geom.h) if x[-1] > 0 else 1.0
    u_init = float(p.get("u0", 1.0)) + eps * np.cos(scale_x * x)
    v_init = float(p.get("v0", 1.2)) + eps * np.cos(2.0 * scale_x * x)
    fld = parabolic.simulate(
        geom, float(p["p_exp"]), float(p["r_exp"]), u_init, v_init,
        float(p.get("t_final", 1.0)), num_snapshots=int(p.get("snapshots", 64)),
        blowup_factor=float(p.get("blowup_factor", parabolic.BLOWUP_FACTOR)))
    manifest = fld.manifest()
    _print(manifest)
    _emit(cfg, "run-manifest", manifest, (["t", "x", "u", "v", "w"], fld.csv_rows()))
    return EXIT_OK


def _cmd_sweep(cfg: RunConfig) -> int:
    p = cfg.parameters
    module = p["module"]
    if module == "region":
        alphas = _floats(p["alpha"]) if p.get("alpha") else tuple(np.linspace(0, 0.5, 21))
        rows = sweeps.region_sweep(n_values=_ints(p.get("n", "3,4,5")),
                                   q_values=_floats(p.get("q", "2,3,5,7")),
                                   alpha_values=alphas)
        header = ["alpha", "q", "n", "beta", "admissible", "I1", "I2", "I3",
                  "K1", "K2", "gamma_star"]
    elif module == "biharmonic":
        r_max, intervals = _window(p, 20.0 / 1024)
        rows = sweeps.weak_bound_sweep(
            n_values=_ints(p.get("n", "3,4,5")), q_values=_floats(p.get("q", "2,3,5,7")),
            r_max=r_max, intervals=intervals)
        header = ["n", "q", "u0", "z0", "kappa", "classification", "r_stop",
                  "weak_pass", "min_margin", "argmin_r"]
    elif module == "lane-emden":
        r_max, intervals = _window(p, 20.0 / 1024)
        rows = sweeps.system_sweep(
            n_values=_ints(p.get("n", "3,4,5")), q_values=_floats(p.get("q", "2,3,5,7")),
            rexp_values=_floats(p.get("r_exp", "0.5,1,2")),
            r_max=r_max, intervals=intervals)
        header = ["n", "q", "rexp", "u0", "v0", "kappa", "classification",
                  "r_stop", "comparison_pass", "min_margin", "concavity_pass",
                  "qualifying_nodes"]
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown sweep module {module!r}")
    verdicts = [r for r in rows if r.get("weak_pass") is False
                or r.get("comparison_pass") is False or r.get("concavity_pass") is False]
    print(f"sweep {module}: {len(rows)} cases, {len(verdicts)} failures")
    _emit(cfg, f"sweep-{module}", rows,
          (header, serialize.rows_from_dicts(rows, header)))
    return EXIT_VERIFICATION if verdicts else EXIT_OK


_COMMANDS = {
    "region": _cmd_region,
    "solve-biharmonic": _cmd_solve_biharmonic,
    "verify": _cmd_verify,
    "solve-system": _cmd_solve_system,
    "simulate-parabolic": _cmd_simulate_parabolic,
    "sweep": _cmd_sweep,
}


def run(cfg: RunConfig) -> int:
    """Execute a resolved configuration; returns the process exit code."""
    try:
        return _COMMANDS[cfg.command](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PreconditionError, DomainError, SizeError) as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except IntegratorError as exc:
        print(f"integrator failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRATOR


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
