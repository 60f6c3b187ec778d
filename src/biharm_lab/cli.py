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
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__, biharmonic, parabolic, serialize, system, sweeps, verify
from ._backend import RTOL, TOL_PER_H2
from .errors import (MAX_COUNT, BiharmLabError, DomainError, IntegratorError,
                     PreconditionError, SizeError, require_above, require_in)
from .grids import RadialGrid, self_convergence_order
from .params import (ParamSet, beta_max_or_zero, check_admissible, gamma_interval,
                     growth_exponent, tau)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_VERIFICATION = 3
EXIT_INTEGRATOR = 4

#: --rtol help of the two shooting subcommands
RTOL_HELP = (f"upper bound on the integrator's relative tolerance (default {RTOL:g}); "
             f"the kernel runs at min(rtol, {TOL_PER_H2:g}*h^2)")

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


#: dests that are RunConfig fields (or help), not command parameters
_NOT_PARAMETERS = ("command", "out", "format", "config", "tol", "help")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; contract says 1
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)

    def parameters(self) -> dict:   # dest -> action of each parameter flag
        return {a.dest: a for a in self._actions if a.dest not in _NOT_PARAMETERS}


def _build_parser() -> _Parser:
    p = _Parser(prog="biharm-lab",
                description="Solvers and pointwise-inequality verifiers for "
                            "singular biharmonic and coupled Lane-Emden type problems")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    p.commands = sub.choices

    def common(sp):
        sp.add_argument("--out", help="output directory for artifacts")
        sp.add_argument("--format", default=None,
                        help="comma-separated artifact formats (default json): json,csv")
        sp.add_argument("--config", help="JSON config file; flags override it")

    # only where the printed reports carry the scale their verdict derives from
    def tol_option(sp):
        sp.add_argument("--tol", type=float, default=None,
                        help="override the pass tolerance of the verification reports")

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
    sp.add_argument("--rtol", type=float, default=argparse.SUPPRESS, help=RTOL_HELP)
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
    tol_option(sp)

    sp = sub.add_parser("solve-system", help="shoot the coupled radial system")
    sp.add_argument("--n", type=int, default=argparse.SUPPRESS, help="dimension (default 3)")
    sp.add_argument("--q", type=float, default=argparse.SUPPRESS, help="singular exponent (default 7)")
    sp.add_argument("--r-exp", type=float, default=argparse.SUPPRESS, help="coupling exponent (default 1)")
    sp.add_argument("--u0", type=float, required=True)
    sp.add_argument("--v0", type=float, required=True)
    sp.add_argument("--r-max", type=float, default=argparse.SUPPRESS, help="window end (default 20)")
    sp.add_argument("--h", type=float, default=argparse.SUPPRESS, help="grid spacing (default 20/4096)")
    sp.add_argument("--rtol", type=float, default=argparse.SUPPRESS, help=RTOL_HELP)
    common(sp)
    tol_option(sp)

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


def _numbers(kind: type, text: str) -> list:
    """Comma list of sweep values; a token that does not parse, or no token, is a usage error."""
    tokens = [tok for tok in str(text).split(",") if tok.strip()]
    try:   # no token is read as one empty token, which does not parse either
        return [kind(tok) for tok in tokens or [""]]
    except ValueError:
        raise UsageError(f"not a comma list of {kind.__name__}s: {text!r}") from None


def _config_parameters(parameters: dict, flags: dict, path: str) -> dict:
    """Config parameters, checked as argparse checks a flag's text; a null is not given."""
    out = {}
    for key, value in parameters.items():
        action = flags.get(key)
        if action is None:
            raise UsageError(f"config {path}: unknown parameter {key!r}")
        if value is None:
            continue
        # no bool, text or integer beyond the float range; domains are checked as for a flag
        number = type(value) is float or type(value) is int and abs(value) <= sys.float_info.max
        if action.type in (int, float) and not number:
            raise UsageError(f"config {path}: {key} must be a number, got {value!r}")
        if action.choices and value not in action.choices:
            raise UsageError(f"config {path}: {key} must be one of "
                             f"{', '.join(action.choices)}, got {value!r}")
        out[key] = value
    return out


def _merge_config(args, flags: dict) -> RunConfig:
    params = {k: v for k, v in vars(args).items()
              if k not in _NOT_PARAMETERS and v is not None}
    tol = getattr(args, "tol", None)
    if getattr(args, "config", None):
        try:
            base = RunConfig.from_json(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError, KeyError) as exc:
            raise UsageError(f"malformed config {args.config}: {exc}")
        if base.command != args.command:
            raise UsageError(
                f"config command {base.command!r} does not match {args.command!r}")
        if base.tol is not None and "tol" not in args:
            raise UsageError(f"{args.command} takes no tol, config {args.config} sets one")
        merged = _config_parameters(base.parameters, flags, args.config)
        merged.update(params)
        params = merged
        out = args.out or base.out
        formats = (args.format or ",".join(base.formats)).split(",")
        if tol is None:
            tol = base.tol
    else:
        out = args.out
        formats = (args.format or "json").split(",")
    return RunConfig(command=args.command, parameters=params, out=out,
                     formats=[f.strip() for f in formats if f.strip()], tol=tol)


def _refuse_unread(p: dict, keys, run: str):
    """A parameter the run would not read is a usage error, not dropped silently."""
    if given := [k for k in keys if k in p]:
        raise UsageError(f"{run} does not read " + ", ".join("--" + k.replace("_", "-") for k in given))


class UsageError(BiharmLabError):
    pass


def _emit(cfg: RunConfig, name: str, json_obj=None, write_csv=None):
    """Write the run config and the requested formats of one artifact.

    ``write_csv(path)`` writes the CSV form; it is called only when asked for.
    """
    if cfg.out is None:
        return
    outdir = Path(cfg.out)
    serialize.atomic_write_text(outdir / "run-config.json", cfg.to_json() + "\n")
    if "json" in cfg.formats and json_obj is not None:
        serialize.write_json(outdir / f"{name}.json", json_obj)
    if "csv" in cfg.formats and write_csv is not None:
        write_csv(outdir / f"{name}.csv")


def _print(obj):
    print(serialize.json_text(obj))


def _cmd_region(cfg: RunConfig) -> int:
    p = cfg.parameters
    if "q" not in p:
        raise UsageError("region needs --q")
    # the default beta is a formula in (n, q, alpha): validate them first
    params = ParamSet(n=p.get("n", 3), q=float(p["q"]), alpha=float(p.get("alpha", 0.5)))
    n, q, alpha = params.n, params.q, params.alpha
    beta = p.get("beta", beta_max_or_zero(alpha, q, n))
    params = replace(params, beta=float(beta))
    res = check_admissible(params)
    gamma_star = None
    gexp = None
    if res.admissible:
        gamma_star = gamma_interval(alpha, q, n).gamma_star
        # supremum of 2/(1-gamma) over the open interval [0, gamma_star)
        gexp = growth_exponent(gamma_star) if gamma_star < 1.0 else None
    out = {"params": params.to_dict(), "admissible": res.admissible,
           "reasons": res.reasons, "coefficients": res.coefficients.to_dict(),
           "coefficient_signs": res.coefficient_signs,
           "beta_max_used": beta, "gamma_star": gamma_star,
           "growth_exponent": gexp,
           "tau": tau(q, n) if q >= 3 else None}
    _print(out)
    _emit(cfg, "region", out)
    return EXIT_OK


def _verdict(cfg: RunConfig, reports) -> int:
    """Apply --tol to the reports; returns the exit code their verdicts give."""
    if cfg.tol is not None:
        require_in("tol", cfg.tol)
        for rep in reports:
            rep.tol = cfg.tol
    return EXIT_VERIFICATION if any(rep.passed is False for rep in reports) else EXIT_OK


def _window(p, default_h) -> tuple[float, int]:
    """(r_max, interval count) of the radial grid from --r-max and --h."""
    r_max = require_above("r_max", float(p.get("r_max", 20.0)))
    h = require_above("h", default_h if p.get("h") is None else float(p["h"]))
    if not r_max / h <= MAX_COUNT:   # refused before round() or any allocation
        raise SizeError(f"r_max/h = {r_max / h:g} exceeds {MAX_COUNT} intervals")
    return r_max, max(16, round(r_max / h))


def _cmd_solve_biharmonic(cfg: RunConfig) -> int:
    p = cfg.parameters
    r_max, intervals = _window(p, 20.0 / 4096)
    prof = biharmonic.shoot(p.get("n", 3), float(p.get("q", 7.0)),
                            float(p["u0"]), float(p["z0"]), r_max,
                            num_intervals=intervals,
                            rtol=float(p.get("rtol", RTOL)))
    out = prof.to_dict()
    out["residual_max"] = float(np.abs(
        biharmonic.residual(prof).values[prof.grid.trim_slice()]).max()) \
        if prof.grid.num_intervals > 8 else None
    _print({"classification": out["classification"], "meta": out["meta"],
            "residual_max": out["residual_max"]})
    _emit(cfg, "profile", out, lambda path: serialize.write_columns(path, prof.columns()))
    return EXIT_OK


def _profile_for_verify(p) -> biharmonic.SolutionProfile:
    aux_checks = p.get("check", "all") in ("aux-ineq", "weighted", "identity", "all")
    default_h = 20.0 / 32768 if aux_checks else 20.0 / 4096
    if p.get("exact"):
        if p.get("q", 7.0) != 7.0 or p.get("n", 3) != 3:
            raise UsageError("--exact pins (n, q) = (3, 7); drop --n/--q or --exact")
        _refuse_unread(p, ("u0", "z0"), "verify --exact")
        return biharmonic.exact_solution(RadialGrid.uniform(3, *_window(p, default_h)))
    if p.get("u0") is None or p.get("z0") is None:
        raise UsageError("verify needs --exact or both --u0 and --z0")
    r_max, intervals = _window(p, default_h)
    return biharmonic.shoot(p.get("n", 3), float(p.get("q", 7.0)),
                            float(p["u0"]), float(p["z0"]), r_max,
                            num_intervals=intervals)


def _aux_report(prof, alpha: float, beta: float, exact: bool):
    """The aux-inequality report; on the closed form, with its observed order over three grids."""
    rep = verify.verify_aux_inequality(prof, alpha, beta)
    n_fine = prof.grid.num_intervals
    if exact and (n_fine % 4 or n_fine < 64):
        rep.refinement_order = float("nan")
    elif exact:
        rep.refinement_order = self_convergence_order([
            verify.verify_aux_inequality(biharmonic.exact_solution(
                RadialGrid.uniform(3, prof.grid.r_max, n_fine // div)), alpha, beta).margin.values
            for div in (4, 2, 1)])
    return rep


def _cmd_verify(cfg: RunConfig) -> int:
    p = cfg.parameters
    check = p.get("check", "all")
    prof = _profile_for_verify(p)
    alpha = float(p.get("alpha", 0.5))
    beta = float(p.get("beta", beta_max_or_zero(alpha, prof.q, prof.n)))
    gamma = p.get("gamma")
    checks = {   # in report order; built lazily, as some refuse inputs the others take
        "pointwise": lambda: verify.verify_pointwise_bound(prof, alpha, beta),
        "sharp": lambda: verify.verify_sharp_bound(prof),
        "weak": lambda: verify.verify_weak_bound(prof),
        "gradient": lambda: verify.verify_gradient_bound(prof),
        "aux-ineq": lambda: _aux_report(prof, alpha, beta, bool(p.get("exact"))),
        "identity": lambda: verify.laplacian_identity_defect(prof, alpha, beta),
        "weighted": lambda: verify.verify_weighted_aux_inequality(
            prof, alpha, beta, float(gamma) if gamma is not None
            else 0.5 * gamma_interval(alpha, prof.q, prof.n).gamma_star),
        "curvature": lambda: verify.scalar_curvature(prof)[1],
    }
    reports = [make() for name, make in checks.items() if check in (name, "all")]

    code = _verdict(cfg, reports)
    payload = [rep.to_dict() for rep in reports]
    _print(payload)
    _emit(cfg, "reports", payload)
    if cfg.out and "csv" in cfg.formats:
        r_text = {}   # r formatted once per grid, shared by the margin CSVs
        for rep in reports:
            if rep.margin is not None:
                g = rep.margin.grid
                if g not in r_text:
                    r_text[g] = serialize.format_floats(g.r)
                cols = rep.margin.columns("margin")
                cols["r"] = r_text[g]
                serialize.write_columns(Path(cfg.out) / f"margin-{rep.inequality}.csv", cols)
    return code


def _cmd_solve_system(cfg: RunConfig) -> int:
    p = cfg.parameters
    r_max, intervals = _window(p, 20.0 / 4096)
    prof = system.solve_radial_system(
        p.get("n", 3), float(p.get("q", 7.0)), float(p.get("r_exp", 1.0)),
        float(p["u0"]), float(p["v0"]), r_max,
        num_intervals=intervals, rtol=float(p.get("rtol", RTOL)))
    reports = []
    if prof.conforming:
        reports = [system.verify_component_comparison(prof),
                   system.verify_concavity_step(prof)]
    code = _verdict(cfg, reports)
    out = {"classification": prof.classification.to_dict(),
           "sigma": prof.sigma, "ell": prof.ell,
           "reports": [rep.to_dict() for rep in reports]}
    _print(out)
    _emit(cfg, "system-profile", prof.to_dict(),
          lambda path: serialize.write_columns(path, prof.columns()))
    if cfg.out:
        serialize.write_json(Path(cfg.out) / "system-reports.json", out)
    return code


def _cmd_simulate_parabolic(cfg: RunConfig) -> int:
    p = cfg.parameters
    geometry = p.get("geometry", "periodic")
    _refuse_unread(p, ("length",) if geometry == "radial" else ("radius", "n"),
                   f"the {geometry} geometry")
    if geometry == "radial":
        geom = parabolic.RadialBall(n=p.get("n", 3),
                                    radius=float(p.get("radius", np.pi)),
                                    num_intervals=p.get("nodes", 512))
    else:
        geom = parabolic.PeriodicBox(length=float(p.get("length", 2.0 * np.pi)),
                                     num_nodes=p.get("nodes", 512))
    eps = float(p.get("perturb", 0.0))
    x = geom.x
    scale_x = 2.0 * np.pi / (x[-1] + geom.h)
    u_init = float(p.get("u0", 1.0)) + eps * np.cos(scale_x * x)
    v_init = float(p.get("v0", 1.2)) + eps * np.cos(2.0 * scale_x * x)
    fld = parabolic.simulate(
        geom, float(p["p_exp"]), float(p["r_exp"]), u_init, v_init,
        float(p.get("t_final", 1.0)), num_snapshots=p.get("snapshots", 64),
        blowup_factor=float(p.get("blowup_factor", parabolic.BLOWUP_FACTOR)))
    manifest = fld.manifest()
    _print(manifest)
    _emit(cfg, "run-manifest", manifest, lambda path: serialize.write_columns(path, fld.columns()))
    return EXIT_OK


def _cmd_sweep(cfg: RunConfig) -> int:
    p = cfg.parameters
    module = p["module"]
    _refuse_unread(p, {"region": ("r_exp", "r_max", "h"), "biharmonic": ("r_exp", "alpha"),
                       "lane-emden": ("alpha",)}[module], f"sweep --module {module}")
    lists = {"n_values": _numbers(int, p.get("n", "3,4,5")),
             "q_values": _numbers(float, p.get("q", "2,3,5,7"))}
    if module == "region":
        alphas = _numbers(float, p["alpha"]) if "alpha" in p else tuple(np.linspace(0, 0.5, 21))
        rows = sweeps.region_sweep(**lists, alpha_values=alphas)
    elif module == "biharmonic":
        r_max, intervals = _window(p, 20.0 / 1024)
        rows = sweeps.weak_bound_sweep(**lists, r_max=r_max, intervals=intervals)
    else:   # lane-emden; argparse and the config check restrict the choices
        r_max, intervals = _window(p, 20.0 / 1024)
        rows = sweeps.system_sweep(**lists, rexp_values=_numbers(float, p.get("r_exp", "0.5,1,2")),
                                   r_max=r_max, intervals=intervals)
    # no list is empty, so there is a first row; its keys are the CSV columns
    header = list(rows[0])
    verdicts = [r for r in rows if r.get("weak_pass") is False
                or r.get("comparison_pass") is False or r.get("concavity_pass") is False]
    print(f"sweep {module}: {len(rows)} cases, {len(verdicts)} failures")
    _emit(cfg, f"sweep-{module}", rows, lambda path: serialize.write_csv(
        path, header, ([row.get(k) for k in header] for row in rows)))
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args, parser.commands[args.command].parameters())
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
