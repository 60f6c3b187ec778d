"""Command-line front end.

Subcommands: region, solve-biharmonic, verify, solve-system,
simulate-parabolic, sweep.  Exit codes: 0 success (all requested
verifications pass), 1 usage error, 2 precondition violation,
3 verification failure, 4 integrator failure.

A --config file stands for the flags it holds, parsed before the command
line's, which override them.  Each subcommand prints its results and returns
its exit code and artifacts; with --out, ``run`` writes them in one
``serialize.write_artifacts`` call, after its resolved configuration in
run-config.json, which round-trips losslessly through JSON and replays the run.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, biharmonic, parabolic, serialize, system, sweeps, verify
from ._backend import RTOL, TOL_PER_H2
from .errors import (MAX_COUNT, BiharmLabError, DomainError, IntegratorError,
                     PreconditionError, SizeError, require_above, require_in)
from .grids import TRIM_NODES, RadialGrid, self_convergence_order
from .params import (ParamSet, beta_max_or_zero, check_admissible, gamma_interval,
                     growth_exponent, tau)
from .serialize import Artifact

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
        """Parse a config; a top-level field of the wrong type raises TypeError."""
        data = json.loads(text)
        cfg = cls(command=data["command"], parameters=data.get("parameters", {}),
                  out=data.get("out"), formats=data.get("formats", ["json"]),
                  tol=data.get("tol"))
        if not isinstance(cfg.out, str | None):
            raise TypeError(f"out must be a string, got {cfg.out!r}")
        if not isinstance(cfg.parameters, dict):
            raise TypeError(f"parameters must be an object, got {cfg.parameters!r}")
        if cfg.tol is not None and not _is_number(cfg.tol):
            raise TypeError(f"tol must be a number, got {cfg.tol!r}")
        if not isinstance(cfg.formats, list):
            raise TypeError("formats must be a comma list of json and csv, given as a list, "
                            f"got {cfg.formats!r}")
        return cfg


def _is_number(value) -> bool:
    """A JSON value a float flag takes: no bool, text or integer beyond the float range."""
    return type(value) is float or type(value) is int and abs(value) <= sys.float_info.max


#: dests that are RunConfig fields (or help), not command parameters
_NOT_PARAMETERS = ("command", "out", "format", "config", "tol", "help")


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
    # a flag left unset is absent from the namespace: each run reads its own default
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=partial(_Parser, argument_default=argparse.SUPPRESS))
    p.commands = sub.choices

    def common(sp):
        sp.add_argument("--out", help="output directory for artifacts")
        sp.add_argument("--format",
                        help="comma-separated artifact formats (default json): json,csv")
        sp.add_argument("--config", help="JSON config file; flags override it")

    # only where the printed reports carry the scale their verdict derives from
    def tol_option(sp):
        sp.add_argument("--tol", type=float,
                        help="override the pass tolerance of the verification reports")

    def radial_options(sp, h_help="grid spacing (default 20/4096)"):
        sp.add_argument("--n", type=int, help="dimension (default 3)")
        sp.add_argument("--q", type=float, help="singular exponent (default 7)")
        sp.add_argument("--r-max", type=float, help="window end (default 20)")
        sp.add_argument("--h", type=float, help=h_help)

    sp = sub.add_parser("region", help="admissibility and derived coefficients")
    sp.add_argument("--n", type=int, help="dimension (default 3)")
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--alpha", type=float, help="gradient coefficient (default 0.5)")
    sp.add_argument("--beta", type=float, help="defaults to beta_max(alpha, q, n)")
    common(sp)

    sp = sub.add_parser("solve-biharmonic", help="shoot the fourth-order problem")
    radial_options(sp)
    sp.add_argument("--u0", type=float, required=True)
    sp.add_argument("--z0", type=float, required=True)
    sp.add_argument("--rtol", type=float, help=RTOL_HELP)
    common(sp)

    sp = sub.add_parser("verify", help="pointwise checks on a profile")
    sp.add_argument("--exact", action="store_true",
                    help="use the closed-form n=3, q=7 reference solution")
    sp.add_argument("--u0", type=float, help="shooting start when not --exact")
    sp.add_argument("--z0", type=float)
    radial_options(sp, "grid spacing; default 20/4096 for first-order checks, "
                       "20/32768 for checks differencing derived fields")
    sp.add_argument("--check", choices=CHECKS, help="which inequality to verify (default all)")
    sp.add_argument("--alpha", type=float, help="gradient coefficient (default 0.5)")
    sp.add_argument("--beta", type=float)
    sp.add_argument("--gamma", type=float)
    common(sp)
    tol_option(sp)

    sp = sub.add_parser("solve-system", help="shoot the coupled radial system")
    radial_options(sp)
    sp.add_argument("--r-exp", type=float, help="coupling exponent (default 1)")
    sp.add_argument("--u0", type=float, required=True)
    sp.add_argument("--v0", type=float, required=True)
    sp.add_argument("--rtol", type=float, help=RTOL_HELP)
    common(sp)
    tol_option(sp)

    sp = sub.add_parser("simulate-parabolic", help="method-of-lines run")
    sp.add_argument("--p-exp", type=float, required=True)
    sp.add_argument("--r-exp", type=float, required=True)
    sp.add_argument("--geometry", choices=("periodic", "radial"), help="default periodic")
    sp.add_argument("--nodes", type=int, help="spatial nodes (default 512)")
    sp.add_argument("--length", type=float, help="periodic box length")
    sp.add_argument("--radius", type=float, help="radial ball radius (default pi)")
    sp.add_argument("--n", type=int, help="dimension for radial geometry (default 3)")
    sp.add_argument("--u0", type=float, help="initial level of u (default 1)")
    sp.add_argument("--v0", type=float, help="initial level of v (default 1.2)")
    sp.add_argument("--perturb", type=float, help="amplitude of a one-mode spatial perturbation")
    sp.add_argument("--t-final", type=float, help="simulated time (default 1)")
    sp.add_argument("--snapshots", type=int, help="snapshot count (default 64)")
    sp.add_argument("--blowup-factor", type=float)
    common(sp)

    sp = sub.add_parser("sweep", help="deterministic parameter sweeps")
    sp.add_argument("--module", choices=("region", "biharmonic", "lane-emden"),
                    required=True)
    sp.add_argument("--n", help="comma list of dimensions (default 3,4,5)")
    sp.add_argument("--q", help="comma list of exponents q (default 2,3,5,7)")
    sp.add_argument("--r-exp", "--r", dest="r_exp",
                    help="comma list of exponents r (lane-emden; default 0.5,1,2)")
    sp.add_argument("--alpha", help="comma list of alphas (region)")
    sp.add_argument("--r-max", type=float, help="window end (default 20)")
    sp.add_argument("--h", type=float, help="grid spacing (default 20/1024)")
    common(sp)

    return p


def _numbers(kind: type, text: str) -> list:
    """Comma list of sweep values; a token that does not parse, or no token, is a usage error."""
    tokens = [tok for tok in str(text).split(",") if tok.strip()]
    try:   # no token is read as one empty token, which does not parse either
        return [kind(tok) for tok in tokens or [""]]
    except ValueError:
        raise UsageError(f"not a comma list of {kind.__name__}s: {text!r}") from None


def _with_config(parser: _Parser, argv: list[str]) -> list[str]:
    """``argv`` with the --flag=value tokens its --config file stands for after the subcommand."""
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:
        return argv
    finder = _Parser(prog=sub.prog, add_help=False)
    finder.add_argument("--config")
    path = finder.parse_known_args(argv[1:])[0].config
    if not path:   # an empty --config= names no file
        return argv
    try:
        base = RunConfig.from_json(Path(path).read_text())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"malformed config {path}: {exc}")
    if base.command != argv[0]:
        raise UsageError(f"config command {base.command!r} does not match {argv[0]!r}")
    flags = {a.dest: a for a in sub._actions if a.dest not in _NOT_PARAMETERS}
    tokens = []
    for key, value in base.parameters.items():
        action = flags.get(key)
        if action is None:
            raise UsageError(f"config {path}: unknown parameter {key!r}")
        if action.nargs == 0:   # a flag without a value, such as --exact
            if value is not None and type(value) is not bool:
                raise UsageError(f"config {path}: {key} must be true, false or null, got {value!r}")
            tokens += [action.option_strings[0]] if value else []
        elif value is not None:
            # text and booleans would parse as a flag's text does; the JSON must hold a number
            if action.type in (int, float) and not _is_number(value):
                raise UsageError(f"config {path}: {key} must be a number, got {value!r}")
            tokens.append(f"{action.option_strings[0]}={value}")
    top = {"--out": base.out, "--tol": base.tol, "--format": ",".join(map(str, base.formats))}
    return argv[:1] + tokens + [f"{k}={v}" for k, v in top.items() if v is not None] + argv[1:]


def _refuse_unread(p: dict, keys, run: str):
    """A parameter the run would not read is a usage error, not dropped silently."""
    if given := [k for k in keys if k in p]:
        raise UsageError(f"{run} does not read " + ", ".join("--" + k.replace("_", "-") for k in given))


class UsageError(BiharmLabError):
    pass


def _cmd_region(cfg: RunConfig) -> tuple[int, list[Artifact]]:
    p = cfg.parameters
    # the default beta is a formula in (n, q, alpha): validate them first
    params = ParamSet(n=p.get("n", 3), q=p["q"], alpha=p.get("alpha", 0.5))
    n, q, alpha = params.n, params.q, params.alpha
    beta = p.get("beta", beta_max_or_zero(alpha, q, n))
    params = replace(params, beta=beta)
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
    print(serialize.json_text(out))
    return EXIT_OK, [Artifact("region", out)]


def _require_tol(cfg: RunConfig):
    """Refuse a bad --tol after the usage checks, before any shot."""
    if cfg.tol is not None:
        require_in("tol", cfg.tol)


def _verdict(cfg: RunConfig, reports) -> int:
    """Apply --tol to the reports; returns the exit code their verdicts give."""
    if cfg.tol is not None:
        for rep in reports:
            rep.tol = cfg.tol
    return EXIT_VERIFICATION if any(rep.passed is False for rep in reports) else EXIT_OK


def _window(p, default_h) -> tuple[float, int]:
    """(r_max, interval count) of the radial grid from --r-max and --h."""
    r_max = require_above("r_max", p.get("r_max", 20.0))
    h = require_above("h", p.get("h", default_h))
    if not r_max / h <= MAX_COUNT:   # refused before round() or any allocation
        raise SizeError(f"r_max/h = {r_max / h:g} exceeds {MAX_COUNT} intervals")
    return r_max, max(16, round(r_max / h))


def _shoot(p, default_h: float) -> biharmonic.SolutionProfile:
    """The shot of solve-biharmonic and verify from --u0 and --z0."""
    r_max, intervals = _window(p, default_h)
    return biharmonic.shoot(p.get("n", 3), p.get("q", 7.0), p["u0"], p["z0"], r_max,
                            num_intervals=intervals, rtol=p.get("rtol", RTOL))


def _cmd_solve_biharmonic(cfg: RunConfig) -> tuple[int, list[Artifact]]:
    p = cfg.parameters
    prof = _shoot(p, 20.0 / 4096)
    out = prof.to_dict()
    out["residual_max"] = float(np.abs(
        biharmonic.residual(prof).values[prof.grid.trim_slice()]).max()) \
        if prof.grid.num_intervals > 2 * TRIM_NODES else None
    print(serialize.json_text({"classification": out["classification"], "meta": out["meta"],
                               "residual_max": out["residual_max"]}))
    return EXIT_OK, [Artifact("profile", out, prof.columns)]


def _profile_for_verify(p) -> biharmonic.SolutionProfile:
    aux_checks = p.get("check", "all") in ("aux-ineq", "weighted", "identity", "all")
    default_h = 20.0 / 32768 if aux_checks else 20.0 / 4096
    if p.get("exact"):
        return biharmonic.exact_solution(RadialGrid.uniform(3, *_window(p, default_h)))
    return _shoot(p, default_h)


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
            for div in (4, 2)] + [rep.margin.values])   # the finest grid is the report's
    return rep


def _cmd_verify(cfg: RunConfig) -> tuple[int, list[Artifact]]:
    p = cfg.parameters
    check = p.get("check", "all")
    if check in ("sharp", "weak", "gradient", "curvature"):
        _refuse_unread(p, ("alpha", "beta", "gamma"), f"verify --check {check}")
    elif check not in ("weighted", "all"):
        _refuse_unread(p, ("gamma",), f"verify --check {check}")
    if p.get("exact"):
        if p.get("q", 7.0) != 7.0 or p.get("n", 3) != 3:
            raise UsageError("--exact pins (n, q) = (3, 7); drop --n/--q or --exact")
        _refuse_unread(p, ("u0", "z0"), "verify --exact")
    elif p.get("u0") is None or p.get("z0") is None:
        raise UsageError("verify needs --exact or both --u0 and --z0")
    _require_tol(cfg)
    alpha = p.get("alpha", 0.5)
    gamma = p.get("gamma")
    # the run's parameter domains, refused before the shot as --tol is
    ParamSet(n=p.get("n", 3), q=p.get("q", 7.0), alpha=alpha, beta=p.get("beta", 0.0),
             gamma=gamma)
    prof = _profile_for_verify(p)
    beta = p.get("beta", beta_max_or_zero(alpha, prof.q, prof.n))
    checks = {   # in report order; built lazily, as some refuse inputs the others take
        "pointwise": lambda: verify.verify_pointwise_bound(prof, alpha, beta),
        "sharp": lambda: verify.verify_sharp_bound(prof),
        "weak": lambda: verify.verify_weak_bound(prof),
        "gradient": lambda: verify.verify_gradient_bound(prof),
        "aux-ineq": lambda: _aux_report(prof, alpha, beta, bool(p.get("exact"))),
        "identity": lambda: verify.laplacian_identity_defect(prof, alpha, beta),
        "weighted": lambda: verify.verify_weighted_aux_inequality(
            prof, alpha, beta, gamma if gamma is not None
            else 0.5 * gamma_interval(alpha, prof.q, prof.n).gamma_star),
        "curvature": lambda: verify.scalar_curvature(prof),
    }
    reports = [make() for name, make in checks.items() if check in (name, "all")]

    code = _verdict(cfg, reports)
    payload = [rep.to_dict() for rep in reports]
    print(serialize.json_text(payload))
    return code, [Artifact("reports", payload)] + [
        Artifact(f"margin-{rep.inequality}", columns=lambda m=rep.margin: m.columns("margin"))
        for rep in reports if rep.margin is not None]


def _cmd_solve_system(cfg: RunConfig) -> tuple[int, list[Artifact]]:
    _require_tol(cfg)
    p = cfg.parameters
    r_max, intervals = _window(p, 20.0 / 4096)
    prof = system.solve_radial_system(
        p.get("n", 3), p.get("q", 7.0), p.get("r_exp", 1.0), p["u0"], p["v0"], r_max,
        num_intervals=intervals, rtol=p.get("rtol", RTOL))
    reports = []
    if prof.conforming:
        reports = [system.verify_component_comparison(prof),
                   system.verify_concavity_step(prof)]
    code = _verdict(cfg, reports)
    out = {"classification": prof.classification.to_dict(),
           "sigma": prof.sigma, "ell": prof.ell,
           "reports": [rep.to_dict() for rep in reports]}
    print(serialize.json_text(out))
    return code, [Artifact("system-profile", prof.to_dict(), prof.columns),
                  Artifact("system-reports", out)]


def _cmd_simulate_parabolic(cfg: RunConfig) -> tuple[int, list[Artifact]]:
    p = cfg.parameters
    geometry = p.get("geometry", "periodic")
    _refuse_unread(p, ("length",) if geometry == "radial" else ("radius", "n"),
                   f"the {geometry} geometry")
    if geometry == "radial":
        geom = parabolic.RadialBall(n=p.get("n", 3), radius=p.get("radius", np.pi),
                                    num_intervals=p.get("nodes", 512))
    else:
        geom = parabolic.PeriodicBox(length=p.get("length", 2.0 * np.pi),
                                     num_nodes=p.get("nodes", 512))
    eps = p.get("perturb", 0.0)
    x = geom.x
    # one period over the box, or over [0, R]: cos(k r) then has zero slope
    # at the axis and at the zero-flux wall
    scale_x = 2.0 * np.pi / (geom.radius if geometry == "radial" else x[-1] + geom.h)
    with np.errstate(invalid="ignore"):   # -inf + inf: simulate refuses the NaN start
        u_init = p.get("u0", 1.0) + eps * np.cos(scale_x * x)
        v_init = p.get("v0", 1.2) + eps * np.cos(2.0 * scale_x * x)
    fld = parabolic.simulate(
        geom, p["p_exp"], p["r_exp"], u_init, v_init, p.get("t_final", 1.0),
        num_snapshots=p.get("snapshots", 64),
        blowup_factor=p.get("blowup_factor", parabolic.BLOWUP_FACTOR))
    manifest = fld.manifest()
    print(serialize.json_text(manifest))
    return EXIT_OK, [Artifact("run-manifest", manifest, fld.columns)]


def _cmd_sweep(cfg: RunConfig) -> tuple[int, list[Artifact]]:
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
    else:   # lane-emden; argparse restricts the choices
        r_max, intervals = _window(p, 20.0 / 1024)
        rows = sweeps.system_sweep(**lists, rexp_values=_numbers(float, p.get("r_exp", "0.5,1,2")),
                                   r_max=r_max, intervals=intervals)
    # no list is empty, so there is a first row; its keys are the CSV columns
    header = list(rows[0])
    verdicts = [r for r in rows if r.get("weak_pass") is False
                or r.get("comparison_pass") is False or r.get("concavity_pass") is False]
    print(f"sweep {module}: {len(rows)} cases, {len(verdicts)} failures")
    return EXIT_VERIFICATION if verdicts else EXIT_OK, [Artifact(
        f"sweep-{module}", rows,
        lambda: serialize.table_columns(header, ([row.get(k) for k in header] for row in rows)))]


_COMMANDS = {
    "region": _cmd_region,
    "solve-biharmonic": _cmd_solve_biharmonic,
    "verify": _cmd_verify,
    "solve-system": _cmd_solve_system,
    "simulate-parabolic": _cmd_simulate_parabolic,
    "sweep": _cmd_sweep,
}


def _require_directory(out: str) -> str:
    """Return ``out``; refused if it cannot be a directory, before the run prints or writes."""
    if not out or "\0" in out:
        raise UsageError(f"--out {out!r} is not a directory name")
    path = Path(out).absolute()
    try:
        while not (path.exists() or path.is_symlink()):   # the nearest existing ancestor
            path = path.parent
    except OSError as exc:   # such as a component longer than the file system takes
        raise UsageError(f"--out {out}: {exc.strerror}") from None
    if not path.is_dir():
        raise UsageError(f"--out {out}: {path} is not a directory")
    return out


def run(cfg: RunConfig) -> int:
    """Execute a resolved configuration and write its artifacts; returns the exit code."""
    try:
        outdir = cfg.out is not None and _require_directory(cfg.out)
        code, artifacts = _COMMANDS[cfg.command](cfg)
        if outdir:
            try:
                serialize.write_artifacts(outdir, cfg.formats, cfg.to_json() + "\n", artifacts)
            except OSError as exc:
                raise UsageError(f"--out {cfg.out}: {exc}") from None
        return code
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
    try:
        args = vars(parser.parse_args(
            _with_config(parser, list(sys.argv[1:] if argv is None else argv))))
        text = args.get("format", "json")
        formats = [f.strip() for f in text.split(",") if f.strip()]
        if not formats or not set(formats) <= {"json", "csv"}:
            raise UsageError(f"formats must be a comma list of json and csv, got {text!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    params = {k: v for k, v in args.items() if k not in _NOT_PARAMETERS}
    return run(RunConfig(command=args["command"], parameters=params, out=args.get("out"),
                         formats=formats, tol=args.get("tol")))


if __name__ == "__main__":
    sys.exit(main())
