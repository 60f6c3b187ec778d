"""Command-line front end.

Subcommands: region, solve-biharmonic, verify, solve-system,
simulate-parabolic, sweep.  Exit codes: 0 success (all requested
verifications pass), 1 usage error, 2 precondition violation,
3 verification failure, 4 integrator failure.

OPTIONS holds each flag's type or choices, default and help, which make the
parser, the --help text and a run's parameters: the flags given over the
defaults, which are read from the library wherever it has one (a sweep's
tables and window, the parabolic grids and snapshot count).  A subcommand's
help is its function's docstring.

A --config file stands for the flags it holds, parsed before the command
line's, which override them.  Each subcommand prints its results and returns
its exit code and artifacts; with --out, ``run`` writes them in one
``serialize.write_artifacts`` call, after its configuration in
run-config.json, which records the flags given, round-trips losslessly
through JSON and replays the run.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, biharmonic, parabolic, serialize, system, sweeps, verify
from ._backend import RTOL, TOL_PER_H2
from .biharmonic import EXACT_N, EXACT_Q
from .errors import (MAX_COUNT, BiharmLabError, DomainError, IntegratorError,
                     PreconditionError, SizeError, require_above, require_in)
from .grids import MIN_INTERVALS, TRIM_NODES, RadialGrid, self_convergence_order
from .params import (ALPHA_MAX, ParamSet, beta_max_or_zero, check_admissible,
                     gamma_interval, growth_exponent, tau)
from .serialize import Artifact

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PRECONDITION = 2
EXIT_VERIFICATION = 3
EXIT_INTEGRATOR = 4

#: the default of a flag the run cannot do without
REQUIRED = object()
#: checks that difference a derived field twice run, unless --h is given, on a
#: grid this many times finer than the default
FINE_GRID = 8


@dataclass
class RunConfig:
    """Resolved invocation; round-trips losslessly through JSON."""

    command: str
    parameters: dict = field(default_factory=dict)
    out: str | None = None
    formats: list[str] = field(default_factory=lambda: ["json"])
    tol: float | None = None

    def to_json(self) -> str:
        return serialize.json_text(asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        """Parse a config; a top-level key missing, naming no field, or of the wrong type
        raises TypeError."""
        cfg = cls(**json.loads(text))
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; contract says 1
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _build_parser() -> _Parser:
    p = _Parser(prog="biharm-lab",
                description="Solvers and pointwise-inequality verifiers for "
                            "singular biharmonic and coupled Lane-Emden type problems")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    # a flag left unset is absent from the namespace: the run reads its default from OPTIONS
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=partial(_Parser, argument_default=argparse.SUPPRESS))
    p.commands = sub.choices
    for command, options in OPTIONS.items():
        sp = sub.add_parser(command, help=_COMMANDS[command].__doc__)
        # --tol only where the printed reports carry the scale their verdicts derive from
        tol = _TOL if command in ("verify", "solve-system") else {}
        for dest, (kind, default, text) in {**options, **_RUN_OPTIONS, **tol}.items():
            if kind is bool:
                sp.add_argument(_flag(dest), action="store_true", help=text)
                continue
            if default is not None and default is not REQUIRED:
                text += f" (default {default})"
            sp.add_argument(_flag(dest), *_ALIASES.get((command, dest), ()), help=text,
                            required=default is REQUIRED,
                            **{"choices" if isinstance(kind, tuple) else "type": kind})
    return p


def _listed(values) -> str:
    """A sweep table as the comma list that _numbers parses back to its values."""
    return ",".join(map(str, values))


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
    options = OPTIONS[argv[0]]
    tokens = []
    for key, value in base.parameters.items():
        if key not in options:
            raise UsageError(f"config {path}: unknown parameter {key!r}")
        kind = options[key][0]
        if kind is bool:   # a flag without a value, such as --exact
            if value is not None and type(value) is not bool:
                raise UsageError(f"config {path}: {key} must be true, false or null, got {value!r}")
            tokens += [_flag(key)] if value else []
        elif value is not None:
            # text and booleans would parse as a flag's text does; the JSON must hold a number
            if kind in (int, float) and not _is_number(value):
                raise UsageError(f"config {path}: {key} must be a number, got {value!r}")
            tokens.append(f"{_flag(key)}={value}")
    top = {"--out": base.out, "--tol": base.tol, "--format": ",".join(map(str, base.formats))}
    return argv[:1] + tokens + [f"{k}={v}" for k, v in top.items() if v is not None] + argv[1:]


def _refuse_unread(p: dict, keys, run: str):
    """A parameter the run would not read is a usage error, not dropped silently."""
    if given := [k for k in keys if k in p]:
        raise UsageError(f"{run} does not read " + ", ".join(map(_flag, given)))


def _resolved(cfg: RunConfig) -> dict:
    """The run's parameters: the flags given over the defaults of OPTIONS."""
    return {**{dest: default for dest, (_, default, _) in OPTIONS[cfg.command].items()
               if default is not None and default is not REQUIRED}, **cfg.parameters}


class UsageError(BiharmLabError):
    pass


def _print(text: str) -> None:
    """Print a run's summary on stdout, the one path every subcommand prints by.

    A reader that closes stdout early (``| head``) loses the rest of the text,
    not the run: stdout then points at the null device, so neither this print
    nor the flush at exit raises, and the run still writes its artifacts and
    returns its own exit code.
    """
    try:
        print(text, flush=True)
    except BrokenPipeError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)


def _cmd_region(cfg: RunConfig) -> tuple[int, list[Artifact]]:
    """Admissibility and derived coefficients."""
    p = _resolved(cfg)
    # the default beta is a formula in (n, q, alpha): validate them first
    params = ParamSet(n=p["n"], q=p["q"], alpha=p["alpha"])
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
    _print(serialize.json_text(out))
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


def _window(p) -> tuple[float, int]:
    """(r_max, interval count) of the radial grid from --r-max and --h: round(r_max/h), but at
    least the MIN_INTERVALS a verification grid takes, so --h 0.5 --r-max 2 runs on h = 0.125."""
    r_max = require_above("r_max", p["r_max"])
    h = require_above("h", p["h"])
    if not r_max / h <= MAX_COUNT:   # refused before round() or any allocation
        raise SizeError(f"r_max/h = {r_max / h:g} exceeds {MAX_COUNT} intervals")
    return r_max, max(MIN_INTERVALS, round(r_max / h))


def _shoot(p, **kwargs) -> biharmonic.SolutionProfile:
    """The shot of solve-biharmonic and verify from --u0 and --z0; ``kwargs`` go to the shot."""
    r_max, intervals = _window(p)
    return biharmonic.shoot(p["n"], p["q"], p["u0"], p["z0"], r_max,
                            num_intervals=intervals, **kwargs)


def _cmd_solve_biharmonic(cfg: RunConfig) -> tuple[int, list[Artifact]]:
    """Shoot the fourth-order problem."""
    p = _resolved(cfg)
    prof = _shoot(p, rtol=p["rtol"])
    out = prof.to_dict()
    out["residual_max"] = float(np.abs(
        biharmonic.residual(prof).values[prof.grid.trim_slice()]).max()) \
        if prof.grid.num_intervals > 2 * TRIM_NODES else None
    _print(serialize.json_text({"classification": out["classification"], "meta": out["meta"],
                                "residual_max": out["residual_max"]}))
    return EXIT_OK, [Artifact("profile", out, prof.columns)]


def _aux_report(prof, alpha: float, beta: float, exact: bool):
    """The aux-inequality report; on the closed form, with its observed order over three grids
    nested in the report's, N/4, N/2 and N intervals, when N/4 is a verification grid."""
    rep = verify.verify_aux_inequality(prof, alpha, beta)
    g, n_fine = prof.grid, prof.grid.num_intervals
    if exact and (n_fine % 4 or n_fine // 4 < MIN_INTERVALS):
        rep.refinement_order = float("nan")
    elif exact:
        rep.refinement_order = self_convergence_order([
            verify.verify_aux_inequality(biharmonic.exact_solution(
                RadialGrid.uniform(g.n, g.r_max, n_fine // div)), alpha, beta).margin.values
            for div in (4, 2)] + [rep.margin.values])   # the finest grid is the report's
    return rep


#: verify's checks in report order: the maker of its report from the profile and the
#: parameters, the coefficient flags it reads, and whether it differences a derived field
#: twice.  Only the reports asked for are made, as some refuse inputs the others take.
_CHECKS = {
    "pointwise": (lambda prof, p: verify.verify_pointwise_bound(prof, p["alpha"], p["beta"]),
                  ("alpha", "beta"), False),
    "sharp": (lambda prof, p: verify.verify_sharp_bound(prof), (), False),
    "weak": (lambda prof, p: verify.verify_weak_bound(prof), (), False),
    "gradient": (lambda prof, p: verify.verify_gradient_bound(prof), (), False),
    "aux-ineq": (lambda prof, p: _aux_report(prof, p["alpha"], p["beta"], p["exact"]),
                 ("alpha", "beta"), True),
    "identity": (lambda prof, p: verify.laplacian_identity_defect(prof, p["alpha"], p["beta"]),
                 ("alpha", "beta"), True),
    "weighted": (lambda prof, p: verify.verify_weighted_aux_inequality(
        prof, p["alpha"], p["beta"], p["gamma"] if "gamma" in p
        else 0.5 * gamma_interval(p["alpha"], prof.q, prof.n).gamma_star),
        ("alpha", "beta", "gamma"), True),
    "curvature": (lambda prof, p: verify.scalar_curvature(prof), (), False),
}


def _cmd_verify(cfg: RunConfig) -> tuple[int, list[Artifact]]:
    """Pointwise checks on a profile."""
    given, p = cfg.parameters, _resolved(cfg)
    names = [name for name in _CHECKS if p["check"] in (name, "all")]
    reads = {flag for name in names for flag in _CHECKS[name][1]}
    _refuse_unread(given, dict.fromkeys(flag for _, flags, _ in _CHECKS.values()
                                        for flag in flags if flag not in reads),
                   f"verify --check {p['check']}")
    if p["exact"]:
        if (p["n"], p["q"]) != (EXACT_N, EXACT_Q):
            raise UsageError(f"--exact pins (n, q) = ({EXACT_N}, {EXACT_Q:g}); "
                             "drop --n/--q or --exact")
        _refuse_unread(given, ("u0", "z0"), "verify --exact")
    elif "u0" not in p or "z0" not in p:
        raise UsageError("verify needs --exact or both --u0 and --z0")
    _require_tol(cfg)
    # the run's parameter domains, refused before the shot as --tol is
    ParamSet(n=p["n"], q=p["q"], alpha=p["alpha"], beta=p.get("beta", 0.0), gamma=p.get("gamma"))
    if "h" not in given and any(_CHECKS[name][2] for name in names):
        p["h"] /= FINE_GRID
    prof = (biharmonic.exact_solution(RadialGrid.uniform(p["n"], *_window(p))) if p["exact"]
            else _shoot(p))
    p["beta"] = p.get("beta", beta_max_or_zero(p["alpha"], prof.q, prof.n))
    reports = [_CHECKS[name][0](prof, p) for name in names]

    code = _verdict(cfg, reports)
    payload = [rep.to_dict() for rep in reports]
    _print(serialize.json_text(payload))
    return code, [Artifact("reports", payload)] + [
        Artifact(f"margin-{rep.inequality}", columns=lambda m=rep.margin: m.columns("margin"))
        for rep in reports if rep.margin is not None]


def _cmd_solve_system(cfg: RunConfig) -> tuple[int, list[Artifact]]:
    """Shoot the coupled radial system."""
    _require_tol(cfg)
    p = _resolved(cfg)
    r_max, intervals = _window(p)
    prof = system.solve_radial_system(p["n"], p["q"], p["r_exp"], p["u0"], p["v0"], r_max,
                                      num_intervals=intervals, rtol=p["rtol"])
    reports = []
    if prof.conforming:
        reports = [system.verify_component_comparison(prof),
                   system.verify_concavity_step(prof)]
    code = _verdict(cfg, reports)
    out = {"classification": prof.classification.to_dict(),
           "sigma": prof.sigma, "ell": prof.ell,
           "reports": [rep.to_dict() for rep in reports]}
    _print(serialize.json_text(out))
    return code, [Artifact("system-profile", prof.to_dict(), prof.columns),
                  Artifact("system-reports", out)]


def _cmd_simulate_parabolic(cfg: RunConfig) -> tuple[int, list[Artifact]]:
    """Method-of-lines run."""
    p = _resolved(cfg)
    geometry = p["geometry"]
    _refuse_unread(cfg.parameters, ("length",) if geometry == "radial" else ("radius", "n"),
                   f"the {geometry} geometry")
    if geometry == "radial":
        geom = parabolic.RadialBall(n=p["n"], radius=p["radius"], num_intervals=p["nodes"])
    else:
        geom = parabolic.PeriodicBox(length=p["length"], num_nodes=p["nodes"])
    eps = p["perturb"]
    x = geom.x
    # one period over the box, or over [0, R]: cos(k r) then has zero slope
    # at the axis and at the zero-flux wall
    scale_x = 2.0 * np.pi / (geom.radius if geometry == "radial" else x[-1] + geom.h)
    with np.errstate(invalid="ignore"):   # -inf + inf: simulate refuses the NaN start
        u_init = p["u0"] + eps * np.cos(scale_x * x)
        v_init = p["v0"] + eps * np.cos(2.0 * scale_x * x)
    fld = parabolic.simulate(geom, p["p_exp"], p["r_exp"], u_init, v_init, p["t_final"],
                             num_snapshots=p["snapshots"], blowup_factor=p["blowup_factor"])
    manifest = fld.manifest()
    _print(serialize.json_text(manifest))
    return EXIT_OK, [Artifact("run-manifest", manifest, fld.columns)]


#: sweep --module: its sweep, looked up when called, and the flags it does not read
_SWEEPS = {
    "region": (lambda **kw: sweeps.region_sweep(**kw), ("r_exp", "r_max", "h")),
    "biharmonic": (lambda **kw: sweeps.weak_bound_sweep(**kw), ("r_exp", "alpha")),
    "lane-emden": (lambda **kw: sweeps.system_sweep(**kw), ("alpha",)),
}


def _cmd_sweep(cfg: RunConfig) -> tuple[int, list[Artifact]]:
    """Deterministic parameter sweeps."""
    module = cfg.parameters["module"]
    sweep, unread = _SWEEPS[module]
    _refuse_unread(cfg.parameters, unread, f"sweep --module {module}")
    p = _resolved(cfg)
    kw = {"n_values": _numbers(int, p["n"]), "q_values": _numbers(float, p["q"])}
    if "alpha" in p:   # else region_sweep's own 21 alphas over [0, 1/2]
        kw["alpha_values"] = _numbers(float, p["alpha"])
    if "h" not in unread:
        kw["r_max"], kw["intervals"] = _window(p)
    if "r_exp" not in unread:
        kw["rexp_values"] = _numbers(float, p["r_exp"])
    rows = sweep(**kw)
    # no list is empty, so there is a first row; its keys are the CSV columns
    header = list(rows[0])
    # a row's verdicts are its "_pass" fields; None where the check did not apply
    verdicts = [r for r in rows if any(v is False for k, v in r.items() if k.endswith("_pass"))]
    _print(f"sweep {module}: {len(rows)} cases, {len(verdicts)} failures")
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

_N = (int, EXACT_N, "dimension")
_H_HELP = f"grid spacing; the window has round(r_max/h) intervals, but at least {MIN_INTERVALS}"
_RADIAL = {"n": _N, "q": (float, EXACT_Q, "singular exponent"),
           "r_max": (float, sweeps.DEFAULT_R_MAX, "window end"),
           "h": (float, sweeps.DEFAULT_R_MAX / 4096, _H_HELP)}
_ALPHA = (float, ALPHA_MAX, "gradient coefficient")
_BETA = (float, None, "coefficient of u^(-(q-1)/2) (default beta_max(alpha, q, n), or 0)")
_RTOL = (float, RTOL, f"relative tolerance; the kernel runs at min(rtol, {TOL_PER_H2:g}*h^2)")

#: each subcommand's parameters: dest -> (type, choices, or bool for a flag without a value;
#: default, REQUIRED, or None where the run works one out or needs none; help)
OPTIONS = {
    "region": {"n": _N, "q": (float, REQUIRED, "singular exponent"), "alpha": _ALPHA,
               "beta": _BETA},
    "solve-biharmonic": {**_RADIAL, "u0": (float, REQUIRED, "u(0)"),
                         "z0": (float, REQUIRED, "lap u(0)"), "rtol": _RTOL},
    "verify": {"exact": (bool, False,
                         f"use the closed-form n={EXACT_N}, q={EXACT_Q:g} reference solution"),
               "u0": (float, None, "u(0) of the shot when not --exact"),
               "z0": (float, None, "lap u(0) of the shot when not --exact"), **_RADIAL,
               "check": ((*_CHECKS, "all"), "all", "which inequality to verify; without --h, "
                         + ", ".join(name for name, spec in _CHECKS.items() if spec[2])
                         + f" and all run on a grid {FINE_GRID} times finer"),
               "alpha": _ALPHA, "beta": _BETA,
               "gamma": (float, None, "weight exponent of weighted (default gamma_star/2)")},
    "solve-system": {**_RADIAL, "r_exp": (float, 1.0, "coupling exponent"),
                     "u0": (float, REQUIRED, "u(0)"), "v0": (float, REQUIRED, "v(0)"),
                     "rtol": _RTOL},
    "simulate-parabolic": {
        "p_exp": (float, REQUIRED, "exponent p of v_t - lap v = u^p"),
        "r_exp": (float, REQUIRED, "exponent r of u_t - lap u = v^r"),
        "geometry": (("periodic", "radial"), "periodic", "periodic box or radial ball"),
        "nodes": (int, parabolic.NODES, "spatial nodes"),
        "length": (float, parabolic.PeriodicBox.length, "box length"),
        "radius": (float, parabolic.RadialBall.radius, "ball radius"),
        "n": (int, parabolic.RadialBall.n, "dimension"),
        "u0": (float, 1.0, "initial level of u"), "v0": (float, 1.2, "initial level of v"),
        "perturb": (float, 0.0, "amplitude of a one-mode spatial perturbation"),
        "t_final": (float, 1.0, "simulated time"),
        "snapshots": (int, parabolic.SNAPSHOTS, "snapshots after the one at t = 0"),
        "blowup_factor": (float, parabolic.BLOWUP_FACTOR,
                          "stop once max(u, v) passes this factor times its initial scale")},
    "sweep": {"module": (tuple(_SWEEPS), REQUIRED, "which sweep"),
              "n": (str, _listed(sweeps.N_VALUES), "comma list of n"),
              "q": (str, _listed(sweeps.Q_VALUES), "comma list of q"),
              "r_exp": (str, _listed(sweeps.REXP_VALUES),
                        "comma list of exponents r (lane-emden)"),
              "alpha": (str, None,
                        f"comma list of alphas (region; default 21 over [0, {ALPHA_MAX}])"),
              "r_max": (float, sweeps.DEFAULT_R_MAX, "window end"),
              "h": (float, sweeps.DEFAULT_R_MAX / sweeps.DEFAULT_INTERVALS, _H_HELP)},
}
#: the flags of every subcommand that are RunConfig fields, not parameters
_RUN_OPTIONS = {"out": (str, None, "output directory for artifacts"),
                "format": (str, "json", "comma-separated artifact formats: json,csv"),
                "config": (str, None, "JSON config file; flags override it")}
_TOL = {"tol": (float, None, "override the pass tolerance of the verification reports")}
#: second spellings of a flag
_ALIASES = {("sweep", "r_exp"): ("--r",)}


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
        text = args.get("format", _RUN_OPTIONS["format"][1])
        formats = [f.strip() for f in text.split(",") if f.strip()]
        if not formats or not set(formats) <= {"json", "csv"}:
            raise UsageError(f"formats must be a comma list of json and csv, got {text!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    options = OPTIONS[args["command"]]
    return run(RunConfig(command=args["command"],
                         parameters={k: v for k, v in args.items() if k in options},
                         out=args.get("out"), formats=formats, tol=args.get("tol")))


if __name__ == "__main__":
    sys.exit(main())
