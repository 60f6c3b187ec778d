"""Property test of the CLI exit-code contract over drawn argument vectors.

Every argv either runs or is refused with its documented code: 0 success,
1 usage, 2 precondition, 3 verification failure, 4 integrator failure.
Nothing but argparse's SystemExit leaves ``cli.main``, no traceback reaches
stderr, a non-finite number is always refused (1 or 2), and a flag the run
does not read, or an empty sweep list, is always a usage error (1).  A
config holding an argv's flags runs as the argv does, and the run-config.json
of a run replays it.

Finite draws keep the work small: at most 4096 intervals (r_max <= 20 with
h >= 20/4096, or a spacing fine enough to be refused before allocation),
256 nodes, 16 snapshots and t_final <= 0.05.  Every float flag also draws,
one time in six, a value at an end of the float range (1e300 or 1e-300).
"""
import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from biharm_lab import cli

NON_FINITE = ("nan", "inf", "-inf")
#: drawn for every float flag besides its own finite values
BAD = NON_FINITE + ("0", "-1", "-0.5")
#: integer flags also see text argparse refuses
BAD_INT = NON_FINITE + ("0", "-1", "2.5", "x")
#: finite and in the domain of every float flag, but at the ends of the float range
EXTREME = ("1e300", "1e-300")


def _values(bad, finite):
    # a flag draws one of its n finite values with weight n/(n+1), so that
    # argvs without a bad value, which run, are common
    return st.sampled_from(finite * len(bad) + bad)


def rarely(values, other=st.none()):
    """``values`` one draw in six, else ``other``, so that argvs which run stay common."""
    return st.sampled_from(range(6)).flatmap(lambda i: values if i == 0 else other)


def floats(*finite):
    return rarely(st.sampled_from(EXTREME), _values(BAD, finite))


def ints(*finite):
    return _values(BAD_INT, finite)


R_MAX = floats("2", "5", "20")
H = floats("0.05", "0.5", str(20 / 4096), "1e-300", "5e-324")
Q = floats("1", "1.5", "2", "3", "7")
N = ints("1", "2", "3", "4", "5")
RTOL = floats("1e-6", "1e-9")


def flags(**options):
    """argv fragment drawing each option (or leaving it out)."""
    parts = [st.one_of(st.none(), value).map(
        lambda v, name=name: [] if v is None else [f"--{name.replace('_', '-')}={v}"])
        for name, value in options.items()]
    return st.tuples(*parts).map(lambda lists: [tok for part in lists for tok in part])


def command(name, required=(), **options):
    return st.tuples(*required, flags(**options)).map(
        lambda t: [name] + [tok for part in t for tok in part])


def required(flag, values):
    return values.map(lambda v: [f"--{flag.replace('_', '-')}={v}"])


REGION = command("region", (required("q", Q),), n=N,
                 alpha=floats("0.25", "0.5", "0.6"), beta=floats("0.1", "0.6"))
SOLVE_BIHARMONIC = command(
    "solve-biharmonic", (required("u0", floats("0.5", "1", "2")),
                         required("z0", floats("0.5", "2"))),
    n=N, q=Q, r_max=R_MAX, h=H, rtol=RTOL)
SOLVE_SYSTEM = command(
    "solve-system", (required("u0", floats("0.7", "1")), required("v0", floats("0.7", "2")),
                     required("h", H)),
    n=N, q=Q, r_exp=floats("0.5", "1", "2"), r_max=R_MAX, rtol=RTOL, tol=floats("0.1"))
# --exact also draws the shooting starts it does not read, and each check the
# coefficients it does not read
VERIFY_START = st.one_of(
    st.tuples(st.just(["--exact"]), flags(u0=rarely(floats("0.8")), z0=rarely(floats("2")))).map(
        lambda t: [tok for part in t for tok in part]),
    st.tuples(required("u0", floats("0.8", "1")), required("z0", floats("2", "3")),
              flags(n=N, q=Q)).map(lambda t: [tok for part in t for tok in part]))
ALPHA, BETA, GAMMA = floats("0.25", "0.5"), floats("0.1"), floats("0.1", "0.9")
#: the checks that read no coefficient, and those that read alpha and beta only
NO_COEFFICIENTS = ("sharp", "weak", "gradient", "curvature")
NO_GAMMA = ("pointwise", "aux-ineq", "identity")
VERIFY = st.one_of(
    st.tuples(VERIFY_START, st.sampled_from(NO_COEFFICIENTS), required("h", H),
              flags(r_max=R_MAX, tol=floats("0.1"), alpha=rarely(ALPHA), beta=rarely(BETA),
                    gamma=rarely(GAMMA))),
    st.tuples(VERIFY_START, st.sampled_from(NO_GAMMA), required("h", H),
              flags(r_max=R_MAX, alpha=ALPHA, beta=BETA, gamma=rarely(GAMMA))),
    st.tuples(VERIFY_START, st.just("weighted"), required("h", H),
              flags(r_max=R_MAX, alpha=ALPHA, beta=BETA, gamma=GAMMA))
).map(lambda t: ["verify"] + t[0] + [f"--check={t[1]}"] + t[2] + t[3])


def unread_verify_flags(argv):
    check = next(tok.split("=", 1)[1] for tok in argv if tok.startswith("--check="))
    unread = ("--u0", "--z0") if "--exact" in argv else ()
    if check in NO_COEFFICIENTS:
        return unread + ("--alpha", "--beta", "--gamma")
    return unread + (("--gamma",) if check in NO_GAMMA else ())


EXPONENT = floats("0.5", "1", "1.5", "2")
# sizes and t_final are always drawn: their defaults (512 nodes, 64
# snapshots, t_final = 1) are far above the caps
PARABOLIC_SIZES = (required("p_exp", EXPONENT), required("r_exp", EXPONENT),
                   required("nodes", ints("3", "16", "64", "256")),
                   required("snapshots", ints("1", "4", "16")),
                   required("t_final", floats("0.01", "0.05")))
PARABOLIC_COMMON = dict(u0=floats("0.5", "1"), v0=floats("1.2", "2"),
                        perturb=floats("0.02"), blowup_factor=floats("1", "10"))
# each geometry also draws the extent and dimension flags it does not read
SIMULATE = st.one_of(
    command("simulate-parabolic", PARABOLIC_SIZES, length=floats("1", "6.3"),
            radius=rarely(floats("3.1")), n=rarely(N), **PARABOLIC_COMMON),
    command("simulate-parabolic", PARABOLIC_SIZES + (st.just(["--geometry=radial"]),),
            radius=floats("1", "3.1"), n=N, length=rarely(floats("6.3")), **PARABOLIC_COMMON))


def unread_simulate_flags(argv):
    return ("--length",) if "--geometry=radial" in argv else ("--radius", "--n")


def number_lists(values):
    # the empty list is drawn too; it sweeps nothing, so it is refused
    return rarely(st.just(""), st.lists(values, min_size=1, max_size=3).map(",".join))


SWEEP_REGION = command("sweep", (st.just(["--module=region"]),),
                       n=number_lists(ints("3", "4")), q=number_lists(floats("1", "2.5", "7")),
                       alpha=number_lists(floats("0.25", "0.5")), h=rarely(floats("0.5")))


def run_main(argv):
    """(exit code, stdout, stderr) of one run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse's refusal is the one allowed exit
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_contract(argv, unread=()):
    """``unread`` names the drawn flags the run does not read."""
    code, _, err = run_main(argv)
    assert code in (0, 1, 2, 3, 4), (argv, code)
    assert "Traceback" not in err, (argv, err)
    if any(tok.split("=", 1)[-1].split(",").count(bad) for tok in argv for bad in NON_FINITE):
        assert code in (1, 2), (argv, code)
    if any(tok.split("=", 1)[0] in unread or tok.endswith("=") for tok in argv):
        assert code == 1, (argv, code)


CONTRACT = settings(derandomize=True, deadline=None, max_examples=150,
                    suppress_health_check=[HealthCheck.too_slow])


@CONTRACT
@given(REGION)
def test_region_contract(argv):
    check_contract(argv)


@CONTRACT
@given(SOLVE_BIHARMONIC)
def test_solve_biharmonic_contract(argv):
    check_contract(argv)


@CONTRACT
@given(SOLVE_SYSTEM)
def test_solve_system_contract(argv):
    check_contract(argv)


@CONTRACT
@given(VERIFY)
def test_verify_contract(argv):
    check_contract(argv, unread_verify_flags(argv))


@settings(CONTRACT, max_examples=300)   # most draws carry some bad value
@given(SIMULATE)
def test_simulate_parabolic_contract(argv):
    check_contract(argv, unread_simulate_flags(argv))


@CONTRACT
@given(SWEEP_REGION)
def test_sweep_region_contract(argv):
    check_contract(argv, ("--h",))


ANY_COMMAND = st.one_of(REGION, SOLVE_BIHARMONIC, SOLVE_SYSTEM, VERIFY, SIMULATE, SWEEP_REGION)
#: option string -> action of each flag, per subcommand
ACTIONS = {name: {a.option_strings[0]: a for a in sub._actions if a.option_strings}
           for name, sub in cli._build_parser().commands.items()}
#: each property runs every example twice; this keeps both to a few seconds
TWO_RUNS = settings(CONTRACT, max_examples=100)


def as_config(argv, out):
    """The config standing for a drawn argv's flags, writing to ``out``.

    A typed flag's text is written as the number it parses to; an example
    whose text does not parse has no config form and is rejected.
    """
    config = {"command": argv[0], "parameters": {}, "out": out, "formats": ["json", "csv"]}
    for tok in argv[1:]:
        flag, _, text = tok.partition("=")
        action = ACTIONS[argv[0]][flag]
        try:
            value = True if action.nargs == 0 else (action.type or str)(text)
        except ValueError:
            reject()
        if action.dest == "tol":
            config["tol"] = value
        else:
            config["parameters"][action.dest] = value
    return config


def artifacts(outdir):
    """name -> bytes of each artifact a run wrote, run-config.json aside."""
    return {path.name: path.read_bytes() for path in Path(outdir).glob("*")
            if path.name != "run-config.json"}


@TWO_RUNS
@given(ANY_COMMAND)
def test_config_runs_as_its_flags(argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "cfg.json")
        path.write_text(json.dumps(as_config(argv, str(Path(tmp, "config")))))
        flags = run_main(argv + ["--format=json,csv", f"--out={Path(tmp, 'flags')}"])
        assert run_main([argv[0], "--config", str(path)])[:2] == flags[:2], argv
        assert artifacts(Path(tmp, "config")) == artifacts(Path(tmp, "flags")), argv


@TWO_RUNS
@given(ANY_COMMAND)
def test_saved_config_replays(argv):
    with tempfile.TemporaryDirectory() as tmp:
        first, again = Path(tmp, "first"), Path(tmp, "again")
        code, out, _ = run_main(argv + ["--format=json,csv", f"--out={first}"])
        if code in (0, 3):
            replayed = run_main([argv[0], "--config", str(first / "run-config.json"),
                                 f"--out={again}"])
            assert replayed[:2] == (code, out), argv
            assert artifacts(again) == artifacts(first), argv
