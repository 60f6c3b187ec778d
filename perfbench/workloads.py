"""Seeded workloads: inputs, timed cases and output checks.

Each workload is built from a seed alone; the package only ever receives the
generated values.  ``cases()`` yields ``(name, thunk)`` pairs that the runner
times one by one, and ``check(name, output)`` turns one case's output into
``(attempted, failures)``.  A failure is a ``Failure``; its ``known`` field
names one of the package defects listed in ``KNOWN_DEFECTS`` when, and
only when, the failure matches that defect's signature.  Known defects count
in ``failed`` like any other failure; they only keep ``correct`` true.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

#: package defects that the benchmark keeps visible
KNOWN_DEFECTS = {
    "heat-early-time": "verify_heat_diff_inequality fails within the first "
                       "4 snapshot intervals at 512 nodes",
    "identity-near-axis": "laplacian_identity_defect exceeds its tolerance "
                          "within 8h of the axis on the 20/32768 grid",
    "csv-numpy-repr": "write_csv writes NumPy scalars as 'np.float64(x)' "
                      "under NumPy 2, so profile CSVs do not parse as numbers",
}

#: fine grid that the auxiliary-function checks use by default
H_FINE = 20.0 / 32768
R_MAX = 20.0
#: closed-form reference solution u = c sqrt(1 + r^2) of lap^2 u = -u^-7, n = 3
EXACT_AMPLITUDE = 15.0 ** -0.125
#: pointwise error bound of the exact-data shot against the closed form
EXACT_TOL = 1e-9
_NUMPY_REPR = re.compile(r"np\.float64\((.*)\)")


@dataclass(frozen=True)
class Failure:
    case: str
    message: str
    known: str | None = None

    def line(self) -> str:
        tag = f" [known defect: {self.known}]" if self.known else ""
        return f"failed case {self.case}: {self.message}{tag}"


def _weak_coefficient(q: float) -> float:
    """sqrt(2/(q-1)), computed here so that inputs never follow package changes."""
    return math.sqrt(2.0 / (q - 1.0))


class Sweep:
    """Coarse shooting sweeps at N = 1024 over seeded (n, q, rexp) tables.

    Chosen because the radial kernel takes almost all of the time here: many
    short shots, a third of which stop early as touched-zero.  No artifacts,
    nothing parabolic.
    """

    def __init__(self, seed: int, workdir: Path):
        from biharm_lab import sweeps
        self.sweeps = sweeps
        rng = random.Random(seed)
        self.n_values = tuple(sorted(rng.sample(range(3, 7), 3)))
        # one q per stratum and one rexp per stratum keep the cost per table
        # close across seeds while every value is drawn
        self.q_values = tuple(rng.uniform(lo, hi)
                              for lo, hi in ((1.5, 2.5), (2.5, 4.0), (4.0, 6.0), (6.0, 8.0)))
        self.rexp_values = tuple(rng.uniform(lo, hi)
                                 for lo, hi in ((0.4, 0.7), (0.8, 1.3), (1.6, 2.4)))
        self.region_n = tuple(range(3, 9))
        self.region_q = tuple(sorted(rng.uniform(1.25, 10.0) for _ in range(36)))
        self.region_alpha = tuple(sorted(rng.uniform(0.0, 0.5) for _ in range(21)))

    def cases(self):
        s = self.sweeps
        yield "system_sweep", lambda: s.system_sweep(
            n_values=self.n_values, q_values=self.q_values, rexp_values=self.rexp_values)
        yield "weak_bound_sweep", lambda: s.weak_bound_sweep(
            n_values=self.n_values, q_values=self.q_values)
        yield "region_sweep", lambda: s.region_sweep(
            n_values=self.region_n, q_values=self.region_q, alpha_values=self.region_alpha)

    def check(self, name: str, rows):
        fails = []
        for row in rows:
            label = f"{name}[" + ",".join(
                f"{k}={row[k]:.6g}" for k in ("n", "q", "rexp", "alpha", "u0", "kappa")
                if k in row) + "]"
            fails.extend(Failure(label, msg) for msg in self._row_problems(name, row))
        return len(rows), fails

    @staticmethod
    def _row_problems(name: str, row: dict):
        if name == "region_sweep":
            if row["admissible"]:
                # admissibility forces I1, I2, I3 >= 0 and K1, K2 > 0
                for k in ("I1", "I2", "I3"):
                    if not row[k] >= -1e-12 * max(1.0, abs(row[k])):
                        yield f"admissible but {k} = {row[k]:.3e} < 0"
                for k in ("K1", "K2"):
                    if not row[k] > 0:
                        yield f"admissible but {k} = {row[k]:.3e} <= 0"
                if not (row["gamma_star"] is not None and row["gamma_star"] > 0):
                    yield f"admissible but gamma_star = {row['gamma_star']}"
            return
        if row["classification"] == "integrator-failure":
            yield f"integrator failure at r = {row['r_stop']}"
            return
        if row["classification"] != "positive-on-window":
            return
        if name == "weak_bound_sweep":
            # multiples >= 1.6 of the weak coefficient start inside the
            # entire-solution region, where the gradient-free bound is proved
            if row["kappa"] >= 1.6 and row["weak_pass"] is not True:
                yield f"weak bound verdict {row['weak_pass']} (min margin {row['min_margin']:.3e})"
        else:
            # multiples >= 2 of the comparison level are entire-like, where
            # the comparison is proved; at 1.4 a window can stay positive and
            # still break it.  The concavity step is a scalar inequality.
            if row["kappa"] >= 2.0 and row["comparison_pass"] is not True:
                yield (f"component comparison verdict {row['comparison_pass']} "
                       f"(min margin {row['min_margin']:.3e})")
            if row["concavity_pass"] is not True:
                yield f"concavity step verdict {row['concavity_pass']}"


def _csv_problem(path: Path):
    """Streamed parse of one CSV artifact.

    Returns (problem or None, data rows, whether NumPy scalar reprs such as
    ``np.float64(0.5)`` stood in for floats).
    """
    numpy_repr = False
    with path.open() as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = 0
        for line in fh:
            fields = line.rstrip("\n").split(",")
            rows += 1
            if len(fields) != len(header):
                return f"{path.name} row {rows}: {len(fields)} fields, header has {len(header)}", rows, numpy_repr
            for f in fields:
                m = _NUMPY_REPR.fullmatch(f)
                if m:
                    numpy_repr, f = True, m.group(1)
                try:
                    ok = not f or math.isfinite(float(f))
                except ValueError:
                    ok = False
                if not ok:
                    return f"{path.name} row {rows}: unparseable value {f!r}", rows, numpy_repr
    return None, rows, numpy_repr


def _digests(directory: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


@dataclass
class CliOutput:
    exit_code: int | None
    stdout: str
    error: str | None
    outdir: Path


class FineCli:
    """In-process CLI calls on the h = 20/32768 grid with json,csv artifacts.

    Chosen because its shots are few, long and single-lane, with the step
    count forced by node clamping, and because it writes about 9 MB of
    artifacts per call, so the serializer shows next to the kernel.
    """

    def __init__(self, seed: int, workdir: Path):
        from biharm_lab import cli
        self.cli = cli
        self.workdir = workdir
        rng = random.Random(seed)
        h = repr(H_FINE)
        self.invocations = {"verify-exact": ["verify", "--exact"]}
        # one shot per dimension.  The identity check fails near the axis on
        # steep profiles (small u0, large q): by 1.4x its tolerance or more
        # in these n = 3 and n = 4 boxes over seeds 1..80, while the flatter
        # n = 5 box stays below 0.6x of it, so the verdicts, and the failure
        # count, are the same for every seed
        boxes = {3: ((7.0, 9.0), (0.5, 0.65)), 4: ((6.0, 7.0), (0.5, 0.56)),
                 5: ((3.0, 5.0), (0.7, 0.9))}
        for n, ((q_lo, q_hi), (u_lo, u_hi)) in boxes.items():
            q = rng.uniform(q_lo, q_hi)
            u0 = rng.uniform(u_lo, u_hi)
            kappa = rng.uniform(1.6, 3.0)
            z0 = kappa * _weak_coefficient(q) * u0 ** (-(q - 1.0) / 2.0)
            name = f"verify-shot-n{n}"
            self.invocations[name] = ["verify", "--n", str(n), "--q", repr(q),
                                      "--u0", repr(u0), "--z0", repr(z0)]
        # scaling image u_lam(r) = lam^(1/2) u(r/lam) of the closed form
        self.lam = lam = rng.uniform(0.8, 1.25)
        c = EXACT_AMPLITUDE
        self.invocations["solve-biharmonic"] = [
            "solve-biharmonic", "--n", "3", "--q", "7", "--u0", repr(c * lam**0.5),
            "--z0", repr(3.0 * c * lam**-1.5), "--h", h]
        n = rng.choice((3, 4, 5))
        q = rng.uniform(3.0, 8.0)
        rexp = rng.uniform(0.5, 2.0)
        u0 = rng.uniform(0.7, 1.5)
        # entire-like start (see Sweep), where the comparison is proved
        kappa = rng.uniform(2.0, 3.0)
        sigma = (1.0 - q) / (rexp + 1.0)
        ell = (-sigma) ** (-1.0 / (rexp + 1.0))
        self.invocations["solve-system"] = [
            "solve-system", "--n", str(n), "--q", repr(q), "--r-exp", repr(rexp),
            "--u0", repr(u0), "--v0", repr(kappa * ell * u0**sigma), "--h", h]
        self._first = {}
        self.residual_max = 0.0
        self.exact_max_err = 0.0

    def _call(self, argv, outdir: Path) -> CliOutput:
        buf, err = io.StringIO(), io.StringIO()
        code, exc = None, None
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                code = self.cli.main(argv + ["--format", "json,csv", "--out", str(outdir)])
        except SystemExit as e:   # argparse refusals exit through SystemExit
            code = e.code
        except Exception as e:    # a traceback is outside the exit-code contract
            exc = f"{type(e).__name__}: {e}"
        return CliOutput(code, buf.getvalue(), exc, outdir)

    def cases(self):
        for name, argv in self.invocations.items():
            outdir = self.workdir / name
            if outdir.exists():
                shutil.rmtree(outdir)
            yield name, (lambda argv=argv, outdir=outdir: self._call(argv, outdir))

    def check(self, name: str, out: CliOutput):
        fails = [Failure(name, msg, known) for msg, known in self._problems(name, out)]
        return 1, fails

    def _problems(self, name: str, out: CliOutput):
        if out.error is not None:
            yield f"raised {out.error}", None
            return
        if out.exit_code not in (0, 3):
            yield f"exit code {out.exit_code}", None
            return
        digests = _digests(out.outdir)
        first = self._first.get(name)
        if first is not None:
            # later passes write into the same directory: outputs must repeat,
            # and then so do the first pass's verdicts on them
            if (digests, out.exit_code) != first[:2]:
                yield "artifacts or exit code differ from the first pass", None
            else:
                yield from first[2]
            return
        try:
            problems = list(self._first_pass_problems(name, out))
        except (OSError, ValueError, KeyError, TypeError) as e:
            problems = [(f"unreadable artifacts: {type(e).__name__}: {e}", None)]
        self._first[name] = (digests, out.exit_code, problems)
        yield from problems

    def _first_pass_problems(self, name: str, out: CliOutput):
        d = out.outdir
        json.loads(out.stdout)   # the printed summary is JSON too
        cfg = json.loads((d / "run-config.json").read_text())
        if cfg["command"] != self.invocations[name][0]:
            yield f"run-config command {cfg['command']!r}", None
        if name.startswith("verify"):
            reports = json.loads((d / "reports.json").read_text())
            expected = {"run-config.json", "reports.json"} | {
                f"margin-{rep['inequality']}.csv" for rep in reports}
            csv_files = [f for f in expected if f.endswith(".csv")]
            verdicts = {rep["inequality"]: rep for rep in reports}
            if len(verdicts) != 8:
                yield f"{len(verdicts)} reports, expected 8", None
            # the closed form is an entire solution, so every bound holds on
            # it; on shots, the differential inequalities and the identity are
            # local facts and the weak bound holds for kappa >= 1.6
            must_pass = set(verdicts) if name == "verify-exact" else {
                "aux-differential-inequality", "power-field-laplacian-identity",
                "weighted-aux-differential-inequality", "laplacian-lower-bound-weak"}
            for ineq in sorted(must_pass):
                rep = verdicts.get(ineq)
                if rep is None:
                    yield f"missing report {ineq}", None
                elif rep["pass"] is not True:
                    known = ("identity-near-axis"
                             if ineq == "power-field-laplacian-identity"
                             and rep["argmin_r"] <= 8.5 * H_FINE else None)
                    yield (f"{ineq} verdict {rep['pass']} (margin {rep['min_margin']:.3e}, "
                           f"tol*scale {rep['tol'] * rep['scale']:.3e}, r = {rep['argmin_r']:.6g})",
                           known)
            want = 3 if any(rep["pass"] is False for rep in reports) else 0
        elif name == "solve-biharmonic":
            expected = {"run-config.json", "profile.json", "profile.csv"}
            csv_files = ["profile.csv"]
            prof = json.loads((d / "profile.json").read_text())
            self.residual_max = prof["residual_max"]
            lam, h = self.lam, prof["grid"]["h"]
            err = max(abs(u - EXACT_AMPLITUDE * lam**0.5 * math.sqrt(1.0 + (i * h / lam) ** 2))
                      for i, u in enumerate(prof["u"]))
            self.exact_max_err = err
            if prof["grid"]["N"] != round(R_MAX / H_FINE):
                yield f"profile has N = {prof['grid']['N']}", None
            if not err <= EXACT_TOL:
                yield f"max |u - closed form| = {err:.3e} > {EXACT_TOL}", None
            want = 0
        else:
            expected = {"run-config.json", "system-profile.json", "system-profile.csv",
                        "system-reports.json"}
            csv_files = ["system-profile.csv"]
            rep = json.loads((d / "system-reports.json").read_text())
            json.loads((d / "system-profile.json").read_text())
            if rep["classification"]["kind"] != "positive-on-window":
                yield f"classification {rep['classification']}", None
            for r in rep["reports"]:
                if r["pass"] is not True:
                    yield f"{r['inequality']} verdict {r['pass']}", None
            want = 3 if any(r["pass"] is False for r in rep["reports"]) else 0
        if out.exit_code != want:
            yield f"exit code {out.exit_code}, reports imply {want}", None
        names = {p.name for p in d.iterdir()}
        if names != expected:
            yield f"artifacts {sorted(names ^ expected)} missing or unexpected", None
        for f in sorted(csv_files):
            if f in names:
                problem, rows, numpy_repr = _csv_problem(d / f)
                if numpy_repr:
                    yield f"{f} holds np.float64(...) literals", "csv-numpy-repr"
                if problem:
                    yield problem, None
                elif rows != round(R_MAX / H_FINE) + 1:
                    yield f"{f} has {rows} rows", None

    def determinism_check(self):
        """Run solve-system again into a second directory; require identical bytes.

        A further check on the solve-system case rather than a case of its
        own, so it adds failures but no attempts.
        """
        name = "solve-system"
        twin = self.workdir / f"{name}-twin"
        if twin.exists():
            shutil.rmtree(twin)
        out = self._call(self.invocations[name], twin)
        first = dict(self._first[name][0]) if name in self._first else {}
        second = _digests(twin) if out.error is None else {}
        # run-config.json echoes the output directory, so it must differ
        first.pop("run-config.json", None)
        second.pop("run-config.json", None)
        fails = []
        if out.error is not None or out.exit_code not in (0, 3):
            fails.append(Failure(f"{name}-twin", f"rerun: {out.error or out.exit_code}"))
        elif not first or first != second:
            diff = sorted(k for k in set(first) | set(second) if first.get(k) != second.get(k))
            fails.append(Failure(f"{name}-twin", f"artifacts not byte-identical: {diff}"))
        return fails


class Parabolic:
    """Method-of-lines runs at 512 nodes, alternating periodic and radial.

    Chosen because all of the time is in the split stepper and its verifiers;
    the radial kernel and the serializer stay idle.
    """

    NODES = 512
    SNAPSHOTS = 256
    T_FINAL = 0.3
    P_EXP = 2.0

    def __init__(self, seed: int, workdir: Path):
        import numpy as np
        from biharm_lab import parabolic
        self.pb = parabolic
        rng = random.Random(seed)
        # r sets the growth rate and so the step count: each geometry gets one
        # r from each eighth of [1, 2], in seeded order, to keep the work of a
        # pass close across seeds
        strata = {geometry: rng.sample(range(8), 8) for geometry in ("periodic", "radial")}
        self.runs = []
        for i in range(16):
            radial = i % 2 == 1
            geom = (parabolic.RadialBall(n=3, radius=math.pi, num_intervals=self.NODES)
                    if radial else parabolic.PeriodicBox(num_nodes=self.NODES))
            x = geom.x
            stratum = strata["radial" if radial else "periodic"][i // 2]
            r_exp = 1.0 + (stratum + rng.random()) / 8
            # the first-step heat check fails by a margin that depends on the
            # perturbation's modes, amplitude and r, and flips near its
            # tolerance.  In these boxes a failing margin is 1.7x the
            # tolerance or more and a passing one 0.2x or less, so every pass
            # fails the same 12 of 16 runs whatever the seed (1..40 checked):
            # each radial run (mixed modes, the wall defect) and the periodic
            # runs in the upper half of r (both modes 2, large amplitude); the
            # periodic lower half (both modes 1) passes.
            if radial:
                k_u, k_v = rng.choice(((1, 2), (2, 1)))
                eps_u, eps_v = rng.uniform(0.01, 0.05), rng.uniform(0.01, 0.05)
            elif stratum >= 4:
                k_u = k_v = 2
                eps_u, eps_v = rng.uniform(0.045, 0.05), rng.uniform(0.045, 0.05)
            else:
                k_u = k_v = 1
                eps_u, eps_v = rng.uniform(0.01, 0.05), rng.uniform(0.01, 0.05)
            u0 = rng.uniform(0.9, 1.1)
            # v starts above the comparison level l^(-1/sigma) u^(1/sigma) at
            # every node, so negativity propagation applies
            sigma = (r_exp + 1.0) / (self.P_EXP + 1.0)
            ell = sigma ** (-1.0 / (self.P_EXP + 1.0))
            v0 = rng.uniform(1.05, 1.25) * ((u0 + eps_u) / ell) ** (1.0 / sigma) + eps_v
            # zero-slope cosines respect the radial axis and zero-flux wall
            shape_v = np.cos(k_v * x) if radial else np.sin(k_v * x)
            u_init = u0 + eps_u * np.cos(k_u * x)
            v_init = v0 + eps_v * shape_v
            name = f"{'radial' if radial else 'periodic'}-{i:02d}"
            self.runs.append((name, geom, r_exp, u_init, v_init))

    def _run(self, geom, r_exp, u_init, v_init):
        pb = self.pb
        fld = pb.simulate(geom, self.P_EXP, r_exp, u_init, v_init, self.T_FINAL,
                          num_snapshots=self.SNAPSHOTS)
        return fld, [pb.verify_heat_diff_inequality(fld),
                     pb.verify_component_comparison(fld),
                     pb.verify_sign_propagation(fld),
                     pb.verify_scalar_power_bounds(self.P_EXP, r_exp)]

    def cases(self):
        """One case per periodic run and the radial run after it.

        Radial runs take longer than periodic ones, so the median of single
        runs would fall between the slowest periodic and the fastest radial
        run and follow whichever of them drew extra steps; pairs cost alike.
        """
        for j in range(0, len(self.runs), 2):
            pair = self.runs[j:j + 2]
            yield f"pair-{j // 2}", (
                lambda pair=pair: [(run[0], self._run(*run[1:])) for run in pair])

    def check(self, name: str, out):
        return len(out), [Failure(run, msg, known) for run, result in out
                          for msg, known in self._problems(*result)]

    def _problems(self, fld, reports):
        if fld.blown_up or fld.times.shape[0] != self.SNAPSHOTS + 1:
            yield (f"truncated ({fld.truncation_reason}) with "
                   f"{fld.times.shape[0]} snapshots"), None
            return
        heat, _comparison, sign, scalar = reports
        # the comparison itself is proved for eternal solutions only, so its
        # finite-window verdict is reported by the package but not required
        if heat.passed is not True:
            early = heat.argmin_t is not None and heat.argmin_t <= fld.times[4]
            yield (f"gap-heat-inequality margin {heat.min_margin:.3e} < "
                   f"-{heat.tol * heat.scale:.3e} at r = {heat.argmin_r:.6g}, t = {heat.argmin_t:.6g}",
                   "heat-early-time" if early else None)
        if sign.passed is not True:
            yield f"negativity-propagation verdict {sign.passed}", None
        if scalar.passed is not True:
            yield f"scalar-power-bounds verdict {scalar.passed}", None


WORKLOADS = {"sweep": Sweep, "fine_cli": FineCli, "parabolic": Parabolic}
