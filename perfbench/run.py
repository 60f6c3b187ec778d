#!/usr/bin/env python3
"""Benchmark of biharm-lab on seeded workloads.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

One client runs passes over the workload's cases in a closed loop, each case
starting when the previous one has returned.  A new pass starts while less
than --seconds minus half a mean pass have elapsed, so a run measures about
--seconds and always at least one whole pass.  The package is imported from the
``src`` directory next to this one and runs with one sweep worker.

--trace 0 reports the end-to-end metrics: setup_s (median over fresh
processes that import and generate the inputs), wall_s (median pass),
case_p50_ms (median over the cases of each case's median), peak_rss_mb (this process's ru_maxrss).  The
times are corrected for the CPU speed of the moment (speed.py); the raw
medians are printed next to them.
--trace 1 wraps the package's layer boundaries (see tracing.py) and reports
per-layer metrics per pass instead.  --workload all runs each workload in its
own process and prefixes the metric names with the workload.

Every case's output is checked (workloads.py); failed cases are named on
stdout and counted in ``failed``.  ``correct`` is false when a failure is not
one of the known defects in workloads.KNOWN_DEFECTS.  The last stdout line is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench-work"
#: fresh processes timed for setup_s
SETUP_SAMPLES = 7
#: the sweeps run single-process; the variable would start a worker pool
WORKERS_VAR = "BIHARM_LAB_WORKERS"


def import_package():
    """Import biharm_lab from this checkout's src, never an installed copy."""
    if not (SRC / "biharm_lab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'biharm_lab'}")
    sys.path.insert(0, str(SRC))
    import biharm_lab
    if Path(biharm_lab.__file__).resolve().parent != (SRC / "biharm_lab").resolve():
        sys.exit(f"perfbench: biharm_lab imported from {biharm_lab.__file__}, not {SRC}")
    return biharm_lab


def setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Time fresh processes from spawn until imports and inputs are done.

    Returns raw and speed-corrected seconds; each probe times the speed
    reference right after its set-up and reports it on a second line.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--seconds", "1"]
    raw, corrected = [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            rest = proc.stdout.read().split()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0 or len(rest) != 1:
            sys.exit(f"perfbench: setup probe failed (exit {code})")
        raw.append(dt)
        corrected.append(dt * speed.NOMINAL_S / float(rest[0]))
    return raw, corrected


def _guarded(thunk):
    try:
        return thunk(), None
    except Exception as e:   # a raising case is a failed case, not a crash
        return None, f"{type(e).__name__}: {e}"


def measure(wl, seconds: float, clock):
    """Closed-loop passes timed by ``clock``.

    Returns ([raw, corrected] pass seconds, {case: [raw, corrected] seconds},
    attempted, failures).
    """
    timed, failures = [], []    # timed: (pass, case, raw seconds, span)
    attempted = n_passes = 0
    start = time.perf_counter()
    while True:
        for name, thunk in wl.cases():
            (out, error), raw, span = clock.time(lambda: _guarded(thunk))
            timed.append((n_passes, name, raw, span))
            if error is not None:
                attempted += 1
                failures.append(workloads.Failure(name, f"raised {error}"))
            else:
                n, fails = wl.check(name, out)
                attempted += n
                failures.extend(fails)
        n_passes += 1
        mean_pass = (time.perf_counter() - start) / n_passes
        if time.perf_counter() - start + mean_pass / 2 >= seconds:
            break
    passes, cases = ([0.0] * n_passes, [0.0] * n_passes), {}
    for i, name, raw, span in timed:
        corrected = clock.corrected(raw, span)
        passes[0][i] += raw
        passes[1][i] += corrected
        times = cases.setdefault(name, ([], []))
        times[0].append(raw)
        times[1].append(corrected)
    return passes, cases, attempted, failures


def run_record(biharm_lab, args, workers) -> dict:
    import numpy
    import scipy
    return {"backend": biharm_lab.BACKEND, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace,
            WORKERS_VAR: workers, "BIHARM_LAB_BACKEND": os.environ.get("BIHARM_LAB_BACKEND")}


def run_one(args) -> dict:
    workers = os.environ.pop(WORKERS_VAR, None)
    biharm_lab = import_package()
    record = run_record(biharm_lab, args, workers)
    # one directory per process, so runs side by side do not clear each other's
    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.install(tracing.Tracer())
        try:
            with speed.RawClock() if args.trace else speed.SpeedClock() as clock:
                passes, cases, attempted, failures = measure(wl, args.seconds, clock)
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if hasattr(wl, "determinism_check"):
            failures.extend(wl.determinism_check())
        if args.trace:
            wall = sum(passes[0]) / len(passes[0])
            extra = {k: getattr(wl, k) for k in ("exact_max_err", "residual_max")
                     if hasattr(wl, k)}
            metrics = tracing.layer_metrics(tracer, len(passes[0]), wall, extra)
            notes = {}
        else:
            setup = setup_seconds(args.workload, args.seed)
            med = statistics.median
            # the median case, each case taken at its median over the passes
            case_p50 = [1e3 * med(med(t[i]) for t in cases.values()) for i in (0, 1)]
            metrics = {
                "setup_s": (med(setup[1]), "s"),
                "wall_s": (med(passes[1]), "s"),
                "case_p50_ms": (case_p50[1], "ms"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
            notes = {"setup_s": f"median of {len(setup[0])} fresh processes; "
                                f"raw {med(setup[0]):.4g} s",
                     "wall_s": f"median of {len(passes[0])} passes; raw {med(passes[0]):.4g} s",
                     "case_p50_ms": f"median of {len(cases)} cases, each the median of "
                                    f"{len(passes[0])} passes; raw {case_p50[0]:.4g} ms"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.rmdir()

    record["pass_s"] = [round(t, 4) for t in passes[0]]
    record["pass_corrected_s"] = [round(t, 4) for t in passes[1]]
    print("run-record " + json.dumps(record, sort_keys=True))
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {args.workload}.{name} = {value:.6g} {unit}{note}")
    if args.trace:
        wall = metrics["trace.wall_s"][0]
        for name, (value, unit) in metrics.items():
            if name.endswith(".self_s") or name.endswith(".total_s"):
                print(f"share {args.workload}.{name} = {value / wall:.3f} of traced wall")
        print(f"trace accounting {args.workload}: layer self times leave "
              f"{metrics['trace.unattributed_frac'][0]:.2e} of the traced wall unattributed; "
              f"wrapper overhead estimate {metrics['trace.overhead_frac'][0]:.2e}")
    for line, count in Counter(f.line() for f in failures).items():
        print(line if count == 1 else f"{line} (x{count})")
    for key in sorted({f.known for f in failures if f.known}):
        print(f"known defect {key}: {workloads.KNOWN_DEFECTS[key]}")
    unexpected = [f for f in failures if f.known is None]
    print(f"fail_frac {args.workload} = {len(failures)}/{attempted} = "
          f"{len(failures) / attempted:.4f} (failed/attempted cases, "
          f"{len(unexpected)} outside the known defects)")
    return {"correct": not unexpected, "attempted": attempted, "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(args) -> dict:
    """Each workload in its own process, so memory and imports stay separate."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        import_package()
        workloads.WORKLOADS[args.workload](args.seed, WORKDIR)
        print("ready", flush=True)
        print(speed.reference_s(repeats=11))
        return 0
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
