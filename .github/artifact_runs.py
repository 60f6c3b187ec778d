"""Check that every run of artifact-runs.txt writes the same bytes each way it runs.

    python .github/artifact_runs.py [PARENT_TREE]

Each run (a line of artifact-runs.txt, numbered from 1) runs at this tree.
It must exit 0 or 3 and write nothing to stderr.  It must write the same
stdout, exit code and artifacts (every file but run-config.json):
- pinned to one CPU of the affinity mask, where the sweeps and the artifact
  writer otherwise fork one process per CPU;
- replayed from its own run-config.json into a fresh --out;
- given PARENT_TREE (a checkout of another commit, such as
  `git worktree add /tmp/parent HEAD~1`), run from that tree's src.  A
  change that moves artifacts by design lists the paths it moves (`3/profile.csv`,
  `3.stdout`, `3.code`) in artifact-changes.txt, and they are not compared.
  A listed path must still differ: one that is written by neither side, or
  is byte-identical at PARENT_TREE, fails the check, so the list cannot go
  stale.
In each run that writes both, the pointwise and sharp margin tables must be
identical: at the default coefficients they are one margin.

Exits 0 when every check passes; else 1, keeping the outputs for inspection.
Needs only the standard library, `diff`, and Linux's sched_setaffinity.
"""
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
EQUAL_MARGINS = ("margin-laplacian-lower-bound.csv", "margin-laplacian-lower-bound-max-alpha.csv")


def run(tree: Path, args: list[str], out: Path, cpus=None) -> tuple[int, bytes]:
    """Run biharm-lab from ``tree``'s src into ``out``, next to ``out``.stdout and .code."""
    proc = subprocess.run(
        [sys.executable, "-m", "biharm_lab.cli", *args, "--out", str(out)],
        cwd=out.parent, env={**os.environ, "PYTHONPATH": str(tree / "src")},
        stdin=subprocess.DEVNULL, capture_output=True,
        preexec_fn=None if cpus is None else lambda: os.sched_setaffinity(0, cpus))
    out.with_suffix(".stdout").write_bytes(proc.stdout)
    out.with_suffix(".code").write_text(f"{proc.returncode}\n")
    return proc.returncode, proc.stderr


def differ(a: Path, b: Path, quiet: bool = False) -> bool:
    """Whether two files or trees differ; diff names each difference unless ``quiet``."""
    return subprocess.run(["diff", "-rq", "-x", "run-config.json", a, b],
                          stdout=subprocess.DEVNULL if quiet else None).returncode != 0


def main(parent: Path | None) -> int:
    lines = (HERE / "artifact-runs.txt").read_text().splitlines()
    runs = [line.split() for line in lines if line.strip() and not line.startswith("#")]
    one_cpu = {min(os.sched_getaffinity(0))}
    print(f"{len(runs)} runs; CPUs in the affinity mask: {len(os.sched_getaffinity(0))}", flush=True)
    work = Path(tempfile.mkdtemp(prefix="artifact-runs-"))
    for side in ("all", "one", "replay", "parent"):
        (work / side).mkdir()
    failed = False
    for k, args in enumerate(runs, 1):
        first = work / "all" / str(k)
        code, err = run(HERE.parent, args, first)
        errs = [err, run(HERE.parent, args, work / "one" / str(k), one_cpu)[1],
                run(HERE.parent, [args[0], "--config", str(first / "run-config.json")],
                    work / "replay" / str(k))[1]]
        if parent:
            run(parent, args, work / "parent" / str(k))
        if code not in (0, 3) or any(errs):
            print(f"run {k} ({' '.join(args)}) exited {code}; its stderr, pinned and replayed:",
                  *(err.decode(errors="replace") for err in errs), sep="\n", flush=True)
            failed = True
        margins = [first / name for name in EQUAL_MARGINS]
        failed |= all(m.exists() for m in margins) and differ(*margins)
    failed |= differ(work / "all", work / "one") | differ(work / "all", work / "replay")
    if parent:
        for path in (HERE / "artifact-changes.txt").read_text().split():
            sides = [work / side / path for side in ("all", "parent")]
            if not any(target.exists() for target in sides):
                print(f"artifact-changes.txt lists {path}, which neither side writes", flush=True)
                failed = True
            elif all(target.exists() for target in sides) and not differ(*sides, quiet=True):
                print(f"artifact-changes.txt lists {path}, which is identical at the parent",
                      flush=True)
                failed = True
            for target in sides:
                shutil.rmtree(target) if target.is_dir() else target.unlink(missing_ok=True)
        failed |= differ(work / "parent", work / "all")
    if failed:
        print(f"artifact runs differ; outputs kept in {work}")
        return 1
    shutil.rmtree(work)
    print("artifact runs alike")
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 2:
        sys.exit(f"usage: python {sys.argv[0]} [PARENT_TREE]")
    sys.exit(main(Path(sys.argv[1]).resolve() if len(sys.argv) == 2 else None))
