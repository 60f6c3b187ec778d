import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from biharm_lab import _stripes, biharmonic, cli, serialize
from biharm_lab.grids import Field, RadialGrid


# Reference: the row-wise writers the columnar ones replace.  Every cell went
# through _fmt and every JSON document through the pure-Python encoder of
# json.dumps(indent=2) after a recursive NaN walk over Python lists.

def ref_fmt(x) -> str:
    if isinstance(x, float):
        return float.__repr__(x)
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


def ref_csv(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(ref_fmt(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


def ref_sanitize(obj):
    if isinstance(obj, dict):
        return {k: ref_sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [ref_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def ref_default(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not JSON-serializable: {type(x)}")


def as_lists(obj):
    """Float arrays as the Python lists the artifact classes used to build."""
    if isinstance(obj, dict):
        return {k: as_lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [as_lists(v) for v in obj]
    if isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind == "f":
        return obj.tolist()
    return obj


def ref_json(obj) -> str:
    return json.dumps(ref_sanitize(as_lists(obj)), indent=2, sort_keys=True,
                      allow_nan=False, default=ref_default) + "\n"


def ref_columns_csv(columns: dict) -> str:
    cols = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()]
    return ref_csv(list(columns), zip(*cols))


def assert_same(text: str, ref: str, what: str = "text"):
    """Equality with the first difference as the message (no full-text diff)."""
    if text != ref:
        i = next((k for k, (a, b) in enumerate(zip(text, ref)) if a != b),
                 min(len(text), len(ref)))
        pytest.fail(f"{what} differs from the reference at char {i}: "
                    f"{text[max(0, i - 40):i + 40]!r} != {ref[max(0, i - 40):i + 40]!r}")


EDGE_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, -5e-324,
               1e16, 9999999999999998.0, 1e-05, 0.0001, 1e-4 - 1e-20, 0.1, 1.0 / 3.0,
               1.7976931348623157e308, 2.2250738585072014e-308, -1.5, 123456789.0]
B = serialize.CSV_BLOCK_ROWS
# empty, short, and both sides of a block boundary several blocks in
LENGTHS = [0, 1, 2, 4 * B - 1, 4 * B, 4 * B + 1, 8 * B + 3]


def sample(n: int, seed: int) -> np.ndarray:
    """n floats: the edge values first, then normals over many decades."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=n) * 10.0 ** rng.integers(-20, 20, size=n)
    k = min(n, len(EDGE_FLOATS))
    a[:k] = EDGE_FLOATS[:k]
    return a


class TestFieldFormats:
    def test_json_record(self):
        g = RadialGrid.uniform(3, 2.0, 16)
        rec = json.loads(serialize.json_text(biharmonic.exact_solution(g).to_dict()))
        assert rec["grid"] == {"n": 3, "h": 0.125, "N": 16}
        assert rec["u"][0] == biharmonic.EXACT_AMPLITUDE and len(rec["u"]) == 17

    def test_columns(self):
        g = RadialGrid.uniform(3, 2.0, 16)
        f = Field(g, np.arange(17.0))
        cols = f.columns("margin")
        assert list(cols) == ["r", "margin"]
        assert (cols["r"][0], cols["margin"][0]) == (0.0, 0.0)
        assert (cols["r"][-1], cols["margin"][-1]) == (2.0, 16.0)


class TestWriters:
    def test_atomic_json(self, tmp_path):
        path = tmp_path / "sub" / "x.json"
        serialize.write_json(path, {"b": 2, "a": [1.5, None]})
        data = json.loads(path.read_text())
        assert data == {"a": [1.5, None], "b": 2}
        # keys sorted on disk for determinism
        assert path.read_text().index('"a"') < path.read_text().index('"b"')

    def test_csv_formatting(self, tmp_path):
        path = tmp_path / "t.csv"
        serialize.write_columns(path, serialize.table_columns(
            ["a", "b", "c"], [(1.0, None, True), (0.1, "x", False),
                              (np.float64(0.25), np.int64(3), None)]))
        lines = path.read_text().splitlines()
        assert lines == ["a,b,c", "1.0,,true", "0.1,x,false", "0.25,3,"]

    def test_nan_sanitized(self):
        out = serialize.sanitize_nan({"x": float("nan"), "y": [float("inf"), 1.0]})
        assert out == {"x": None, "y": [None, 1.0]}

    def test_numpy_scalars(self, tmp_path):
        path = tmp_path / "n.json"
        serialize.write_json(path, {"v": np.float64(1.5), "i": np.int64(3),
                                    "arr": np.arange(3)})
        assert json.loads(path.read_text()) == {"arr": [0, 1, 2], "i": 3, "v": 1.5}

    def test_byte_identical_rewrites(self, tmp_path):
        obj = {"values": list(np.linspace(0, 1, 50))}
        serialize.write_json(tmp_path / "a.json", obj)
        serialize.write_json(tmp_path / "b.json", obj)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_profile_csv_parses(self, tmp_path):
        prof = biharmonic.shoot(3, 7.0, 1.0, 2.0, 5.0, num_intervals=64)
        path = serialize.write_columns(tmp_path / "p.csv", prof.columns())
        lines = path.read_text().splitlines()
        assert lines[0] == "r,u,du,z,dz,residual"
        assert len(lines) == 66
        for line in lines[1:]:
            values = [float(tok) for tok in line.split(",")]
            assert len(values) == 6


class TestAgainstRowWiseReference:
    """The columnar writers reproduce the row-wise writers byte for byte."""

    @pytest.mark.parametrize("n", LENGTHS)
    def test_float_columns(self, n, tmp_path):
        cols = {"r": sample(n, 1), "u": sample(n, 2)[::-1].copy(), "w": -sample(n, 3)}
        path = serialize.write_columns(tmp_path / "c.csv", cols)
        assert_same(path.read_text(), ref_columns_csv(cols))

    @pytest.mark.parametrize("n", LENGTHS)
    def test_preformatted_column(self, n, tmp_path):
        r = sample(n, 4)
        margin = sample(n, 5)
        path = serialize.write_columns(tmp_path / "m.csv",
                                       {"r": serialize.format_floats(r), "margin": margin})
        assert_same(path.read_text(), ref_columns_csv({"r": r, "margin": margin}))

    def test_strided_column(self, tmp_path):
        a = sample(3 * B + 5, 6)[::-1]   # views with negative and non-unit strides
        b = sample(2 * (3 * B + 5), 7)[::2]
        path = serialize.write_columns(tmp_path / "s.csv", {"a": a, "b": b})
        assert_same(path.read_text(), ref_columns_csv({"a": a, "b": b}))

    @pytest.mark.parametrize("n", [0, 1, 4 * B + 1])
    def test_object_rows(self, n, tmp_path):
        kinds = [None, True, False, "positive-on-window", 3, np.int64(7), np.float64(0.25),
                 float("nan"), -0.0, 5e-324, 1e16, 1e-05]
        rows = [tuple(kinds[(i + j) % len(kinds)] for j in range(4)) for i in range(n)]
        header = ["n", "kind", "pass", "margin"]
        path = serialize.write_columns(tmp_path / "o.csv", serialize.table_columns(header, rows))
        assert_same(path.read_text(), ref_csv(header, rows))

    @pytest.mark.parametrize("n", LENGTHS)
    def test_json_arrays(self, n, tmp_path):
        obj = {"grid": {"n": 3, "h": 0.5, "N": n}, "u": sample(n, 8),
               "meta": {"r_stop": float("nan"), "q": np.float64(7.0), "k": np.int64(2)},
               "nested": [{"v": sample(n, 9), "pass": None}, [sample(n, 10)]],
               "ints": np.arange(3), "empty": np.zeros(0), "tail": -float("inf")}
        path = serialize.write_json(tmp_path / "a.json", obj)
        assert_same(path.read_text(), ref_json(obj))

    def test_json_top_level_array(self):
        a = sample(5, 11)
        assert_same(serialize.json_text(a) + "\n", ref_json(a))
        assert_same(serialize.json_text([a, {"b": a}]) + "\n", ref_json([a, {"b": a}]))


class TestFloatTexts:
    """A shared FloatTexts changes no byte of what the writers write."""

    def write_both(self, tmp_path, obj, columns, texts):
        """write_json then write_columns, as the CLI writes an artifact; their texts."""
        js = serialize.write_json(tmp_path / "a.json", obj, texts).read_text()
        return js, serialize.write_columns(tmp_path / "a.csv", columns, texts).read_text()

    def test_non_finite_spelled_per_format(self, tmp_path):
        a = np.array([float("nan"), 1.5, float("inf"), -float("inf"), -0.0, 1e-05])
        js, csv = self.write_both(tmp_path, {"a": a}, {"a": a},
                                  serialize.FloatTexts([hash(a.tobytes())] * 2))
        assert_same(js, ref_json({"a": a}))
        assert_same(csv, ref_columns_csv({"a": a}))
        assert json.loads(js)["a"] == [None, 1.5, None, None, -0.0, 1e-05]
        assert csv.splitlines()[1:] == ["nan", "1.5", "inf", "-inf", "-0.0", "1e-05"]

    def test_keyed_by_bytes(self):
        a = sample(B + 1, 12)
        pair, signed = np.array([0.0, 1.0]), np.array([-0.0, 1.0])
        texts = serialize.FloatTexts([hash(x.tobytes()) for x in (a, a, a, a, pair, signed)])
        assert texts.blocks(-a, True)(1) is not texts.blocks(-a, True)(1)   # written once
        first = texts.blocks(a, True)(1)
        assert first == [repr(float(a[-1]))]
        assert texts.blocks(a.copy(), True)(1) is first
        assert texts.blocks(a[::-1], True)(1) is not first
        assert texts.blocks(list(a), True)(1) is first
        # the fourth and last file to write a reads it and drops it
        assert texts.blocks(a, True)(1) is first
        assert texts.blocks(a, True)(1) is not first
        assert texts.blocks(pair, True)(0) == ["0.0", "1.0"]
        assert texts.blocks(signed, True)(0) == ["-0.0", "1.0"]

    def test_json_keeps_text_for_csv(self):
        a = sample(2 * B, 13)
        texts = serialize.FloatTexts([hash(a.tobytes())] * 4)
        cells = texts.blocks(a, False)(1)
        assert texts.blocks(a, False)(1) == "\n".join(cells)
        split = texts.blocks(a, True)(1)
        assert split == cells and texts.blocks(a, True)(1) is split

    @pytest.mark.parametrize("n", LENGTHS)
    def test_shared_equals_unshared(self, n, tmp_path, monkeypatch):
        u = sample(n, 13)
        strided = sample(3 * n, 14)[::-3]   # a reversed, strided view
        obj = {"u": u, "w": strided, "nested": [{"u2": u.copy()}], "empty": np.zeros(0)}
        columns = {"r": np.arange(n) * 0.5, "u": u, "w": strided, "u_again": u[::1],
                   "z": -u, "cells": [ref_fmt(float(k)) for k in range(n)]}
        formatted = []
        format_floats = serialize.format_floats
        monkeypatch.setattr(serialize, "format_floats",
                            lambda a: formatted.append(len(a)) or format_floats(a))
        # the uses write_artifacts counts: u four times, w twice; r and z once
        texts = serialize.FloatTexts([hash(u.tobytes())] * 4 + [hash(strided.tobytes())] * 2)
        shared = self.write_both(tmp_path, obj, columns, texts)
        assert sum(formatted) == 4 * n
        assert shared == self.write_both(tmp_path, obj, columns, None)
        assert sum(formatted) == 4 * n + 8 * n
        assert_same(shared[0], ref_json(obj))
        assert_same(shared[1], ref_columns_csv(columns))


def _traced_peak(write):
    """tracemalloc's peak while ``write()`` runs, and the size of the file it returns."""
    import tracemalloc
    tracemalloc.start()
    try:
        path = write()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, path.stat().st_size


def test_write_columns_peak_memory(tmp_path):
    """The writer holds one block of rows at a time: about 0.27x of a 4.8 MB file."""
    columns = {f"c{k}": sample(32769, 20 + k) for k in range(7)}
    peak, size = _traced_peak(lambda: serialize.write_columns(tmp_path / "big.csv", columns))
    assert peak <= 0.35 * size, f"peak {peak} B for a {size} B file ({peak / size:.2f}x)"


def test_write_json_peak_memory(tmp_path):
    """A four-array profile is written one block of an array at a time (0.06x of 3.2 MB)."""
    record = biharmonic.exact_solution(RadialGrid.uniform(3, 20.0, 32768)).to_dict()
    assert all(record[k].size == 32769 for k in ("u", "du", "z", "dz"))
    peak, size = _traced_peak(lambda: serialize.write_json(tmp_path / "big.json", record))
    assert peak <= 0.1 * size, f"peak {peak} B for a {size} B file ({peak / size:.2f}x)"


@pytest.mark.parametrize("existing", [False, True])
def test_failed_stream_leaves_no_file(existing, tmp_path):
    """A piece generator raising mid-file leaves no temporary sibling and the target as it was."""
    target = tmp_path / "a.csv"
    if existing:
        target.write_text("old\n")

    def pieces():
        yield "r,u\n"
        yield "0.0,1.0\n" * 16384   # past the file buffer: bytes reach the disk
        raise RuntimeError("mid-file")

    with pytest.raises(RuntimeError, match="mid-file"):
        serialize.atomic_write_pieces(target, pieces())
    assert [p.name for p in tmp_path.iterdir()] == (["a.csv"] if existing else [])
    if existing:
        assert target.read_text() == "old\n"


def force_stripes(monkeypatch, w):
    """Run the writers (and sweeps) in w stripes, whatever the CPUs."""
    monkeypatch.setattr(_stripes, "stripes", lambda jobs: min(w, jobs))


@pytest.fixture
def one_stripe(monkeypatch):
    """Every file written by this process, where a spy's records are kept."""
    force_stripes(monkeypatch, 1)


@pytest.mark.parametrize("formats,names", [
    (["json"], ["a.json", "c.json"]),
    (["csv"], ["a.csv", "b.csv"]),
    (["json", "csv"], ["a.json", "a.csv", "b.csv", "c.json"]),
])
def test_write_artifacts_order_and_formats(formats, names, tmp_path, monkeypatch, one_stripe):
    """run-config.json first, then each artifact in order, JSON before CSV, as asked."""
    called, written = [], []
    a, r = sample(9, 15), sample(9, 16)

    def columns(name, cols):
        return lambda: called.append(name) or cols

    artifacts = [serialize.Artifact("a", {"a": a}, columns("a", {"r": r, "a": a})),
                 serialize.Artifact("b", columns=columns("b", {"r": r, "b": -r})),
                 serialize.Artifact("c", [1.5, None])]
    atomic_write_pieces = serialize.atomic_write_pieces
    monkeypatch.setattr(serialize, "atomic_write_pieces",
                        lambda path, pieces: written.append(path.name) or atomic_write_pieces(path, pieces))
    serialize.write_artifacts(tmp_path, formats, "{}\n", artifacts)
    assert written == ["run-config.json"] + names
    assert called == (["a", "b"] if "csv" in formats else [])
    assert (tmp_path / "run-config.json").read_text() == "{}\n"
    for art in artifacts:
        if f"{art.name}.json" in names:
            assert_same((tmp_path / f"{art.name}.json").read_text(), ref_json(art.json))
        if f"{art.name}.csv" in names:
            assert_same((tmp_path / f"{art.name}.csv").read_text(), ref_columns_csv(art.columns()))


def _spy_writers(monkeypatch):
    """Record, by file name, the artifact each file was written from.

    The one writer is hooked for the artifacts and the streaming writer for
    the files: a JSON file maps to its artifact, and a CSV file to its
    artifact and the columns its ``columns`` call gave the writer, once the
    streaming writer has written that file.
    """
    seen, pending = {}, {}
    write_artifacts = serialize.write_artifacts
    atomic_write_pieces = serialize.atomic_write_pieces

    def recording(art):
        def columns():
            cols = art.columns()
            pending[f"{art.name}.csv"] = (art, cols)
            return cols
        return columns

    def spy(outdir, formats, config_text, artifacts):
        pending.update((f"{art.name}.json", (art, None)) for art in artifacts
                       if "json" in formats and art.json is not None)
        return write_artifacts(outdir, formats, config_text, [
            replace(art, columns=art.columns and recording(art)) for art in artifacts])

    def streamed(path, pieces):
        written = atomic_write_pieces(path, pieces)
        if written.name != "run-config.json":
            seen[written.name] = pending.pop(written.name)
        return written

    monkeypatch.setattr(serialize, "write_artifacts", spy)
    monkeypatch.setattr(serialize, "atomic_write_pieces", streamed)
    return seen


H = "0.5"
COMMANDS = {
    "solve-biharmonic": ["solve-biharmonic", "--u0", "1", "--z0", "2", "--h", H],
    "solve-system": ["solve-system", "--n", "3", "--q", "3", "--r-exp", "2", "--u0", "1",
                     "--v0", "0.7", "--r-max", "2", "--h", "0.05"],
    "verify": ["verify", "--exact", "--r-max", "10", "--h", "0.1"],
    "simulate-parabolic": ["simulate-parabolic", "--p-exp", "2", "--r-exp", "1",
                           "--nodes", "16", "--t-final", "0.05", "--snapshots", "4",
                           "--perturb", "0.05"],
    "sweep": ["sweep", "--module", "lane-emden", "--n", "3", "--q", "3", "--r-exp", "1",
              "--h", H],
}


@pytest.mark.parametrize("name", list(COMMANDS))
def test_cli_artifacts_match_reference(name, tmp_path, monkeypatch, capsys, one_stripe):
    seen = _spy_writers(monkeypatch)
    cli.main(COMMANDS[name] + ["--format", "json,csv", "--out", str(tmp_path)])
    capsys.readouterr()
    files = sorted(p.name for p in tmp_path.iterdir() if p.name != "run-config.json")
    assert files and files == sorted(seen)
    for path, (art, columns) in seen.items():
        text = (tmp_path / path).read_text()
        if columns is None:
            assert_same(text, ref_json(art.json), path)
        elif all(isinstance(col, list) for col in columns.values()):
            # a table of formatted cells (sweep): the row-wise CSV of its JSON rows
            header = list(art.json[0])
            assert_same(text, ref_csv(header, ([row.get(k) for k in header] for row in art.json)),
                        path)
        else:
            assert_same(text, ref_columns_csv(columns), path)
    if name == "verify":
        r = RadialGrid.uniform(3, 10.0, 100).r
        for path, (_, columns) in seen.items():
            if path.endswith(".csv"):
                assert [float(s) for s in columns["r"]] == r.tolist()
        # with the default coefficients the pointwise bound is the sharp one
        assert (tmp_path / "margin-laplacian-lower-bound.csv").read_bytes() \
            == (tmp_path / "margin-laplacian-lower-bound-max-alpha.csv").read_bytes()


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of 7 rows, so that a small grid spans many and each process makes some."""
    monkeypatch.setattr(serialize, "CSV_BLOCK_ROWS", 7)


@pytest.mark.parametrize("name,columns,nodes", [
    ("solve-biharmonic", 6, 41),   # JSON u, du, z, dz; CSV r, residual
    ("solve-system", 9, 41),       # JSON u, du, v, dv; CSV r, w, margin, two residuals
    ("verify", 8, 101),            # r and seven distinct margins of eight
])
def test_each_column_formatted_once(name, columns, nodes, tmp_path, monkeypatch, capsys,
                                    small_blocks):
    """Once per run in all, the child's share counted too: half each, within a block a column."""
    log = tmp_path / "formatted"
    format_floats = serialize.format_floats

    def counted(a):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {len(a)}\n")
        return format_floats(a)

    monkeypatch.setattr(serialize, "format_floats", counted)
    for w in (1, 2):
        force_stripes(monkeypatch, w)
        log.write_text("")
        _run(COMMANDS[name], tmp_path / f"w{w}", capsys)
        shares = {}
        for line in log.read_text().splitlines():
            pid, count = map(int, line.split())
            shares[pid] = shares.get(pid, 0) + count
        assert sum(shares.values()) == columns * nodes
        assert len(shares) == w
        # each column's blocks alternate, so the processes' shares differ by a block at most
        assert all(abs(share - columns * nodes / w) <= columns * 7 / 2
                   for share in shares.values())


def _run(argv, out: Path, capsys):
    """(exit code, stdout, stderr) of one CLI run writing json,csv to ``out``."""
    code = cli.main(argv + ["--format", "json,csv", "--out", str(out)])
    return (code, *capsys.readouterr())


def _files(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "run-config.json"}


@pytest.mark.parametrize("name", list(COMMANDS))
def test_two_stripes_write_the_bytes_of_one(name, tmp_path, monkeypatch, capsys, small_blocks):
    runs, files = [], []
    for w in (1, 2):
        force_stripes(monkeypatch, w)
        runs.append(_run(COMMANDS[name], tmp_path / f"w{w}", capsys))
        files.append(_files(tmp_path / f"w{w}"))
    assert runs[0] == runs[1]
    assert len(files[0]) >= 2 and files[0] == files[1]


def _edge_artifacts() -> list:
    """Artifacts on the block edges: at 7 rows a block, a short tail block, a
    one-block table, an empty array, non-finite JSON cells (the edge floats
    lead ``sample``) and preformatted cells in a sweep-like table."""
    u = sample(3 * 7 + 2, 40)
    rows = [(k, "positive-on-window" if k % 3 else None, k % 2 == 0, float(u[k]))
            for k in range(len(u))]
    header = ["n", "kind", "pass", "margin"]
    return [
        serialize.Artifact("profile", {"u": u, "short": u[:5], "empty": np.zeros(0),
                                       "nested": [{"u": u.copy(), "w": -u}]},
                           lambda: {"r": np.arange(u.size) * 0.5, "u": u, "w": -u}),
        serialize.Artifact("single", columns=lambda: {"r": u[:7], "z": u[7:14]}),
        serialize.Artifact("sweep", [dict(zip(header, row)) for row in rows],
                           lambda: serialize.table_columns(header, rows)),
    ]


def _write_edges(out: Path):
    serialize.write_artifacts(out, ["json", "csv"], "{}\n", _edge_artifacts())
    return _files(out)


def test_block_edges_written_alike(tmp_path, monkeypatch, small_blocks):
    """Every edge of the block deal: the same bytes from two processes as from one,
    and those of the row-wise reference writers."""
    files = []
    for w in (1, 2):
        force_stripes(monkeypatch, w)
        files.append(_write_edges(tmp_path / f"w{w}"))
    assert files[0] == files[1]
    for art in _edge_artifacts():
        if art.json is not None:
            assert_same(files[1][f"{art.name}.json"].decode(), ref_json(art.json), art.name)
        assert_same(files[1][f"{art.name}.csv"].decode(), ref_columns_csv(art.columns()),
                    art.name)


def test_written_alike_under_a_millisecond_timer(tmp_path, monkeypatch, capsys, small_blocks):
    """A SIGALRM every millisecond while two processes write, as a sampling clock
    interrupts a timed run, changes no byte."""
    force_stripes(monkeypatch, 1)
    quiet = _write_edges(tmp_path / "quiet"), _run(COMMANDS["verify"], tmp_path / "quiet-v", capsys)
    force_stripes(monkeypatch, 2)
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: None)
    signal.setitimer(signal.ITIMER_REAL, 0.001, 0.001)
    try:
        ticked = (_write_edges(tmp_path / "ticked"),
                  _run(COMMANDS["verify"], tmp_path / "ticked-v", capsys))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
    assert ticked == quiet
    assert _files(tmp_path / "ticked-v") == _files(tmp_path / "quiet-v")


def test_child_error_raised_as_one_process_raises(tmp_path, monkeypatch, small_blocks):
    """A block the child makes raises there, and this process raises it where it reaches
    that block, as one process does: the same type and message, no file after it."""
    cells = [f"{k}" if k != 10 else None for k in range(20)]   # join raises in block 1
    artifacts = [serialize.Artifact("a", {"u": sample(20, 41)}),
                 serialize.Artifact("t", columns=lambda: {"kind": cells}),
                 serialize.Artifact("z", {"z": 1.5})]
    errors = []
    for w in (1, 2):
        force_stripes(monkeypatch, w)
        with pytest.raises(TypeError) as err:
            serialize.write_artifacts(tmp_path / f"w{w}", ["json", "csv"], "{}\n", artifacts)
        errors.append(str(err.value))
        assert sorted(p.name for p in (tmp_path / f"w{w}").iterdir()) == ["a.json",
                                                                         "run-config.json"]
    assert errors[0] == errors[1]


def test_child_death_raised(tmp_path, monkeypatch, small_blocks):
    force_stripes(monkeypatch, 2)
    parent, format_floats = os.getpid(), serialize.format_floats
    monkeypatch.setattr(serialize, "format_floats",
                        lambda a: os._exit(3) if os.getpid() != parent else format_floats(a))
    with pytest.raises(RuntimeError, match="a stripe exited with code 3"):
        serialize.write_artifacts(tmp_path, ["json"], "{}\n",
                                  [serialize.Artifact("a", {"u": sample(20, 42)})])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run-config.json"]


def test_failed_child_file_reported_alike(tmp_path, monkeypatch, capsys, small_blocks):
    """A file whose blocks both processes make fails as it fails in one process:
    exit 1, one line, and no later file written."""
    argv = COMMANDS["verify"]   # reports.json, then eight margin CSVs
    runs = []
    for w in (1, 2):
        force_stripes(monkeypatch, w)
        out = tmp_path / f"w{w}"
        (out / "margin-laplacian-lower-bound.csv").mkdir(parents=True)
        code, stdout, err = _run(argv, out, capsys)
        # the temporary file's name is random
        err = re.sub(r"bound\.csv\w+\.tmp", "bound.csv*.tmp", err.replace(str(out), "OUT"))
        runs.append((code, stdout, err))
        assert sorted(p.name for p in out.iterdir()) == [
            "margin-laplacian-lower-bound.csv", "reports.json", "run-config.json"]
    assert runs[0] == runs[1]
    code, _, err = runs[0]
    assert code == cli.EXIT_USAGE and err.startswith("error: --out ") and err.count("\n") == 1


def test_interrupt_leaves_no_child_and_no_temporary(tmp_path, monkeypatch, capsys, small_blocks):
    """An interrupt while this process writes a file ends the child making its blocks."""
    force_stripes(monkeypatch, 2)
    parent, format_floats = os.getpid(), serialize.format_floats
    started = tmp_path / "child-started"

    def interrupted(a):
        if os.getpid() != parent:
            started.touch()
            time.sleep(60)   # terminated, not waited for
        # interrupt this process, profile.json's temporary file open, once the child formats
        deadline = time.monotonic() + 30
        while not started.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert list(tmp_path.glob("out/profile.json*.tmp"))
        raise KeyboardInterrupt

    monkeypatch.setattr(serialize, "format_floats", interrupted)
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _run(COMMANDS["solve-biharmonic"], tmp_path / "out", capsys)
    assert time.monotonic() - t0 < 30
    assert started.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not list(tmp_path.glob("out/*.tmp"))


def test_no_multiprocessing_import(tmp_path):
    """Neither the writers nor the sweeps load multiprocessing (0.9 MB resident to fork)."""
    code = ("import sys; from biharm_lab import cli; out = sys.argv[1]; "
            "cli.main(['verify', '--exact', '--h', '0.05', '--r-max', '5', "
            "'--format', 'json,csv', '--out', out + '/verify']); "
            "assert cli.main(['sweep', '--module', 'lane-emden', '--n', '3', '--q', '3', "
            "'--r-exp', '1', '--h', '0.5', '--format', 'json,csv', '--out', out + '/sweep']) == 0; "
            "print('multiprocessing' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out[-1] == "False"
    assert len(list(tmp_path.glob("*/*.csv"))) == 9
