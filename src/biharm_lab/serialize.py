"""Artifact emission: atomic, deterministic JSON and CSV writers.

Files are written to a temporary sibling and renamed into place, so readers
never observe partial artifacts; a write that fails removes its temporary
file.  Every float is written as its Python repr, JSON has sorted keys,
two-space indentation and ``null`` for NaN/inf, and CSV rows keep the order of
the columns' entries, which makes identical inputs produce byte-identical
files.

A file is written as a stream of bounded text pieces (``json_pieces``,
``column_pieces``), so the writer's memory grows with a block of
``CSV_BLOCK_ROWS`` rows, not with the file.  Float arrays are formatted by
column, one ``float.__repr__`` per value with no per-cell dispatch: CSV one
row block at a time, and JSON by splicing each 1-D float array, block by
block, into the text around it.  ``json_text`` joins the JSON pieces into the
one string a summary prints.

A run's artifacts are data (``Artifact``), and ``write_artifacts`` puts them
on disk with the work dealt by row block: block b of every table and of
every JSON array is made by process b % W, one per CPU of the affinity mask
(``FloatTexts``).  The calling process writes every file, in order, from the
blocks it makes and those it reads, in turn, from each forked child's pipe.
A process keeps the cells of its own blocks of each float column that recurs
in the run's files, so each column is formatted once per run.  A block is
made by the same code from the same data in whichever process makes it, so
the files' bytes do not depend on W.
"""
from __future__ import annotations

import json
import math
import os
import re
import tempfile
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from . import _stripes

#: CSV rows (and JSON array values) formatted, joined and written at a time
CSV_BLOCK_ROWS = 1024

# stands for the i-th spliced array in the JSON text of the structure
_SPLICE = re.compile(r'"\\u0000(\d+)"')


def _fmt(x) -> str:
    """One cell of an object column: a float as its repr, None empty, a bool true/false."""
    if isinstance(x, float):
        # float.__repr__ also for NumPy scalars, whose own repr wraps the value
        return float.__repr__(x)
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


def format_floats(a) -> list[str]:
    """The repr of every value of a 1-D float array, in order."""
    return list(map(float.__repr__, np.asarray(a, dtype=float).tolist()))


def _blocks(rows: int) -> int:
    """How many blocks of CSV_BLOCK_ROWS hold ``rows`` rows (or values)."""
    return -(-rows // CSV_BLOCK_ROWS)


class FloatTexts:
    """The text one of the W processes writing a run's files makes.

    Block b of a float array, a table or a JSON array (its rows or values
    b * CSV_BLOCK_ROWS up to (b + 1) * CSV_BLOCK_ROWS) is made by process
    b % ``width``; this one is ``rank``.  ``piece(b, make)`` is the text of
    block b: ``make(b)`` where this process makes it, and otherwise, in the
    writing process (rank 0), the next text the block's maker sent
    (``children``, ranks 1, 2, ...).  A child sends the text of its blocks on
    its ``sink`` and gives "" for every block.

    ``blocks(a, csv)`` gives the reprs of a float array block by block, for
    a CSV (``csv``) or a JSON.  ``uses`` counts, by the hash of a column's
    key (its values' bytes), the files still to write it.  A column that a
    later file writes too keeps the blocks made here, keyed by the bytes, so
    equal arrays held in different objects share them while ``-0.0`` and
    ``0.0`` do not.  A CSV keeps a block's cells, and a JSON their
    newline-joined text, which a CSV after it splits, keeping the cells in
    its place for the files after it; the last file to write a column drops
    its blocks.  A non-finite value is spelled ``nan``/``inf``/``-inf``, as
    in a CSV; the JSON writer turns it into ``null`` in its own text.
    """

    def __init__(self, uses=(), width: int = 1, rank: int = 0, children=(), sink=None):
        self.uses = Counter(uses)
        self.width = width
        self.rank = rank
        self.children = children
        self.sink = sink
        self._kept = {}

    def blocks(self, a, csv: bool) -> Callable[[int], list[str] | str]:
        """Block b of the 1-D float array ``a`` as a function of b, for one file.

        A block is its list of reprs, or, read by a JSON (not ``csv``) from
        a JSON before it, their newline-joined text.
        """
        a = np.asarray(a, dtype=float)
        key = a.tobytes()
        self.uses[hash(key)] -= 1
        later = self.uses[hash(key)] > 0
        kept = self._kept.setdefault(key, {}) if later else self._kept.pop(key, {})

        def block(b):
            made = kept.get(b)
            if made is None:
                made = format_floats(a[b * CSV_BLOCK_ROWS:(b + 1) * CSV_BLOCK_ROWS])
                if later:   # a JSON keeps the text, a quarter of the cells' memory
                    kept[b] = made if csv else "\n".join(made)
            elif csv and isinstance(made, str):
                made = made.split("\n")
                if later:
                    kept[b] = made
            return made
        return block

    def piece(self, b: int, make: Callable[[int], str]) -> str:
        """The text of block b, ``make(b)``, from the process that makes it."""
        maker = b % self.width
        if self.sink is None:
            return make(b) if maker == self.rank else self.children[maker - 1].receive()
        if maker == self.rank:
            _stripes.send(self.sink, make(b))
        return ""


def atomic_write_pieces(path: str | Path, pieces: Iterable[str]) -> Path:
    """Write the concatenated text ``pieces`` to ``path``, atomically.

    The pieces go to a temporary sibling as they come, which is renamed onto
    ``path`` at the end; on any exception, one the pieces raise included, the
    temporary file is removed and ``path`` is left as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            for piece in pieces:
                fh.write(piece)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def atomic_write_text(path: str | Path, text: str):
    """Write ``text`` to ``path`` atomically: the one-piece ``atomic_write_pieces``."""
    atomic_write_pieces(path, (text,))


def sanitize_nan(obj, arrays: list | None = None):
    """Replace NaN/inf with None recursively (JSON has no such literals).

    1-D float arrays are not walked.  With ``arrays`` given, each is appended
    to it and replaced by the placeholder ``json_pieces`` splices it back into.
    """
    if isinstance(obj, dict):
        return {k: sanitize_nan(v, arrays) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize_nan(v, arrays) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if (arrays is not None and isinstance(obj, np.ndarray) and obj.ndim == 1
            and obj.dtype.kind == "f"):
        arrays.append(obj)
        return f"\0{len(arrays) - 1}"
    return obj


def _json_array(a: np.ndarray, indent: int, texts: FloatTexts) -> Iterator[str]:
    """The JSON text of a 1-D float array at ``indent``, one block of values a piece."""
    if a.size == 0:
        yield "[]"
        return
    finite = bool(np.isfinite(a).all())
    pad = "\n" + " " * (indent + 2)
    sep = "," + pad
    blocks = texts.blocks(a, csv=False)

    def block(b):
        made = blocks(b)
        text = made.replace("\n", sep) if isinstance(made, str) else sep.join(made)
        if not finite:
            # a finite repr holds no letter but e, so only the non-finite cells match
            text = text.replace("-inf", "null").replace("inf", "null").replace("nan", "null")
        return (sep if b else "[" + pad) + text

    for b in range(_blocks(a.size)):
        yield texts.piece(b, block)
    yield "\n" + " " * indent + "]"


def json_pieces(obj, texts: FloatTexts | None = None, end: str = "") -> Iterator[str]:
    """``json.dumps(obj, indent=2, sort_keys=True)`` with NaN/inf as null, then ``end``, in pieces.

    NumPy scalars and arrays are accepted; 1-D float arrays are formatted by
    column and spliced in block by block, so a piece is the structure text
    between two arrays or one block of an array, made through ``texts``.
    """
    arrays = []
    return _spliced(sanitize_nan(obj, arrays), arrays, texts or FloatTexts(), end)


def _spliced(structure, arrays: list, texts: FloatTexts, end: str = "") -> Iterator[str]:
    """The JSON pieces of a ``sanitize_nan`` structure with the ``arrays`` spliced in."""
    text = json.dumps(structure, indent=2, sort_keys=True, allow_nan=False,
                      default=_json_default)
    pos = 0
    for m in _SPLICE.finditer(text):
        line = text[text.rfind("\n", 0, m.start()) + 1:m.start()]
        yield text[pos:m.start()]
        yield from _json_array(arrays[int(m.group(1))], len(line) - len(line.lstrip(" ")), texts)
        pos = m.end()
    yield text[pos:] + end


def json_text(obj, texts: FloatTexts | None = None) -> str:
    """The ``json_pieces`` of ``obj`` joined into one string."""
    return "".join(json_pieces(obj, texts))


def write_json(path: str | Path, obj, texts: FloatTexts | None = None) -> Path:
    return atomic_write_pieces(path, json_pieces(obj, texts, end="\n"))


def _json_default(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not JSON-serializable: {type(x)}")


def column_pieces(columns: dict, texts: FloatTexts | None = None) -> Iterator[str]:
    """CSV text of named columns of equal length: the header line, then one row block a piece.

    A column is a float array, written as the repr of each value through
    ``texts``, or a list of strings already formatted (``table_columns``).
    """
    texts = texts or FloatTexts()
    cols = list(columns.values())
    rows = len(cols[0]) if cols else 0
    if any(len(c) != rows for c in cols):
        raise ValueError(f"columns differ in length: {[len(c) for c in cols]}")
    cells = [partial(_list_block, c) if isinstance(c, list) else texts.blocks(c, csv=True)
             for c in cols]

    def block(b):
        return "\n".join(map(",".join, zip(*(column(b) for column in cells)))) + "\n"

    yield ",".join(columns) + "\n"
    for b in range(_blocks(rows)):
        yield texts.piece(b, block)


def _list_block(cells: list, b: int) -> list:
    return cells[b * CSV_BLOCK_ROWS:(b + 1) * CSV_BLOCK_ROWS]


def write_columns(path: str | Path, columns: dict, texts: FloatTexts | None = None) -> Path:
    """Write ``column_pieces(columns, texts)`` to ``path``."""
    return atomic_write_pieces(path, column_pieces(columns, texts))


def table_columns(header: list[str], rows) -> dict:
    """CSV columns of rows of mixed objects (sweep tables), each cell formatted by ``_fmt``."""
    cols = list(zip(*rows)) or [()] * len(header)
    return {name: list(map(_fmt, col)) for name, col in zip(header, cols)}


@dataclass
class Artifact:
    """``name.json`` from ``json`` and ``name.csv`` from ``columns()``, called only for CSV."""

    name: str
    json: object = None
    columns: Callable[[], dict] | None = None


def write_artifacts(outdir: str | Path, formats, config_text: str, artifacts: list[Artifact]):
    """Write ``run-config.json``, then each artifact's forms that ``formats`` holds, JSON first.

    This process writes every file, in that order, and stops at the first it
    cannot write: that file's error is raised, and no later file is written.
    The files' row blocks are dealt to W = ``_stripes.stripes`` processes
    (``FloatTexts``): this process makes blocks 0, W, 2W, ... of each table
    and JSON array, and forked child k blocks k, k + W, ..., which it sends
    on its pipe as it makes them, the pipe's capacity holding it back.  A
    file's bytes do not depend on W.

    A float column that occurs more than once in the files (a JSON array and
    a CSV column, or columns of several tables) is formatted once: each
    process keeps the blocks of it that it makes until the last file that
    writes it (``FloatTexts``).  Columns are counted by the hash of their
    values' bytes, so a chance match can only cost a column formatted again:
    what is kept is keyed by the bytes.
    """
    outdir = Path(outdir)
    atomic_write_text(outdir / "run-config.json", config_text)
    files, columns = [], []   # (path, its pieces from a FloatTexts); every column written
    for art in artifacts:
        if "json" in formats and art.json is not None:
            arrays = []
            files.append((outdir / f"{art.name}.json",
                          partial(_spliced, sanitize_nan(art.json, arrays), arrays, end="\n")))
            columns += arrays
        if "csv" in formats and art.columns:
            table = art.columns()
            files.append((outdir / f"{art.name}.csv", partial(column_pieces, table)))
            columns += table.values()
    uses = Counter(hash(np.asarray(c, dtype=float).tobytes())
                   for c in columns if not isinstance(c, list))
    width = _stripes.stripes(_blocks(max(map(len, columns), default=0)))

    def make_blocks(rank, pipe):   # in a forked child
        texts = FloatTexts(uses, width, rank, sink=pipe)
        try:
            for _, pieces in files:
                for _ in pieces(texts):
                    pass
        except Exception as exc:   # raised where the writing process reaches it
            _stripes.send(pipe, exc)

    with _stripes.forked(width, make_blocks) as children:
        texts = FloatTexts(uses, width, children=children)
        for path, pieces in files:
            atomic_write_pieces(path, pieces(texts))
