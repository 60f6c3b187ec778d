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
on disk through one ``FloatTexts``, so each float column that recurs in the
files a process writes is formatted once there: the JSON stores the text of
every array it writes, a CSV column that occurs in more than one of the
run's tables is stored on first use, and a CSV column equal to a stored one
is read from it.  The files are written in forked stripes, one per CPU of
the affinity mask, each stripe through its own copy of the ``FloatTexts``
(``write_artifacts``).  A file is made by the same code from the same data
in whichever stripe writes it, so its bytes do not depend on how many
stripes there are.
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

from ._stripes import striped

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


def _text_blocks(a: np.ndarray) -> Iterator[str]:
    """The reprs of ``a`` in blocks of CSV_BLOCK_ROWS, each joined by newlines."""
    return ("\n".join(format_floats(a[i:i + CSV_BLOCK_ROWS]))
            for i in range(0, a.size, CSV_BLOCK_ROWS))


class FloatTexts:
    """The formatted float columns of one run, each formatted once.

    A column is keyed by its values' bytes, so equal arrays held in different
    objects share one text while ``-0.0`` and ``0.0`` do not.  It is stored as
    blocks of ``CSV_BLOCK_ROWS`` reprs joined by newlines, non-finite values
    spelled ``nan``/``inf``/``-inf`` as in a CSV; the JSON writer turns them
    into ``null`` in its own copy.  ``recurring`` holds the hashes of the keys
    of the CSV columns to store (``write_artifacts``).
    """

    def __init__(self, recurring=frozenset()):
        self._blocks = {}
        self.recurring = recurring

    def blocks(self, a, csv: bool = False) -> list[str] | None:
        """The blocks of the 1-D float array ``a``, formatted and stored on first use.

        A CSV column (``csv``) not stored yet is stored only if it recurs, else None.
        """
        a = np.asarray(a, dtype=float)
        key = a.tobytes()
        if key not in self._blocks:
            if csv and hash(key) not in self.recurring:
                return None
            self._blocks[key] = list(_text_blocks(a))
        return self._blocks[key]


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


def _json_array(a: np.ndarray, indent: int, texts: FloatTexts | None) -> Iterator[str]:
    """The JSON text of a 1-D float array at ``indent``, one block of values a piece."""
    if a.size == 0:
        yield "[]"
        return
    finite = bool(np.isfinite(a).all())
    pad = "\n" + " " * (indent + 2)
    sep = "," + pad
    for k, block in enumerate(_text_blocks(a) if texts is None else texts.blocks(a)):
        if not finite:
            # a finite repr holds no letter but e, so only the non-finite cells match
            block = block.replace("-inf", "null").replace("inf", "null").replace("nan", "null")
        yield (sep if k else "[" + pad) + block.replace("\n", sep)
    yield "\n" + " " * indent + "]"


def json_pieces(obj, texts: FloatTexts | None = None, end: str = "") -> Iterator[str]:
    """``json.dumps(obj, indent=2, sort_keys=True)`` with NaN/inf as null, then ``end``, in pieces.

    NumPy scalars and arrays are accepted; 1-D float arrays are formatted by
    column and spliced in block by block, so a piece is the structure text
    between two arrays or one block of an array.  With ``texts``, every such
    array's text is read from it or stored in it.
    """
    arrays = []
    text = json.dumps(sanitize_nan(obj, arrays), indent=2, sort_keys=True,
                      allow_nan=False, default=_json_default)
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

    A column is a float array, written as the repr of each value, or a list
    of strings already formatted (``table_columns``).  A float array stored
    in ``texts``, or recurring there, is split from its stored blocks; any
    other is formatted here and not stored, as a column that does not repeat
    would gain nothing.
    """
    cols = list(columns.values())
    rows = len(cols[0]) if cols else 0
    if any(len(c) != rows for c in cols):
        raise ValueError(f"columns differ in length: {[len(c) for c in cols]}")
    stored = [None if texts is None or isinstance(c, list) else texts.blocks(c, csv=True)
              for c in cols]
    yield ",".join(columns) + "\n"
    for b, i in enumerate(range(0, rows, CSV_BLOCK_ROWS)):
        cells = [c[i:i + CSV_BLOCK_ROWS] if isinstance(c, list)
                 else format_floats(c[i:i + CSV_BLOCK_ROWS]) if s is None
                 else s[b].split("\n") for c, s in zip(cols, stored)]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


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

    The files after ``run-config.json``, in that order, are dealt to the
    W = ``_stripes.stripes`` stripes i, i + W, ...: this process writes the
    first stripe and a forked child each other one (``_stripes.striped``).
    A file's bytes do not depend on W.  When files cannot be written, the
    error of the first in that order is raised.  A stripe stops at its
    failed file while the others run on, so a later file of another stripe
    may already be in place (whole, as every file is written), where one
    process writes nothing after the failed file.

    One ``FloatTexts`` serves the run.  It stores the CSV float columns that
    occur in more than one table, found by their keys' hashes (a chance match
    stores one column more: the store itself is keyed by the bytes).
    """
    outdir = Path(outdir)
    atomic_write_text(outdir / "run-config.json", config_text)
    tables = [a.columns() if "csv" in formats and a.columns else None for a in artifacts]
    counts = Counter(key for cols in tables if cols for key in {
        hash(np.asarray(c, dtype=float).tobytes()) for c in cols.values() if not isinstance(c, list)})
    texts = FloatTexts({key for key, count in counts.items() if count > 1})
    files = []
    for art, table in zip(artifacts, tables):
        if "json" in formats and art.json is not None:
            files.append(partial(write_json, outdir / f"{art.name}.json", art.json))
        if table is not None:
            files.append(partial(write_columns, outdir / f"{art.name}.csv", table))
    striped(lambda i: files[i](texts), len(files))
