"""Artifact emission: atomic, deterministic JSON and CSV writers.

Files are written to a temporary sibling and renamed into place, so readers
never observe partial artifacts.  Every float is written as its Python repr,
JSON has sorted keys, two-space indentation and ``null`` for NaN/inf, and CSV
rows keep the order of the columns' entries, which makes identical inputs
produce byte-identical files.

Float arrays are formatted by column, one ``float.__repr__`` per value with no
per-cell dispatch: CSV in row blocks, so one block's strings are alive at a
time, and JSON by splicing each 1-D float array into the text around it.
"""
from __future__ import annotations

import json
import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np

#: CSV rows formatted and joined at a time
CSV_BLOCK_ROWS = 4096

# stands for the i-th spliced array in the JSON text of the structure
_SPLICE = re.compile(r'"\\u0000(\d+)"')


def _fmt(x) -> str:
    """One cell of an object column (sweep tables)."""
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


def atomic_write_text(path: str | Path, text: str):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sanitize_nan(obj, arrays: list | None = None):
    """Replace NaN/inf with None recursively (JSON has no such literals).

    1-D float arrays are not walked.  With ``arrays`` given, each is appended
    to it and replaced by the placeholder ``json_text`` splices it back into.
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


def _json_array(a: np.ndarray, indent: int) -> str:
    if a.size == 0:
        return "[]"
    items = format_floats(a)
    for i in np.flatnonzero(~np.isfinite(a)).tolist():
        items[i] = "null"
    pad = "\n" + " " * (indent + 2)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * indent + "]"


def json_text(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)`` with NaN/inf as null.

    NumPy scalars and arrays are accepted; 1-D float arrays are formatted by
    column and spliced in, one array's strings alive at a time.
    """
    arrays = []
    text = json.dumps(sanitize_nan(obj, arrays), indent=2, sort_keys=True,
                      allow_nan=False, default=_json_default)
    parts, pos = [], 0
    for m in _SPLICE.finditer(text):
        line = text[text.rfind("\n", 0, m.start()) + 1:m.start()]
        parts += [text[pos:m.start()],
                  _json_array(arrays[int(m.group(1))], len(line) - len(line.lstrip(" ")))]
        pos = m.end()
    parts.append(text[pos:])
    return "".join(parts)


def write_json(path: str | Path, obj) -> Path:
    atomic_write_text(path, json_text(obj) + "\n")
    return Path(path)


def _json_default(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not JSON-serializable: {type(x)}")


def write_columns(path: str | Path, columns: dict) -> Path:
    """CSV of named columns of equal length, header first.

    A column is a float array, written as the repr of each value, or a list
    of strings already formatted (``format_floats``, ``write_csv``).
    """
    cols = list(columns.values())
    rows = len(cols[0]) if cols else 0
    if any(len(c) != rows for c in cols):
        raise ValueError(f"columns differ in length: {[len(c) for c in cols]}")
    blocks = [",".join(columns)]
    for i in range(0, rows, CSV_BLOCK_ROWS):
        cells = [c[i:i + CSV_BLOCK_ROWS] if isinstance(c, list)
                 else format_floats(c[i:i + CSV_BLOCK_ROWS]) for c in cols]
        blocks.append("\n".join(map(",".join, zip(*cells))))
    atomic_write_text(path, "\n".join(blocks) + "\n")
    return Path(path)


def write_csv(path: str | Path, header: list[str], rows) -> Path:
    """CSV of rows of mixed objects (sweep tables).

    Floats are written as their repr, None as an empty cell, bools as
    true/false and anything else by ``str``.
    """
    cols = list(zip(*rows)) or [()] * len(header)
    return write_columns(path, {name: list(map(_fmt, col)) for name, col in zip(header, cols)})
