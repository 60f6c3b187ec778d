"""Artifact emission: atomic, deterministic JSON and CSV writers.

Files are written to a temporary sibling and renamed into place, so readers
never observe partial artifacts.  JSON is emitted with sorted keys and CSV
floats with repr, which makes identical inputs produce byte-identical files.
"""
from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path


def _fmt(x) -> str:
    if isinstance(x, float):
        # float.__repr__ also for NumPy scalars, whose own repr wraps the value
        return float.__repr__(x)
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


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


def write_json(path: str | Path, obj) -> Path:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True,
                                       allow_nan=False, default=_json_default) + "\n")
    return Path(path)


def _json_default(x):
    import numpy as np
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not JSON-serializable: {type(x)}")


def sanitize_nan(obj):
    """Replace NaN/inf with None recursively (JSON has no such literals)."""
    import math
    if isinstance(obj, dict):
        return {k: sanitize_nan(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize_nan(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def write_csv(path: str | Path, header: list[str], rows) -> Path:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")
    return Path(path)


def rows_from_dicts(dicts: list[dict], header: list[str]):
    for d in dicts:
        yield [d.get(k) for k in header]
