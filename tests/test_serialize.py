import json

import numpy as np

from biharm_lab import biharmonic, serialize
from biharm_lab.grids import Field, RadialGrid


class TestFieldFormats:
    def test_json_record(self):
        g = RadialGrid.uniform(3, 2.0, 16)
        f = Field(g, np.linspace(1.0, 2.0, 17))
        rec = f.to_dict()
        assert rec["grid"] == {"n": 3, "h": 0.125, "N": 16}
        assert rec["values"][0] == 1.0 and len(rec["values"]) == 17

    def test_csv_rows(self):
        g = RadialGrid.uniform(3, 2.0, 16)
        f = Field(g, np.arange(17.0))
        rows = list(f.csv_rows())
        assert rows[0] == (0.0, 0.0)
        assert rows[-1] == (2.0, 16.0)


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
        serialize.write_csv(path, ["a", "b", "c"],
                            [(1.0, None, True), (0.1, "x", False),
                             (np.float64(0.25), np.int64(3), None)])
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
        path = serialize.write_csv(tmp_path / "p.csv", ["r", "u", "du", "z", "dz", "residual"],
                                   prof.csv_rows())
        lines = path.read_text().splitlines()[1:]
        assert len(lines) == 65
        for line in lines:
            values = [float(tok) for tok in line.split(",")]
            assert len(values) == 6
