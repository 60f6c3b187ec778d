import csv
import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from biharm_lab import biharmonic, cli, parabolic, serialize, sweeps, verify
from biharm_lab.params import ALPHA_MAX


def run_cli(argv):
    return cli.main(argv)


class TestRegion:
    def test_reference_point(self, capsys, tmp_path):
        code = run_cli(["region", "--n", "3", "--q", "7", "--alpha", "0.5",
                        "--out", str(tmp_path)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["admissible"] is True
        assert out["beta_max_used"] == pytest.approx(math.sqrt(3 / 8), rel=1e-12)
        assert out["gamma_star"] == pytest.approx(0.5, rel=1e-12)
        assert (tmp_path / "region.json").exists()

    def test_inadmissible_alpha(self, capsys):
        code = run_cli(["region", "--n", "3", "--q", "7", "--alpha", "0.6"])
        assert code == 0   # region reporting is not a verification
        out = json.loads(capsys.readouterr().out)
        assert out["admissible"] is False
        assert any("alpha" in r for r in out["reasons"])

    @pytest.mark.parametrize("flag", ["--alpha", "--beta"])
    def test_nan_coefficient_exits_2(self, flag, capsys):
        assert run_cli(["region", "--q", "7", flag, "nan"]) == 2
        assert "nonnegative" in capsys.readouterr().err


class TestVerify:
    def test_exact_sharp_passes(self, capsys):
        code = run_cli(["verify", "--exact", "--check", "sharp", "--r-max", "10",
                        "--h", str(10 / 1024)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out[0]["pass"] is True

    def test_failing_profile_exits_3(self):
        # positive window that is not an entire solution: the gradient-free
        # bound genuinely fails on it
        code = run_cli(["verify", "--u0", "1.0", "--z0", "1.8385", "--n", "3",
                        "--q", "2", "--check", "weak", "--r-max", "20"])
        assert code == 3

    def test_precondition_exits_2(self):
        code = run_cli(["verify", "--u0", "1.0", "--z0", "2.0", "--q", "2.9",
                        "--check", "sharp", "--r-max", "5"])
        assert code == 2

    def test_conflicting_exact_params_exit_1(self, capsys):
        code = run_cli(["verify", "--exact", "--q", "5", "--check", "weak"])
        assert code == 1
        # the pinned pair is the closed form's, biharmonic.EXACT_N and EXACT_Q
        assert (biharmonic.EXACT_N, biharmonic.EXACT_Q) == (3, 7.0)
        assert capsys.readouterr().err == (
            "error: --exact pins (n, q) = (3, 7); drop --n/--q or --exact\n")

    def test_usage_error_exit_1(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["bogus-command"])
        assert exc.value.code == 1


class TestSolveBiharmonic:
    def test_artifacts(self, tmp_path, capsys):
        code = run_cli(["solve-biharmonic", "--u0", "1.0", "--z0", "2.0",
                        "--r-max", "10", "--h", str(10 / 512),
                        "--out", str(tmp_path), "--format", "json,csv"])
        assert code == 0
        assert (tmp_path / "profile.json").exists()
        csv = (tmp_path / "profile.csv").read_text().splitlines()
        assert csv[0] == "r,u,du,z,dz,residual"
        assert len(csv) == 514

    def test_negative_start_exits_2(self):
        code = run_cli(["solve-biharmonic", "--u0", "-1", "--z0", "1"])
        assert code == 2

    def test_steep_shot_classifies_as_its_sweep_row(self, tmp_path, capsys):
        # the q = 50 sweep's member at u0 = 0.6, started where the even
        # series is still in its range
        assert run_cli(["solve-biharmonic", "--n", "3", "--q", "50", "--u0", "0.6",
                        "--z0", "88070.67117853744", "--h", "0.01953125",
                        "--format", "json,csv", "--out", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["classification"]["kind"] == biharmonic.POSITIVE
        assert (tmp_path / "profile.csv").stat().st_size > 0


class TestShortWindowCsv:
    """A shot that stops before its first node writes the one-node window at r = 0,
    its CSV with NaN residual cells."""

    @pytest.mark.parametrize("argv,name,residuals", [
        (["solve-biharmonic", "--u0", "1", "--z0", "0", "--h", "0.5", "--r-max", "2"],
         "profile", ["residual"]),
        (["solve-system", "--n", "5", "--q", "50", "--r-exp", "2", "--u0", "0.7",
          "--v0", "100.17707219584926", "--h", "0.01953125"],
         "system-profile", ["residual_u", "residual_v"]),
    ])
    def test_exits_0_with_nan_residuals(self, argv, name, residuals, tmp_path, capsys):
        assert run_cli(argv + ["--format", "json,csv", "--out", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["classification"]["kind"] == biharmonic.TOUCHED_ZERO
        header, *rows = (tmp_path / f"{name}.csv").read_text().splitlines()
        cols = header.split(",")
        record = json.loads((tmp_path / f"{name}.json").read_text())
        assert len(rows) == len(record["u"]) == 1 and rows[0].startswith("0.0,")
        for row in rows:
            cells = dict(zip(cols, row.split(",")))
            assert [cells[c] for c in residuals] == ["nan"] * len(residuals)


class TestGridSpacing:
    @pytest.mark.parametrize("argv", [
        ["solve-biharmonic", "--u0", "1", "--z0", "2", "--h", "0"],
        ["solve-system", "--u0", "1", "--v0", "2", "--h", "0"],
        ["verify", "--exact", "--check", "sharp", "--h", "0"],
        ["verify", "--u0", "1", "--z0", "2", "--check", "sharp", "--h", "-0.1"],
        ["solve-biharmonic", "--u0", "1", "--z0", "2", "--h", "nan"],
        ["solve-biharmonic", "--u0", "1", "--z0", "2", "--r-max", "inf"],
        ["solve-system", "--u0", "1", "--v0", "2", "--r-max", "0"],
        ["sweep", "--module", "biharmonic", "--h", "nan"],
        ["sweep", "--module", "lane-emden", "--r-max", "-5"],
    ])
    def test_bad_window_exits_2(self, argv, capsys):
        assert run_cli(argv) == 2
        assert "must be finite and positive" in capsys.readouterr().err

    # refused before round() or any allocation; never run a grid this fine
    @pytest.mark.parametrize("argv", [
        ["solve-biharmonic", "--u0", "1", "--z0", "2", "--h", "1e-300"],
        ["solve-biharmonic", "--u0", "1", "--z0", "2", "--h", "5e-324"],
        ["solve-system", "--u0", "1", "--v0", "2", "--h", "1e-300"],
        ["verify", "--exact", "--check", "sharp", "--h", "5e-324"],
        ["verify", "--u0", "1", "--z0", "2", "--check", "weak", "--h", "1e-300"],
        ["sweep", "--module", "biharmonic", "--h", "5e-324"],
    ])
    def test_spacing_too_fine_exits_2(self, argv, capsys):
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert "exceeds 4194304 intervals" in err and "Traceback" not in err

    def test_fewer_than_16_intervals_run_on_16(self, tmp_path, capsys):
        """round(r_max/h) = 4 intervals are raised to 16; run-config.json keeps the --h given."""
        assert run_cli(["solve-biharmonic", "--u0", "1", "--z0", "2", "--h", "0.5",
                        "--r-max", "2", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        grid = json.loads((tmp_path / "profile.json").read_text())["grid"]
        assert (grid["N"], grid["h"]) == (16, 0.125)
        assert json.loads((tmp_path / "run-config.json").read_text())["parameters"]["h"] == 0.5


class TestTolOverride:
    """--tol re-derives each verdict from the printed margin and scale."""

    # sign of the tolerance at which the verdict flips: a one-sided check
    # with a positive margin fails only under a negative tolerance
    @pytest.mark.parametrize("argv,sign", [
        (["--check", "weak", "--r-max", "10", "--h", str(10 / 1024)], -1.0),
        (["--check", "identity", "--r-max", "10", "--h", str(10 / 1024)], 1.0),
        (["--check", "curvature", "--h", "0.01"], -1.0),   # margin is -scal
    ])
    def test_verdict_flips_at_threshold(self, argv, sign, tmp_path, capsys):
        base = ["verify", "--exact", "--out", str(tmp_path)] + argv
        run_cli(base)
        rep = json.loads((tmp_path / "reports.json").read_text())[0]
        threshold = abs(rep["min_margin"]) / rep["scale"]
        for factor, passes in ((1 - 1e-9, sign < 0), (1 + 1e-9, sign > 0)):
            tol = sign * factor * threshold
            code = run_cli(base + [f"--tol={tol!r}"])
            out = json.loads((tmp_path / "reports.json").read_text())[0]
            assert (out["tol"], out["min_margin"]) == (tol, rep["min_margin"])
            assert out["pass"] is passes, (argv, tol)
            assert code == (0 if passes else 3)
        capsys.readouterr()


class TestShootingDomain:
    """Bad shooting inputs are refused before the kernel runs."""

    @pytest.mark.parametrize("argv", [
        ["solve-biharmonic", "--u0", "1", "--z0", "2", "--n", "0", "--h", "0.5"],
        ["solve-system", "--u0", "1", "--v0", "2", "--n", "0", "--h", "0.5"],
    ])
    def test_dimension_zero_exits_2(self, argv, capsys):
        assert run_cli(argv) == 2
        assert "dimension" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["solve-biharmonic", "--u0", "nan", "--z0", "1", "--h", "0.5"],
        ["solve-biharmonic", "--u0", "1", "--z0", "nan", "--h", "0.5"],
        ["solve-system", "--u0", "1", "--v0", "nan", "--h", "0.5"],
        ["verify", "--u0", "nan", "--z0", "1", "--check", "sharp"],
    ])
    def test_nan_start_exits_2(self, argv, capsys):
        assert run_cli(argv) == 2
        assert "nan" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["solve-biharmonic", "--u0", "1", "--z0", "2", "--q", "1", "--h", "0.5"],
        ["solve-biharmonic", "--u0", "1", "--z0", "2", "--q", "nan", "--h", "0.5"],
        ["solve-system", "--u0", "1", "--v0", "2", "--q", "0.5", "--h", "0.5"],
        ["solve-biharmonic", "--u0", "1", "--z0", "2", "--q", "inf", "--h", "0.5"],
        ["solve-system", "--u0", "1", "--v0", "2", "--q", "inf", "--h", "0.5"],
        ["verify", "--u0", "1", "--z0", "2", "--q", "inf", "--check", "weak", "--h", "0.5"],
        ["region", "--q", "inf"],
    ])
    def test_q_not_above_one_exits_2(self, argv, capsys):
        assert run_cli(argv) == 2
        assert "q must be finite and > 1" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", [
        ["solve-biharmonic", "--u0", "1", "--z0", "2"],
        ["solve-system", "--u0", "1", "--v0", "2"],
    ])
    @pytest.mark.parametrize("rtol", ["0", "-1", "nan", "inf"])
    def test_rtol_not_positive_exits_2(self, cmd, rtol, capsys):
        assert run_cli(cmd + ["--h", "0.5", "--rtol", rtol]) == 2
        assert "rtol must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["solve-biharmonic", "--u0", "inf", "--z0", "1", "--h", "0.5"],
         "u0 must be finite and positive, got inf"),
        (["solve-biharmonic", "--u0", "1", "--z0", "inf", "--h", "0.5"],
         "z0 must be finite and nonnegative, got inf"),
        (["solve-system", "--u0", "1", "--v0", "inf", "--h", "0.5"],
         "v0 must be finite and positive, got inf"),
        (["solve-system", "--u0", "1", "--v0", "2", "--r-exp", "inf", "--h", "0.5"],
         "rexp must be finite and positive, got inf"),
        (["region", "--q", "7", "--alpha", "inf"], "alpha must be finite and nonnegative"),
        (["region", "--q", "7", "--beta", "inf"], "beta must be finite and nonnegative"),
        (["region", "--q", "7", "--n", "0"], "dimension n must be an integer in [3, 4194304]"),
        (["verify", "--exact", "--check", "identity", "--alpha", "nan", "--h", "0.05"],
         "alpha must be finite and nonnegative"),
    ])
    def test_out_of_domain_exits_2(self, argv, message, capsys):
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("argv,params", [
        (["solve-biharmonic", "--u0", "1", "--z0", "2"], {"n": 3.7, "h": 0.5}),
        (["solve-system", "--u0", "1", "--v0", "2"], {"n": 3.7, "h": 0.5}),
        (["verify"], {"n": 3.7, "u0": 1.0, "z0": 2.0, "check": "weak", "h": 0.5}),
        (["region"], {"n": 3.7, "q": 7.0}),
    ])
    def test_non_integer_dimension_in_config_exits_2(self, argv, params, tmp_path, capsys):
        """A config count is parsed as its flag's text: 3.7 is refused (exit 1), never truncated."""
        path = tmp_path / "cfg.json"
        path.write_text(cli.RunConfig(command=argv[0], parameters=params).to_json())
        with pytest.raises(SystemExit) as exc:
            run_cli(argv + ["--config", str(path)])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert "argument --n: invalid int value: '3.7'" in captured.err


class TestConfigRoundTrip:
    def test_lossless(self):
        cfg = cli.RunConfig(command="region",
                            parameters={"n": 3, "q": 7.0, "alpha": 0.5},
                            out="/tmp/x", formats=["json", "csv"], tol=1e-7)
        again = cli.RunConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_config_file(self, tmp_path, capsys):
        cfg = cli.RunConfig(command="region", parameters={"n": 3, "q": 7.0,
                                                          "alpha": 0.25})
        path = tmp_path / "cfg.json"
        path.write_text(cfg.to_json())
        code = run_cli(["region", "--config", str(path)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["params"]["alpha"] == 0.25

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = cli.RunConfig(command="region", parameters={"n": 3, "q": 7.0,
                                                          "alpha": 0.25})
        path = tmp_path / "cfg.json"
        path.write_text(cfg.to_json())
        code = run_cli(["region", "--config", str(path), "--alpha", "0.5"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["params"]["alpha"] == 0.5

    def test_malformed_config_exit_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run_cli(["region", "--q", "7", "--config", str(path)]) == 1

    @pytest.mark.parametrize("argv,params,tol", [
        (["region", "--q", "7", "--beta", "0"], {"q": 7, "beta": 0}, None),
        (["verify", "--exact", "--check", "sharp", "--h", "0.05", "--tol", "1"],
         {"exact": True, "check": "sharp", "h": 0.05}, 1),
    ])
    def test_config_reads_as_its_flags(self, argv, params, tol, tmp_path, capsys):
        """An integer in a float field is typed as its flag's text is: 0 is printed 0.0."""
        assert run_cli(argv + ["--out", str(tmp_path / "flags")]) == 0
        printed = capsys.readouterr().out
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": argv[0], "parameters": params, "tol": tol}))
        assert run_cli([argv[0], "--config", str(path), "--out", str(tmp_path / "config")]) == 0
        assert capsys.readouterr().out == printed
        for flags in (tmp_path / "flags").iterdir():
            if flags.name != "run-config.json":
                assert (tmp_path / "config" / flags.name).read_bytes() == flags.read_bytes()

    @pytest.mark.parametrize("argv,code", [
        (["region", "--q", "7"], 0),
        (["solve-biharmonic", "--u0", "1", "--z0", "2", "--h", "0.5"], 0),
        (["verify", "--u0", "1", "--z0", "2", "--check", "weak", "--h", "0.5"], 0),
        (["solve-system", "--n", "3", "--q", "3", "--r-exp", "2", "--u0", "1", "--v0", "0.7",
          "--r-max", "2", "--h", "0.01"], 3),
        (["simulate-parabolic", "--p-exp", "2", "--r-exp", "1", "--geometry", "radial",
          "--nodes", "16", "--t-final", "0.01", "--snapshots", "2"], 0),
        (["sweep", "--module", "lane-emden", "--n", "3", "--q", "3", "--r-exp", "1",
          "--h", "0.5"], 0),
    ])
    def test_saved_config_replays(self, argv, code, tmp_path, capsys):
        """run-config.json stands for the run's flags, required ones included."""
        first, again = tmp_path / "first", tmp_path / "again"
        assert run_cli(argv + ["--format", "json,csv", "--out", str(first)]) == code
        printed = capsys.readouterr().out
        assert run_cli([argv[0], "--config", str(first / "run-config.json"),
                        "--out", str(again)]) == code
        assert capsys.readouterr().out == printed
        names = sorted(path.name for path in first.iterdir())
        assert names == sorted(path.name for path in again.iterdir())
        for name in names:
            if name != "run-config.json":
                assert (again / name).read_bytes() == (first / name).read_bytes()


class TestConfigParameters:
    """A config value gets the checks of its flag; a null is not given."""

    def run_config(self, argv, params, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": argv[0], "parameters": params}))
        try:
            return run_cli(argv + ["--config", str(path)])
        except SystemExit as exc:   # argparse's refusal of a value
            return exc.code

    @pytest.mark.parametrize("argv,params,message", [
        (["region"], {"q": "abc"}, "q must be a number, got 'abc'"),
        (["region"], {"q": True}, "q must be a number, got True"),
        (["region"], {"q": 7.0, "n": "3"}, "n must be a number, got '3'"),
        (["region"], {"q": 7.0, "alpah": 0.3}, "unknown parameter 'alpah'"),
        (["region"], {"q": 7.0, "tol": 0.1}, "unknown parameter 'tol'"),
        (["region"], {"q": 10**400}, "q must be a number, got 1000"),
        (["region"], {"q": None}, "the following arguments are required: --q"),
        (["verify"], {"exact": True, "check": "bogus"}, "argument --check: invalid choice: 'bogus'"),
        (["simulate-parabolic", "--p-exp", "2", "--r-exp", "1"],
         {"geometry": "sphere"}, "argument --geometry: invalid choice: 'sphere'"),
        (["verify"], {"exact": "yes", "check": "sharp"},
         "exact must be true, false or null, got 'yes'"),
        (["verify"], {"exact": 1, "check": "sharp"}, "exact must be true, false or null, got 1"),
    ])
    def test_refused_exit_1(self, argv, params, message, tmp_path, capsys):
        assert self.run_config(argv, params, tmp_path) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("formats,message", [
        (["xml"], "formats must be a comma list of json and csv, got 'xml'"),
        (["json", "JSON"], "got 'json,JSON'"),
        ([], "formats must be a comma list of json and csv, got ''"),
        ([None], "got 'None'"),
        ("json", "formats must be a comma list of json and csv"),
        (5, "malformed config"),
    ])
    def test_formats_refused_exit_1(self, formats, message, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": "region", "parameters": {"q": 7.0},
                                    "formats": formats, "out": str(tmp_path / "out")}))
        assert run_cli(["region", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and message in captured.err
        assert not (tmp_path / "out").exists()

    VERIFY = {"command": "verify",
              "parameters": {"exact": True, "check": "sharp", "h": 0.05, "r_max": 5.0}}

    @pytest.mark.parametrize("config,message", [
        ({"command": "region", "parameters": {"q": 7.0}, "out": 5}, "out must be a string, got 5"),
        ({"command": "region", "parameters": {"q": 7.0}, "out": ["a"]},
         "out must be a string, got ['a']"),
        (dict(VERIFY, tol="x"), "tol must be a number, got 'x'"),
        (dict(VERIFY, tol=True), "tol must be a number, got True"),
        (dict(VERIFY, tol=10**400), "tol must be a number, got 1000"),
        ({"command": "region", "parameters": {"q": 7.0}, "formats": "json"},
         "formats must be a comma list of json and csv, given as a list, got 'json'"),
        ({"command": "region", "parameters": {"q": 7.0}, "formats": "json,csv"},
         "given as a list, got 'json,csv'"),
        ({"command": "region", "parameters": "x"}, "parameters must be an object, got 'x'"),
        ({"command": "region", "parameters": ["qq"]}, "parameters must be an object, got ['qq']"),
        ({"command": "region", "parameters": {"q": 7.0}, "fromats": ["csv"]},
         "unexpected keyword argument 'fromats'"),
    ])
    def test_top_level_field_refused_exit_1(self, config, message, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert run_cli([config["command"], "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and message in captured.err
        assert list(tmp_path.iterdir()) == [path]

    def test_undecodable_config_exit_1(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"command": "region", "parameters": {"q": "\xff"}}')
        assert run_cli(["region", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: malformed config {path}: ")

    def test_null_is_not_given(self, tmp_path, capsys):
        assert self.run_config(["region"], {"q": 7.0, "alpha": None, "beta": None},
                               tmp_path) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["params"]["alpha"] == 0.5
        assert out["beta_max_used"] == pytest.approx(math.sqrt(3 / 8), rel=1e-12)


class TestOutDirectory:
    """An --out that cannot be a directory is refused before the run prints or writes anything."""

    @pytest.mark.parametrize("below", [False, True])
    @pytest.mark.parametrize("in_config", [False, True])
    def test_file_in_the_way_exits_1(self, below, in_config, tmp_path, capsys):
        blocker = tmp_path / "F"
        blocker.write_text("x")
        out = str(blocker / "sub" if below else blocker)
        argv = ["region", "--q", "7", "--format", "json,csv"]
        if in_config:
            path = tmp_path / "cfg.json"
            path.write_text(cli.RunConfig(command="region", parameters={"q": 7.0}, out=out).to_json())
            argv += ["--config", str(path)]
        assert run_cli(argv if in_config else argv + ["--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --out {out}: {blocker} is not a directory\n"
        assert blocker.read_text() == "x" and len(list(tmp_path.iterdir())) == 1 + in_config

    REGION = ["region", "--q", "7", "--format", "json,csv"]

    @pytest.mark.parametrize("argv,out,message", [
        (REGION, "", "--out '' is not a directory name"),
        (REGION, "a\0b", "--out 'a\\x00b' is not a directory name"),
        (REGION, "a" * 300, f"--out {'a' * 300}: File name too long"),
        (["verify", "--exact", "--check", "sharp", "--h", "0.05", "--r-max", "5",
          "--format", "json,csv"], "", "--out '' is not a directory name"),
        (["solve-system", "--u0", "0.71", "--v0", "2.14"], "",
         "--out '' is not a directory name"),
    ], ids=["empty", "nul", "name-too-long", "empty-verify", "empty-solve-system"])
    @pytest.mark.parametrize("in_config", [False, True])
    def test_bad_name_exits_1(self, argv, out, message, in_config, tmp_path, monkeypatch,
                              capsys):
        monkeypatch.chdir(tmp_path)   # an empty --out would be the working directory
        if in_config:
            parameters = {"q": 7.0} if argv[0] == "region" else {}
            (tmp_path / "cfg.json").write_text(
                cli.RunConfig(command=argv[0], parameters=parameters, out=out).to_json())
            argv = argv + ["--config", "cfg.json"]
        assert run_cli(argv if in_config else argv + [f"--out={out}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert len(list(tmp_path.iterdir())) == in_config

    def test_write_error_exits_1(self, tmp_path, capsys):
        """A path the ancestor check passes but the writer cannot make: one line, no traceback."""
        out = str(tmp_path / "x" / ("a" * 300) / "y")
        assert run_cli(["region", "--q", "7", "--out", out]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["admissible"] is True   # the results came first
        assert captured.err.startswith(f"error: --out {out}: [Errno 36] File name too long")
        assert captured.err.count("\n") == 1


class TestArtifactFormats:
    """Each artifact's JSON and CSV forms are written only when --format asks for them."""

    SYSTEM = ["solve-system", "--u0", "0.71", "--v0", "2.14", "--r-max", "2", "--h", "0.05"]
    SHARP = ["verify", "--exact", "--check", "sharp", "--h", "0.05", "--r-max", "5"]

    @pytest.mark.parametrize("argv,formats,files", [
        (SYSTEM, "json", ["system-profile.json", "system-reports.json"]),
        (SYSTEM, "csv", ["system-profile.csv"]),
        (SYSTEM, "json,csv", ["system-profile.csv", "system-profile.json", "system-reports.json"]),
        (SHARP, "json", ["reports.json"]),
        (SHARP, "csv", ["margin-laplacian-lower-bound-max-alpha.csv"]),
    ])
    def test_only_the_asked_forms(self, argv, formats, files, tmp_path, capsys):
        assert run_cli(argv + ["--format", formats, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files + ["run-config.json"])


class TestUnreadFlags:
    """A flag the run does not read is a usage error (exit 1)."""

    PARABOLIC = ["simulate-parabolic", "--p-exp", "2", "--r-exp", "1", "--nodes", "16",
                 "--t-final", "0.01", "--snapshots", "2"]
    VERIFY = ["verify", "--exact", "--r-max", "5", "--h", "0.05"]

    @pytest.mark.parametrize("argv,message", [
        (PARABOLIC + ["--radius", "nan"], "the periodic geometry does not read --radius"),
        (PARABOLIC + ["--n", "3"], "the periodic geometry does not read --n"),
        (PARABOLIC + ["--geometry", "radial", "--length", "nan"],
         "the radial geometry does not read --length"),
        (["verify", "--exact", "--check", "sharp", "--u0", "nan"],
         "verify --exact does not read --u0"),
        (["verify", "--exact", "--check", "sharp", "--z0", "1"],
         "verify --exact does not read --z0"),
        (["sweep", "--module", "region", "--n="], "not a comma list of ints: ''"),
        (["sweep", "--module", "region", "--alpha= ,"], "not a comma list of floats"),
        (["sweep", "--module", "region", "--q", "inf", "--h", "0.1"],
         "sweep --module region does not read --h"),
        (["sweep", "--module", "biharmonic", "--r-exp", "1"],
         "sweep --module biharmonic does not read --r-exp"),
        (["sweep", "--module", "lane-emden", "--alpha", "0.1"],
         "sweep --module lane-emden does not read --alpha"),
        (VERIFY + ["--check", "sharp", "--alpha", "nan"],
         "verify --check sharp does not read --alpha"),
        (VERIFY + ["--check", "weak", "--beta", "nan", "--gamma", "inf"],
         "verify --check weak does not read --beta, --gamma"),
        (VERIFY + ["--check", "gradient", "--gamma", "0.1"],
         "verify --check gradient does not read --gamma"),
        (VERIFY + ["--check", "curvature", "--alpha", "0.5"],
         "verify --check curvature does not read --alpha"),
        (VERIFY + ["--check", "pointwise", "--gamma", "nan"],
         "verify --check pointwise does not read --gamma"),
        (VERIFY + ["--check", "aux-ineq", "--gamma", "0.1"],
         "verify --check aux-ineq does not read --gamma"),
        (VERIFY + ["--check", "identity", "--gamma", "0.1"],
         "verify --check identity does not read --gamma"),
        (["region", "--q", "7", "--format", "xml"],
         "formats must be a comma list of json and csv, got 'xml'"),
        (["solve-biharmonic", "--u0", "1", "--z0", "2", "--format", "JSON"],
         "formats must be a comma list of json and csv, got 'JSON'"),
        (["region", "--q", "7", "--format", ",,"],
         "formats must be a comma list of json and csv, got ',,'"),
        (["region", "--q", "7", "--format="],
         "formats must be a comma list of json and csv, got ''"),
    ])
    def test_exits_1(self, argv, message, capsys):
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err and "Traceback" not in captured.err

    def test_from_config_too(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": "simulate-parabolic",
                                    "parameters": {"radius": 2.0}}))
        assert run_cli(self.PARABOLIC + ["--config", str(path)]) == 1
        assert "does not read --radius" in capsys.readouterr().err

    def test_verify_coefficients_from_config_too(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": "verify", "parameters": {"gamma": 0.1}}))
        assert run_cli(self.VERIFY + ["--check", "identity", "--config", str(path)]) == 1
        assert "verify --check identity does not read --gamma" in capsys.readouterr().err
        assert run_cli(self.VERIFY + ["--check", "weighted", "--config", str(path)]) == 0


class TestSweepDeterminism:
    def test_region_sweep_byte_identical(self, tmp_path, capsys):
        args = ["sweep", "--module", "region", "--n", "3,4", "--q", "3,7",
                "--alpha", "0,0.25,0.5", "--format", "csv,json"]
        code = run_cli(args + ["--out", str(tmp_path / "a")])
        assert code == 0
        code = run_cli(args + ["--out", str(tmp_path / "b")])
        assert code == 0
        capsys.readouterr()
        a = (tmp_path / "a" / "sweep-region.csv").read_bytes()
        b = (tmp_path / "b" / "sweep-region.csv").read_bytes()
        assert a == b
        ja = (tmp_path / "a" / "sweep-region.json").read_bytes()
        jb = (tmp_path / "b" / "sweep-region.json").read_bytes()
        assert ja == jb

    def test_lane_emden_sweep_small(self, tmp_path, capsys):
        code = run_cli(["sweep", "--module", "lane-emden", "--n", "3",
                        "--q", "3", "--r", "1", "--out", str(tmp_path),
                        "--format", "csv"])
        assert code == 0
        capsys.readouterr()
        lines = (tmp_path / "sweep-lane-emden.csv").read_text().splitlines()
        assert lines[0].startswith("n,q,rexp,u0,v0,kappa,classification")
        assert len(lines) == 13   # 3 u0 x 4 kappa + header

    @pytest.mark.parametrize("flags", [["--n", "3.5"], ["--n", "x"], ["--q", "x"],
                                       ["--alpha", "0.1,y"]])
    def test_unparseable_list_exits_1(self, flags, capsys):
        assert run_cli(["sweep", "--module", "region"] + flags) == 1
        err = capsys.readouterr().err
        assert "not a comma list of" in err and "Traceback" not in err


class TestSweepVerdicts:
    """A shooting sweep exits 3 when any row fails any of its "_pass" verdicts."""

    PASSED = {"biharmonic": ("weak_bound_sweep", {"weak_pass": True}),
              "lane-emden": ("system_sweep", {"comparison_pass": True, "concavity_pass": True})}

    @pytest.mark.parametrize("module,field", [
        ("biharmonic", "weak_pass"),
        ("lane-emden", "comparison_pass"),
        ("lane-emden", "concavity_pass"),
    ])
    @pytest.mark.parametrize("verdict,code", [(True, 0), (None, 0), (False, 3)])
    def test_a_failed_verdict_exits_3(self, module, field, verdict, code, monkeypatch, capsys):
        sweep, passed = self.PASSED[module]
        rows = [{"n": 3, "q": 3.0, "classification": "positive-on-window", **passed},
                {"n": 3, "q": 3.0, "classification": "positive-on-window", **passed,
                 field: verdict}]
        monkeypatch.setattr(sweeps, sweep, lambda **kw: rows)
        assert run_cli(["sweep", "--module", module, "--n", "3", "--q", "3"]) == code
        assert capsys.readouterr().out == f"sweep {module}: 2 cases, {code // 3} failures\n"


class TestArtifactRunList:
    """The runs .github/artifact_runs.py checks parse, and cover every subcommand.

    A line that does not parse exits 1 at a commit and at its parent alike,
    and the two would compare equal.
    """

    LIST = Path(__file__).resolve().parents[1] / ".github" / "artifact-runs.txt"

    def test_lines_parse_with_json_csv_and_no_out(self):
        commands = set()
        for line in self.LIST.read_text().splitlines():
            if not line.strip() or line.startswith("#"):
                continue
            args = vars(cli._build_parser().parse_args(line.split()))
            assert args.get("format") == "json,csv", line
            assert "out" not in args and "config" not in args, line
            commands.add(args["command"])
        assert commands == set(cli._build_parser().commands)

    def test_one_command_list(self):
        assert set(cli.OPTIONS) == set(cli._COMMANDS) == set(cli._build_parser().commands)

    def test_every_flag_given_on_some_line(self):
        """Each flag of a subcommand's OPTIONS, and --tol where the subcommand offers it,
        is given on one of its lines, so the checker compares the bytes it moves."""
        parser = cli._build_parser()
        given = {command: set() for command in parser.commands}
        for line in self.LIST.read_text().splitlines():
            if line.strip() and not line.startswith("#"):
                args = vars(parser.parse_args(line.split()))
                given[args["command"]] |= set(args)
        for command, sub in parser.commands.items():
            offered = set(cli.OPTIONS[command]) | ({"tol"} & {a.dest for a in sub._actions})
            assert offered <= given[command], (command, sorted(offered - given[command]))

    def test_run_config_spelled_as_json_dumps(self, monkeypatch, tmp_path):
        """run-config.json is the json.dumps text it was before serialize.json_text wrote it."""
        configs = []
        monkeypatch.setattr(cli, "run", configs.append)
        runs = [line.split() for line in self.LIST.read_text().splitlines()
                if line.strip() and not line.startswith("#")]
        for argv in runs:
            cli.main(argv + ["--out", str(tmp_path / "out")])
        assert len(configs) == len(runs)
        configs.append(cli.RunConfig(command="verify", parameters={"exact": True},
                                     out="\u00e4", tol=1e-3))
        for cfg in configs:
            assert cfg.to_json() == json.dumps(asdict(cfg), sort_keys=True, indent=2)


def literal_defaults(command):
    """(dest, default) of each valued option of ``command`` that has a default in OPTIONS."""
    return [(dest, default) for dest, (kind, default, _) in cli.OPTIONS[command].items()
            if default is not None and default is not cli.REQUIRED and kind is not bool]


class TestHelp:
    """--help is rendered from OPTIONS: it exits 0 and shows each option's default."""

    @pytest.mark.parametrize("command", [None, *cli.OPTIONS])
    def test_exits_0_with_each_default(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli([command, "--help"] if command else ["--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        if command is None:
            assert all(name in text for name in cli.OPTIONS)
            return
        for dest, default in literal_defaults(command):
            rendered = f"{cli.OPTIONS[command][dest][2]} (default {default})"
            assert " ".join(rendered.split()) in text, dest


class TestTableDefaults:
    """A run without a flag runs as one given the flag at its OPTIONS default."""

    #: flags of a cheap run of each subcommand; the flag under test is dropped from them
    CHEAP = {
        "region": {"q": "7"},
        "solve-biharmonic": {"u0": "1", "z0": "2", "h": "0.5"},
        "verify": {"u0": "1", "z0": "2", "check": "weak", "h": "0.5"},
        "solve-system": {"u0": "0.71", "v0": "2.14", "h": "0.05", "r_max": "5"},
        "simulate-parabolic": {"p_exp": "2", "r_exp": "1", "nodes": "16", "t_final": "0.01",
                               "snapshots": "2"},
        "sweep": {"module": "region", "n": "3", "q": "3"},
    }
    #: the selector values under which a flag's default is read; None drops a flag
    READ_UNDER = {
        ("verify", "alpha"): {"check": "pointwise"},
        ("verify", "check"): {"exact": True, "u0": None, "z0": None, "r_max": "5", "h": "0.05"},
        ("simulate-parabolic", "radius"): {"geometry": "radial"},
        ("simulate-parabolic", "n"): {"geometry": "radial"},
        ("sweep", "r_exp"): {"module": "lane-emden", "h": "0.5"},
        ("sweep", "r_max"): {"module": "biharmonic", "h": "0.5"},
        ("sweep", "h"): {"module": "biharmonic"},
    }

    def outputs(self, argv, out, capsys):
        code = run_cli(argv + ["--format", "json,csv", "--out", str(out)])
        return code, capsys.readouterr().out, {
            path.name: path.read_bytes() for path in out.iterdir() if path.name != "run-config.json"}

    @pytest.mark.parametrize("command,dest,default", [
        (command, dest, default) for command in cli.OPTIONS
        for dest, default in literal_defaults(command)])
    def test_default_is_the_run_default(self, command, dest, default, tmp_path, capsys):
        flags = {**self.CHEAP[command], **self.READ_UNDER.get((command, dest), {})}
        flags.pop(dest, None)
        argv = [command] + [cli._flag(k) if v is True else f"{cli._flag(k)}={v}"
                            for k, v in flags.items() if v is not None]
        without = self.outputs(argv, tmp_path / "without", capsys)
        given = self.outputs(argv + [f"{cli._flag(dest)}={default}"], tmp_path / "given", capsys)
        assert without[0] in (0, 3) and without[2]
        assert given == without

    @pytest.mark.parametrize("dest,kind,table", [("n", int, sweeps.N_VALUES),
                                                 ("q", float, sweeps.Q_VALUES),
                                                 ("r_exp", float, sweeps.REXP_VALUES)])
    def test_sweep_table_default_is_the_library_table(self, dest, kind, table):
        assert repr(tuple(cli._numbers(kind, cli.OPTIONS["sweep"][dest][1]))) == repr(table)

    @pytest.mark.parametrize("command,dest,value", [
        *((command, dest, value) for command in ("solve-biharmonic", "verify", "solve-system")
          for dest, value in (("n", biharmonic.EXACT_N), ("q", biharmonic.EXACT_Q),
                              ("r_max", sweeps.DEFAULT_R_MAX))),
        ("region", "alpha", ALPHA_MAX), ("verify", "alpha", ALPHA_MAX)])
    def test_default_is_the_library_value(self, command, dest, value):
        assert cli.OPTIONS[command][dest][1] is value

    @pytest.mark.parametrize("module,sweep", [("lane-emden", sweeps.system_sweep),
                                              ("biharmonic", sweeps.weak_bound_sweep)])
    def test_sweep_without_flags_is_the_library_sweep(self, module, sweep, tmp_path, capsys):
        files = self.outputs(["sweep", "--module", module], tmp_path, capsys)[2]
        assert files[f"sweep-{module}.json"].decode() == serialize.json_text(sweep()) + "\n"

    def test_radial_run_without_nodes_is_the_library_ball(self, tmp_path, capsys):
        code, _, files = self.outputs(["simulate-parabolic", "--geometry", "radial", "--p-exp",
                                       "2", "--r-exp", "1", "--t-final", "0.01",
                                       "--snapshots", "2"], tmp_path, capsys)
        fld = parabolic.simulate(parabolic.RadialBall(), 2.0, 1.0, 1.0, 1.2, 0.01,
                                 num_snapshots=2)
        assert code == 0
        assert json.loads(files["run-manifest.json"])["geometry"] == fld.geometry.to_dict()
        rows = list(csv.DictReader(files["run-manifest.csv"].decode().splitlines()))
        for name in ("u", "v"):
            assert [float(row[name]) for row in rows] == getattr(fld, name).ravel().tolist()


class TestSimulateParabolic:
    def test_manifest(self, tmp_path, capsys):
        code = run_cli(["simulate-parabolic", "--p-exp", "2", "--r-exp", "1",
                        "--t-final", "0.1", "--snapshots", "8", "--nodes", "64",
                        "--perturb", "0.02", "--out", str(tmp_path),
                        "--format", "json,csv"])
        assert code == 0
        man = json.loads((tmp_path / "run-manifest.json").read_text())
        assert man["blow_up"] is False
        assert man["num_snapshots"] == 9
        assert (tmp_path / "run-manifest.csv").exists()

    @pytest.mark.parametrize("flags", [["--t-final", "-1"], ["--t-final", "nan"],
                                       ["--t-final", "inf"], ["--snapshots", "0"]])
    def test_bad_times_exit_2(self, flags, capsys):
        code = run_cli(["simulate-parabolic", "--p-exp", "2", "--r-exp", "1",
                        "--nodes", "64"] + flags)
        assert code == 2
        assert "precondition error" in capsys.readouterr().err


class TestExitCodeMapping:
    def test_integrator_error_maps_to_4(self):
        from biharm_lab.errors import IntegratorError

        def boom(cfg):
            raise IntegratorError("step underflow", location=1.0)

        cli._COMMANDS["_test_boom"] = boom
        try:
            code = cli.run(cli.RunConfig(command="_test_boom"))
        finally:
            del cli._COMMANDS["_test_boom"]
        assert code == 4

    @pytest.mark.parametrize("argv", [
        ["solve-biharmonic", "--u0", "1e-60", "--z0", "1"],
        ["solve-system", "--u0", "1", "--v0", "1e200", "--r-exp", "2"]],
        ids=["u0^-q", "v0^rexp"])
    def test_overflowing_start_maps_to_4(self, argv, capsys):
        # the kernel's even-series start overflows before the first step
        assert run_cli(argv + ["--h", "0.5"]) == 4
        err = capsys.readouterr().err
        assert "integration failed at r = 0" in err and "Traceback" not in err


class TestClosedStdout:
    """A reader that closes stdout early, as `| head -c 10` does, costs the run nothing."""

    @pytest.mark.parametrize("argv,code", [
        (["solve-system", "--u0", "0.71", "--v0", "2.14", "--h", "0.05", "--r-max", "5"], 0),
        (["verify", "--u0", "1.0", "--z0", "1.8385", "--n", "3", "--q", "2", "--check",
          "weak", "--r-max", "20"], 3),
        (["sweep", "--module", "region", "--q", "7", "--alpha", "0.5"], 0)],
        ids=["solve-system", "verify-exit-3", "sweep"])
    def test_artifacts_exit_code_and_quiet_stderr(self, argv, code, tmp_path, capsys):
        import os
        import subprocess
        import sys
        argv = argv + ["--format", "json,csv", "--out"]
        assert run_cli(argv + [str(tmp_path / "open")]) == code
        capsys.readouterr()
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        # the read end is closed before the child starts, so its first write
        # to stdout meets a broken pipe, whatever the timing
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            out = subprocess.run([sys.executable, "-m", "biharm_lab.cli", *argv,
                                  str(tmp_path / "closed")], env=env, stdout=write_end,
                                 stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert (out.returncode, out.stderr) == (code, "")
        names = sorted(p.name for p in (tmp_path / "open").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "closed").iterdir())
        for name in names:
            if name != "run-config.json":   # it names its --out
                assert ((tmp_path / "open" / name).read_bytes()
                        == (tmp_path / "closed" / name).read_bytes()), name


class TestRadialParabolicCLI:
    def test_radial_geometry_manifest(self, tmp_path):
        code = run_cli(["simulate-parabolic", "--p-exp", "2", "--r-exp", "1",
                        "--geometry", "radial", "--nodes", "64", "--n", "3",
                        "--t-final", "0.05", "--snapshots", "4", "--perturb",
                        "0.02", "--out", str(tmp_path)])
        assert code == 0
        man = json.loads((tmp_path / "run-manifest.json").read_text())
        assert man["geometry"]["kind"] == "radial"
        assert man["geometry"]["n"] == 3

    def test_radial_perturbation_is_mirror_symmetric(self, tmp_path):
        # one period of cos over [0, R]: zero slope at the axis and at the wall
        assert run_cli(["simulate-parabolic", "--p-exp", "2", "--r-exp", "1",
                        "--geometry", "radial", "--nodes", "512", "--t-final", "0.05",
                        "--snapshots", "4", "--perturb", "0.02", "--format", "csv",
                        "--out", str(tmp_path)]) == 0
        with open(tmp_path / "run-manifest.csv") as f:
            rows = [row for row in csv.DictReader(f) if float(row["t"]) == 0.0]
        assert len(rows) == 513
        for name in ("u", "v"):
            col = np.array([float(row[name]) for row in rows])
            assert np.ptp(col) > 0.03
            np.testing.assert_allclose(col, col[::-1], rtol=0, atol=1e-14)

    def test_no_lapack_exits_2(self, monkeypatch, capsys, tmp_path):
        # a radial run is refused on one line naming what was searched; a
        # periodic run needs no LAPACK
        monkeypatch.setattr(parabolic, "_lapack_libraries", lambda: iter(()))
        argv = ["simulate-parabolic", "--p-exp", "2", "--r-exp", "1", "--nodes", "16",
                "--t-final", "0.05", "--snapshots", "4"]
        assert run_cli(argv + ["--geometry", "radial", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("precondition error: the radial Crank-Nicolson half-step needs "
                              "LAPACK's dgtsv: none of scipy_dgtsv_64_, ")
        assert err.endswith("(searched: no library found)\n") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []
        assert run_cli(argv + ["--geometry", "periodic"]) == 0


class TestRefinementOrderInReport:
    def test_exact_aux_check_reports_order(self, capsys):
        code = run_cli(["verify", "--exact", "--check", "aux-ineq",
                        "--r-max", "10", "--h", str(10 / 4096)])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)[0]
        assert rep["refinement_order"] >= 1.5

    @pytest.mark.parametrize("window,order", [
        (["--h", "0.3"], None),                    # N = 67, not a multiple of 4
        (["--r-max", "6", "--h", "0.1"], None),    # N = 60: N/4 below the 16-interval floor
        (["--r-max", "6.4", "--h", "0.1"], 2.0),   # N = 64: N/4 on the floor
    ])
    def test_order_only_over_nested_verification_grids(self, window, order, capsys):
        assert run_cli(["verify", "--exact", "--check", "aux-ineq"] + window) == 0
        rep = json.loads(capsys.readouterr().out)[0]
        if order is None:
            assert rep["refinement_order"] is None
        else:
            assert rep["refinement_order"] == pytest.approx(order, abs=0.01)


class TestTolScope:
    """--tol exists where the printed reports decide the exit code."""

    SYSTEM = ["solve-system", "--n", "3", "--q", "3", "--r-exp", "2", "--u0", "1",
              "--v0", "0.7", "--r-max", "2", "--h", "0.01"]

    def test_solve_system_honours_tol(self, capsys):
        assert run_cli(self.SYSTEM) == 3
        capsys.readouterr()
        assert run_cli(self.SYSTEM + ["--tol", "1"]) == 0
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert reports and all(rep["tol"] == 1.0 for rep in reports)

    @pytest.mark.parametrize("argv", [
        ["region", "--q", "7"],
        ["solve-biharmonic", "--u0", "1", "--z0", "2", "--h", "0.5"],
        ["simulate-parabolic", "--p-exp", "2", "--r-exp", "1", "--nodes", "64"],
        ["sweep", "--module", "region"],
    ])
    def test_tol_refused_elsewhere(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv + ["--tol", "0.1"])
        assert exc.value.code == 1
        assert "--tol" in capsys.readouterr().err

    def test_config_tol_refused_elsewhere(self, tmp_path, capsys):
        cfg = cli.RunConfig(command="region", parameters={"q": 7.0}, tol=0.1)
        path = tmp_path / "cfg.json"
        path.write_text(cfg.to_json())
        with pytest.raises(SystemExit) as exc:
            run_cli(["region", "--config", str(path)])
        assert exc.value.code == 1
        assert "unrecognized arguments: --tol=0.1" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_non_finite_tol_exits_2(self, tol, capsys):
        code = run_cli(["verify", "--exact", "--check", "sharp", "--r-max", "10",
                        "--h", "0.01", f"--tol={tol}"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tol must be finite" in captured.err


class TestParabolicGeometryCLI:
    @pytest.mark.parametrize("flags,message", [
        (["--nodes", "0"], "num_nodes must be an integer in [3, 4194304]"),
        (["--nodes", "2"], "num_nodes must be an integer in [3, 4194304]"),
        (["--length", "-1"], "length must be finite and positive"),
        (["--length", "nan"], "length must be finite and positive"),
        (["--geometry", "radial", "--radius", "nan"], "radius must be finite and positive"),
        (["--geometry", "radial", "--radius", "0"], "radius must be finite and positive"),
        (["--geometry", "radial", "--nodes", "1"],
         "num_intervals must be an integer in [3, 4194304]"),
        (["--geometry", "radial", "--nodes", "2"],
         "num_intervals must be an integer in [3, 4194304]"),
    ])
    def test_bad_geometry_exits_2(self, flags, message, capsys):
        code = run_cli(["simulate-parabolic", "--p-exp", "2", "--r-exp", "1",
                        "--t-final", "0.01"] + flags)
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


class TestParabolicInputGuards:
    BASE = ["simulate-parabolic", "--p-exp", "2", "--r-exp", "1", "--nodes", "64",
            "--t-final", "0.01"]

    @pytest.mark.parametrize("flags", [["--u0", "nan"], ["--v0", "nan"],
                                       ["--perturb", "nan"], ["--u0", "inf"],
                                       ["--v0", "inf"]])
    def test_nan_initial_data_exits_2(self, flags, capsys):
        assert run_cli(self.BASE + flags) == 2
        err = capsys.readouterr().err
        assert "strictly positive" in err and "Traceback" not in err

    @pytest.mark.parametrize("factor", ["nan", "-1", "1", "inf"])
    def test_bad_blowup_factor_exits_2(self, factor, capsys):
        assert run_cli(self.BASE + [f"--blowup-factor={factor}"]) == 2
        assert "blowup_factor must be finite and > 1" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_radial_dimension_below_one_exits_2(self, n, capsys):
        assert run_cli(self.BASE + ["--geometry", "radial", "--n", n]) == 2
        assert "dimension n must be an integer in [1, 4194304]" in capsys.readouterr().err

    def run_config(self, params, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(cli.RunConfig(command="simulate-parabolic", parameters=params).to_json())
        with pytest.raises(SystemExit) as exc:
            run_cli(["simulate-parabolic", "--p-exp", "2", "--r-exp", "1", "--config", str(path)])
        return exc.value.code

    def test_non_integer_dimension_in_config_exits_2(self, tmp_path, capsys):
        """A config count is parsed as its flag's text: 2.5 is refused (exit 1), never truncated."""
        assert self.run_config({"geometry": "radial", "n": 2.5, "nodes": 64, "t_final": 0.01},
                               tmp_path) == 1
        err = capsys.readouterr().err
        assert "argument --n: invalid int value: '2.5'" in err and "Traceback" not in err

    def test_non_finite_exponent_exits_2(self, capsys):
        assert run_cli(self.BASE + ["--p-exp", "inf"]) == 2
        assert "p_exp must be finite and positive, got inf" in capsys.readouterr().err

    @pytest.mark.parametrize("params,message", [
        ({"nodes": 64.9}, "argument --nodes: invalid int value: '64.9'"),
        ({"geometry": "radial", "nodes": 64.5}, "argument --nodes: invalid int value: '64.5'"),
        ({"nodes": 64, "snapshots": 4.5}, "argument --snapshots: invalid int value: '4.5'"),
    ])
    def test_non_integer_size_in_config_exits_1(self, params, message, tmp_path, capsys):
        assert self.run_config(dict(params, t_final=0.01), tmp_path) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("n", ["1", "2"])
    def test_low_radial_dimensions_run(self, n, tmp_path):
        # radial Laplacians in one and two dimensions are valid operators
        assert run_cli(self.BASE + ["--geometry", "radial", "--n", n,
                                    "--out", str(tmp_path)]) == 0
        man = json.loads((tmp_path / "run-manifest.json").read_text())
        assert man["geometry"]["n"] == int(n) and man["blow_up"] is False


class TestFloatRange:
    """Domain-valid inputs at the ends of the float range run or are refused, without a traceback."""

    STEEP = ["verify", "--q", "100", "--u0", "1", "--z0", "1e6", "--h", "0.01953125"]

    def test_huge_alpha_region_is_inadmissible(self, capsys):
        # (1 - 2 alpha)^2 overflows: the cell is reported as the region sweep reports it
        assert run_cli(["region", "--n", "3", "--q", "7", "--alpha", "1e200"]) == 0
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert out["admissible"] is False
        assert "alpha <= 1/2 violated (alpha = 1e+200)" in out["reasons"]
        assert out["coefficients"]["I1"] is None and out["coefficients"]["I3"] is None
        assert captured.err == ""

    @pytest.mark.parametrize("argv,message", [
        (["verify", "--exact", "--check", "pointwise", "--alpha", "1e300", "--beta", "1"],
         "precondition error: alpha <= 1/2 violated (alpha = 1e+300)"),
        (["verify", "--exact", "--check", "aux-ineq", "--alpha", "1e200", "--beta", "1e200"],
         "precondition error: the aux-inequality coefficients at alpha = 1e+200, "
         "beta = 1e+200 are not finite"),
        (["solve-biharmonic", "--n", "3", "--q", "7", "--u0", "1", "--z0", "2",
          "--r-max", "1e-300", "--h", "1e-301"],
         "precondition error: h must have h^2 and 6/h^2 finite and positive, got 6.25e-302"),
        (["simulate-parabolic", "--p-exp", "2", "--r-exp", "1", "--length", "1e300",
          "--snapshots", "4", "--nodes", "16"],
         "precondition error: length/num_nodes must have h^2 and 4/h^2 finite and positive"),
        (["simulate-parabolic", "--p-exp", "2", "--r-exp", "1", "--length", "1e-300",
          "--snapshots", "4", "--nodes", "16"],
         "precondition error: length/num_nodes must have h^2 and 4/h^2 finite and positive"),
        (["simulate-parabolic", "--p-exp", "2", "--r-exp", "1", "--geometry", "radial",
          "--radius", "1e300", "--snapshots", "4", "--nodes", "16"],
         "precondition error: radius/num_intervals must have h^2 and 6/h^2 finite and positive"),
        (["sweep", "--module", "biharmonic", "--n", "3", "--q", "1e300"],
         "precondition error: u0**(-(q-1)/2) at q = 1e+300 must be finite and positive"),
        (["sweep", "--module", "lane-emden", "--n", "3", "--q", "1e300"],
         "precondition error: u0**sigma at q = 1e+300 must be finite and positive"),
        # members at u0 = 0.6 reach u of about 4e6, where u^(-99/2) underflows
        (["sweep", "--module", "biharmonic", "--n", "3", "--q", "100"],
         "precondition error: u^(-(q-1)/2) underflows to 0 at r = "),
        (STEEP + ["--check", "weak"], "precondition error: u^(-(q-1)/2) underflows to 0 at r = "),
        # the spacing passes, but the half-step's matrix is singular in floating point
        (["simulate-parabolic", "--p-exp", "2", "--r-exp", "1", "--geometry", "radial",
          "--radius", "1e-10", "--snapshots", "4", "--nodes", "16"],
         "precondition error: the radial Crank-Nicolson half-step over s = "),
    ])
    def test_refused_exits_2(self, argv, message, capsys):
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1

    def test_gradient_bound_reads_no_power_field(self, capsys):
        # from r = 4.55 on, u is past 3.4e6, where u^(-99/2) underflows; the
        # gradient-only margin lap u - |grad u|^2/(2u) never reads it
        assert run_cli(self.STEEP + ["--check", "gradient"]) == 0
        captured = capsys.readouterr()
        rep = json.loads(captured.out)[0]
        assert rep["pass"] is True and captured.err == ""
        prof = biharmonic.shoot(3, 100.0, 1.0, 1e6, 20.0, 1024)
        direct = verify.verify_gradient_bound(prof)
        u, du, z = prof.u.values, prof.du.values, prof.z.values
        assert direct.margin.values.tobytes() == (z - 0.5 * (du * du / u)).tobytes()
        assert rep["min_margin"] == direct.min_margin

    def test_cli_starts_without_scipy(self):
        # no run imports SciPy, the radial parabolic stepper included: its
        # LAPACK is NumPy's; with the import blocked, any SciPy import fails
        import os
        import subprocess
        import sys
        from pathlib import Path
        code = ("import sys; sys.modules['scipy'] = None; from biharm_lab import cli; "
                "assert cli.main(['region', '--q', '7']) == 0; "
                "assert cli.main(['simulate-parabolic', '--p-exp', '2', '--r-exp', '1', "
                "'--geometry', 'radial', '--nodes', '16', '--t-final', '0.05', "
                "'--snapshots', '4']) == 0; "
                "print(sys.modules['scipy'], 'scipy.linalg' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout.splitlines()
        assert out[-1] == "None False"
