import json
import math

import pytest

from biharm_lab import cli


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

    def test_conflicting_exact_params_exit_1(self):
        code = run_cli(["verify", "--exact", "--q", "5", "--check", "weak"])
        assert code == 1

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
        path = tmp_path / "cfg.json"
        path.write_text(cli.RunConfig(command=argv[0], parameters=params).to_json())
        assert run_cli(argv + ["--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "dimension n must be an integer in [3, 4194304], got 3.7" in captured.err


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


class TestConfigParameters:
    """A config value gets the checks of its flag; a null is not given."""

    def run_config(self, argv, params, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"command": argv[0], "parameters": params}))
        return run_cli(argv + ["--config", str(path)])

    @pytest.mark.parametrize("argv,params,message", [
        (["region"], {"q": "abc"}, "q must be a number, got 'abc'"),
        (["region"], {"q": True}, "q must be a number, got True"),
        (["region"], {"q": 7.0, "n": "3"}, "n must be a number, got '3'"),
        (["region"], {"q": 7.0, "alpah": 0.3}, "unknown parameter 'alpah'"),
        (["region"], {"q": 7.0, "tol": 0.1}, "unknown parameter 'tol'"),
        (["region"], {"q": 10**400}, "q must be a number, got 1000"),
        (["region"], {"q": None}, "region needs --q"),
        (["verify"], {"exact": True, "check": "bogus"}, "check must be one of"),
        (["simulate-parabolic", "--p-exp", "2", "--r-exp", "1"],
         {"geometry": "sphere"}, "geometry must be one of periodic, radial"),
    ])
    def test_refused_exit_1(self, argv, params, message, tmp_path, capsys):
        assert self.run_config(argv, params, tmp_path) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err and "Traceback" not in captured.err

    def test_null_is_not_given(self, tmp_path, capsys):
        assert self.run_config(["region"], {"q": 7.0, "alpha": None, "beta": None},
                               tmp_path) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["params"]["alpha"] == 0.5
        assert out["beta_max_used"] == pytest.approx(math.sqrt(3 / 8), rel=1e-12)


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


class TestRefinementOrderInReport:
    def test_exact_aux_check_reports_order(self, capsys):
        code = run_cli(["verify", "--exact", "--check", "aux-ineq",
                        "--r-max", "10", "--h", str(10 / 4096)])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)[0]
        assert rep["refinement_order"] >= 1.5


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
        assert run_cli(["region", "--config", str(path)]) == 1
        assert "takes no tol" in capsys.readouterr().err

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

    def test_non_integer_dimension_in_config_exits_2(self, tmp_path, capsys):
        cfg = cli.RunConfig(command="simulate-parabolic", parameters={
            "geometry": "radial", "n": 2.5, "nodes": 64, "t_final": 0.01})
        path = tmp_path / "cfg.json"
        path.write_text(cfg.to_json())
        assert run_cli(["simulate-parabolic", "--p-exp", "2", "--r-exp", "1",
                        "--config", str(path)]) == 2
        assert "dimension n must be an integer in [1, 4194304]" in capsys.readouterr().err

    def test_non_finite_exponent_exits_2(self, capsys):
        assert run_cli(self.BASE + ["--p-exp", "inf"]) == 2
        assert "p_exp must be finite and positive, got inf" in capsys.readouterr().err

    @pytest.mark.parametrize("params,message", [
        ({"nodes": 64.9}, "num_nodes must be an integer in [3, 4194304], got 64.9"),
        ({"geometry": "radial", "nodes": 64.5},
         "num_intervals must be an integer in [3, 4194304], got 64.5"),
        ({"nodes": 64, "snapshots": 4.5},
         "num_snapshots must be an integer in [1, 4194304], got 4.5"),
    ])
    def test_non_integer_size_in_config_exits_2(self, params, message, tmp_path, capsys):
        cfg = cli.RunConfig(command="simulate-parabolic", parameters=dict(params, t_final=0.01))
        path = tmp_path / "cfg.json"
        path.write_text(cfg.to_json())
        assert run_cli(["simulate-parabolic", "--p-exp", "2", "--r-exp", "1",
                        "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("n", ["1", "2"])
    def test_low_radial_dimensions_run(self, n, tmp_path):
        # radial Laplacians in one and two dimensions are valid operators
        assert run_cli(self.BASE + ["--geometry", "radial", "--n", n,
                                    "--out", str(tmp_path)]) == 0
        man = json.loads((tmp_path / "run-manifest.json").read_text())
        assert man["geometry"]["n"] == int(n) and man["blow_up"] is False
