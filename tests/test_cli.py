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
