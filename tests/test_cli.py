"""CLI contract: exit codes, JSON/CSV output, config precedence."""
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from slipball import cli

FAST_GRID = ["--grid-nr", "8", "--grid-ntheta", "8", "--grid-nphi", "8",
             "--boundary-ntheta", "32", "--boundary-nphi", "64"]


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyCommand:
    def test_default_family_passes(self, capsys, tmp_path):
        report = tmp_path / "out.json"
        code, out, err = run_cli(capsys, ["verify", "--family", "default",
                                          "--report", str(report)] + FAST_GRID)
        assert code == 0
        assert "overall: PASS" in out
        doc = json.loads(report.read_text())
        by_name = {c["name"]: c for c in doc["checks"]}
        assert by_name["persistency_failure_theta"]["norm_sup"] >= 0.9
        assert by_name["persistency_failure_theta"]["pass"]

    def test_h1zero_family_fails(self, capsys, tmp_path):
        report = tmp_path / "out.json"
        code, out, _ = run_cli(capsys, ["verify", "--family", "h1zero",
                                        "--report", str(report)] + FAST_GRID)
        assert code == 2
        doc = json.loads(report.read_text())
        by_name = {c["name"]: c for c in doc["checks"]}
        assert by_name["persistency_failure_theta"]["details"]["verdict"] == (
            "no contradiction exhibited")

    def test_grid_below_minimum(self, capsys):
        code, _, err = run_cli(capsys, ["verify", "--grid-ntheta", "4"])
        assert code == 1
        assert "n_theta" in err

    def test_unknown_family(self, capsys):
        code, _, err = run_cli(capsys, ["verify", "--family", "bogus"] + FAST_GRID)
        assert code == 1

    def test_non_finite_viscosity_exits_one(self, capsys, tmp_path):
        report = tmp_path / "out.json"
        code, out, err = run_cli(capsys, ["verify", "--nu", "nan", "--report", str(report)]
                                 + FAST_GRID)
        assert code == 1
        assert "nu must be finite" in err and not report.exists()

    @pytest.mark.parametrize("label", ["perturbed:nan", "perturbed:inf"])
    def test_non_finite_perturbation_exits_one(self, capsys, label):
        code, out, err = run_cli(capsys, ["verify", "--family", label] + FAST_GRID)
        assert code == 1
        assert "finite" in err and out == ""

    def test_slip_spots_use_run_fd_config(self, capsys, monkeypatch):
        from slipball import oracle
        seen = []
        original = oracle.fd_curl_spherical_grid

        def spy(components_fn, r, theta, phi, cfg=oracle.FDConfig()):
            seen.append((np.size(r), cfg))
            return original(components_fn, r, theta, phi, cfg)

        monkeypatch.setattr(oracle, "fd_curl_spherical_grid", spy)
        code, _, _ = run_cli(capsys, ["verify", "--oracle-step", "1e-3", "--no-richardson"]
                             + FAST_GRID)
        assert code in (0, 2)  # the coarser oracle may fail a tolerance; the run completes
        # one batched call over the five spot nodes, with the run's FDConfig
        assert seen == [(5, oracle.FDConfig(step=1e-3, richardson=False))]

    def test_byte_identical_reports(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            code, _, _ = run_cli(capsys, ["verify", "--no-timestamp",
                                          "--report", str(p)] + FAST_GRID)
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert "timestamp" not in json.loads(paths[0].read_text())


class TestConfigFile:
    def test_config_and_flag_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "family": "h1zero",
            "grid": {"n_r": 8, "n_theta": 8, "n_phi": 8},
            "boundary_grid": {"n_theta": 32, "n_phi": 64},
        }))
        report = tmp_path / "r.json"
        # flag overrides the config family
        code, _, _ = run_cli(capsys, ["verify", "--config", str(cfg),
                                      "--family", "default", "--report", str(report)])
        assert code == 0
        assert json.loads(report.read_text())["family"] == "default"
        assert json.loads(report.read_text())["grid"]["interior"]["n_r"] == 8

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": {"n_x": 10}}))
        code, _, err = run_cli(capsys, ["verify", "--config", str(cfg)])
        assert code == 1
        assert "grid.n_x" in err

    def test_malformed_json(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, _, err = run_cli(capsys, ["verify", "--config", str(cfg)])
        assert code == 1
        assert "line" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, ["verify", "--config", "/no/such/file.json"])
        assert code == 1


class TestEvalCommand:
    def test_boundary_point(self, capsys):
        code, out, _ = run_cli(capsys, ["eval", "--r", "1", "--theta", "1.5707963",
                                        "--phi", "0.7853982"])
        assert code == 0
        doc = json.loads(out)
        assert doc["u"]["r"] == 0.0
        assert doc["boundary"]["curl_v_theta"] == pytest.approx(-1.0, abs=1e-4)

    def test_support_point_all_zero(self, capsys):
        code, out, _ = run_cli(capsys, ["eval", "--r", "0.1", "--theta", "1.0",
                                        "--phi", "0"])
        assert code == 0
        doc = json.loads(out)
        for key in ("u", "omega", "v"):
            assert all(v == 0.0 for v in doc[key].values())
        assert "boundary" not in doc

    def test_outside_ball(self, capsys):
        code, _, err = run_cli(capsys, ["eval", "--r", "2", "--theta", "1", "--phi", "0"])
        assert code == 1
        assert "unit ball" in err

    @pytest.mark.parametrize("coord", ["--r", "--theta", "--phi"])
    def test_nan_coordinate_exits_one(self, capsys, coord):
        argv = {"--r": "0.8", "--theta": "1.0", "--phi": "1.0"}
        argv[coord] = "nan"
        code, out, err = run_cli(capsys, ["eval"] + [t for kv in argv.items() for t in kv])
        assert code == 1
        assert "non-finite" in err and out == ""

    def test_interior_values_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, ["eval", "--r", "0.9", "--theta", "1.5707963267948966",
                                        "--phi", "0.7853981633974483"])
        doc = json.loads(out)
        # parsing the JSON reproduces the doubles exactly; spot-check one
        from slipball import family
        f = family.default_field()
        _, ut, _ = f.u_components(0.9, 1.5707963267948966, 0.7853981633974483)
        assert doc["u"]["theta"] == ut


class TestSampleCommand:
    def test_boundary_sample_row_count(self, capsys, tmp_path):
        out_path = tmp_path / "g.csv"
        code, _, _ = run_cli(capsys, ["sample", "--field", "curl_v_boundary",
                                      "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "r,theta,phi,curl_v_theta,curl_v_phi"
        assert len(lines) == 1 + 64 * 128

    def test_u_surface_sample_radial_column_zero(self, capsys, tmp_path):
        out_path = tmp_path / "u.csv"
        code, _, _ = run_cli(capsys, ["sample", "--field", "u", "--on", "surface",
                                      "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "r,theta,phi,c_r,c_theta,c_phi"
        assert all(line.split(",")[3] == "0" for line in lines[1:])

    def test_rerun_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (a, b):
            run_cli(capsys, ["sample", "--field", "omega", "--out", str(p)])
        assert a.read_bytes() == b.read_bytes()

    def test_volume_sample(self, capsys, tmp_path):
        out_path = tmp_path / "v.csv"
        code, _, _ = run_cli(capsys, ["sample", "--field", "v", "--on", "volume",
                                      "--out", str(out_path),
                                      "--grid-nr", "8", "--grid-ntheta", "8",
                                      "--grid-nphi", "8"])
        assert code == 0
        assert len(out_path.read_text().splitlines()) == 1 + 8 * 8 * 8

    def test_unknown_selector(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["sample", "--field", "vorticity",
                                        "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "unknown field selector" in err

    def test_values_round_trip_17_digits(self, capsys, tmp_path):
        out_path = tmp_path / "c.csv"
        run_cli(capsys, ["sample", "--field", "curl_v_boundary", "--out", str(out_path)])
        import numpy as np
        from slipball import family, verify
        f = family.default_field()
        mesh = verify.GridSpec(n_theta=64, n_phi=128, boundary_only=True).boundary_mesh()
        expected = f.boundary_curl_theta(mesh["theta"], mesh["phi"])
        got = np.array([float(line.split(",")[3])
                        for line in out_path.read_text().splitlines()[1:]])
        assert np.array_equal(got, expected)


class TestSweepCommand:
    def test_default_sweep(self, capsys, tmp_path):
        report = tmp_path / "sweep.json"
        code, out, _ = run_cli(capsys, ["sweep", "--boundary-ntheta", "48",
                                        "--boundary-nphi", "96", "--report", str(report)])
        assert code == 0
        assert "slope 1.0" in out
        doc = json.loads(report.read_text())
        assert abs(doc["slope"] - 1.0) <= 0.05

    def test_equal_epsilons(self, capsys):
        code, _, err = run_cli(capsys, ["sweep", "--epsilons", "1e-2,1e-2,1e-2,1e-2"])
        assert code == 1
        assert "degenerate" in err.lower()

    def test_non_finite_epsilon_exits_one(self, capsys):
        code, _, err = run_cli(capsys, ["sweep", "--epsilons", "nan,1e-1,1e-2,1e-3"])
        assert code == 1
        assert "finite" in err

    def test_too_few_epsilons(self, capsys):
        code, _, err = run_cli(capsys, ["sweep", "--epsilons", "1e-1,1e-2"])
        assert code == 1

    def test_zero_eps_row_excluded(self, capsys):
        code, out, _ = run_cli(capsys, ["sweep", "--boundary-ntheta", "32",
                                        "--boundary-nphi", "64",
                                        "--epsilons", "0,1e-1,1e-2,1e-3,1e-4"])
        assert code == 0
        zero_row = [l for l in out.splitlines() if l.strip().startswith("0 ")]
        assert len(zero_row) == 1 and zero_row[0].rstrip().endswith("no")


class TestUsageErrors:
    def test_unknown_flag_exits_one(self, capsys):
        code, _, _ = run_cli(capsys, ["verify", "--does-not-exist"])
        assert code == 1

    def test_missing_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, [])
        assert code == 1


def test_numpy_fallback_env_flag():
    # Forward the caller's environment so the child imports the same slipball
    # (from a checkout via PYTHONPATH or from an install); only the flag changes.
    import slipball
    pkg_root = os.path.dirname(os.path.dirname(slipball.__file__))
    env = dict(os.environ, SLIPBALL_NUMBA="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c",
         "import slipball, slipball._backend as b; "
         "print(slipball.BACKEND); print(b._requested())"],
        capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    backend, requested = out.stdout.split()
    assert backend == "numpy"
    assert requested == "False"
