"""CLI contract: exit codes, JSON/CSV output, config precedence."""
import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slipball
from slipball import cli, family, verify

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
        # the viscosity is fixed at 1; the retired --nu is a usage error
        report = tmp_path / "out.json"
        code, out, err = run_cli(capsys, ["verify", "--nu", "nan", "--report", str(report)]
                                 + FAST_GRID)
        assert code == 1
        assert "unrecognized arguments: --nu nan" in err
        assert out == "" and not report.exists()

    @pytest.mark.parametrize("form", ["flag", "config"])
    def test_negative_seed_exits_one_before_any_check(self, capsys, tmp_path, monkeypatch,
                                                      form):
        # used to run three checks, then end in numpy's raw ValueError traceback;
        # run_full_verification refuses the seed before any check runs
        for name in ("check_divergence_free", "boundary_pass"):
            monkeypatch.setattr(verify, name, lambda *a, **k: pytest.fail("a check ran"))
        report = tmp_path / "out.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -1}))
        seed = ["--seed", "-1"] if form == "flag" else ["--config", str(cfg)]
        code, out, err = run_cli(capsys, ["verify", *seed, "--report", str(report)] + FAST_GRID)
        assert code == 1
        assert err == "error: seed must be non-negative, got -1\n"
        assert out == "" and not report.exists()

    @pytest.mark.parametrize("form, shown", [("flag", "-1.0"), ("config", "-1")])
    def test_negative_viscosity_exits_one_before_any_check(self, capsys, tmp_path,
                                                           monkeypatch, form, shown):
        # the viscosity is fixed at 1: --nu and the nu config key are refused
        monkeypatch.setattr(verify, "run_full_verification",
                            lambda *a, **k: pytest.fail("a check ran"))
        report = tmp_path / "out.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nu": json.loads(shown)}))
        nu = ["--nu", shown] if form == "flag" else ["--config", str(cfg)]
        code, out, err = run_cli(capsys, ["verify", *nu, "--report", str(report)] + FAST_GRID)
        assert code == 1
        assert (f"unrecognized arguments: --nu {shown}" in err if form == "flag"
                else err == "error: unknown config key 'nu'\n")
        assert out == "" and not report.exists()

    def test_step_1e_2_runs_every_check_on_the_shipped_boundary_grid(self, capsys, tmp_path):
        # the slip check's first FD-curl spot used to sit at theta = pi/256,
        # too near the pole for step 1e-2, so this run stopped before any
        # check; the spots now lie on the support, far from the poles
        report = tmp_path / "out.json"
        code, out, err = run_cli(capsys, ["verify", "--oracle-step", "1e-2", "--grid-nr", "8",
                                          "--grid-ntheta", "8", "--grid-nphi", "8",
                                          "--report", str(report)])
        assert code in (0, 2), err  # the coarse step may fail a tolerance; the run completes
        doc = json.loads(report.read_text())
        assert doc["grid"]["boundary"] == {"n_theta": 128, "n_phi": 256, "boundary_only": True}
        assert [c["name"] for c in doc["checks"]] == [
            "divergence_free", "slip_u_dot_n", "slip_omega_cross_n",
            "persistency_failure_theta", "persistency_failure_phi",
            "oracle_agreement_curl", "navier_traction"]
        assert not any(c["details"].get("skipped") for c in doc["checks"])
        assert doc["checks"][2]["details"]["oracle_spot_points"] == verify.ORACLE_SPOTS

    def test_every_flag_reaches_the_run(self, capsys, tmp_path):
        report = tmp_path / "out.json"
        code, _, _ = run_cli(capsys, [
            "verify", "--family", "perturbed:1e-3", "--report", str(report), "--no-timestamp",
            "--grid-nr", "8", "--grid-ntheta", "9", "--grid-nphi", "10",
            "--grid-margin-r", "0.06", "--grid-margin-theta", "0.07",
            "--boundary-ntheta", "32", "--boundary-nphi", "66",
            "--oracle-step", "2e-4", "--richardson", "--seed", "99"])
        assert code in (0, 2)  # the coarser oracle may fail a tolerance; the run completes
        doc = json.loads(report.read_text())
        assert doc["family"] == "perturbed:1e-3" and "timestamp" not in doc
        assert doc["grid"] == {
            "interior": {"n_r": 8, "n_theta": 9, "n_phi": 10, "margin_r": 0.06,
                         "margin_theta": 0.07, "boundary_only": False},
            "boundary": {"n_theta": 32, "n_phi": 66, "boundary_only": True}}
        assert doc["oracle"] == {"step": 2e-4, "richardson": True, "seed": 99}

    @pytest.mark.parametrize("label", ["perturbed:nan", "perturbed:inf"])
    def test_non_finite_perturbation_exits_one(self, capsys, label):
        code, out, err = run_cli(capsys, ["verify", "--family", label] + FAST_GRID)
        assert code == 1
        assert "finite" in err and out == ""

    @pytest.mark.parametrize("argv", [["verify"] + FAST_GRID, ["sweep"]])
    def test_overflowing_perturbation_exits_one(self, capsys, argv):
        # perturbed_profile rejects it before any evaluation: no numpy warning
        code, out, err = run_cli(capsys, argv + ["--family", "perturbed:1e308"])
        assert code == 1 and out == ""
        assert err == ("error: perturbation size must be finite and at most half the "
                       "largest float, got 1e+308\n")

    @pytest.mark.parametrize("label, grid, message", [
        ("perturbed:1e200", FAST_GRID, "divergence_free gives a non-finite norm_l2 (inf)"),
        ("perturbed:-1e200", FAST_GRID, "divergence_free gives a non-finite norm_l2 (inf)"),
        ("perturbed:1e160", FAST_GRID, "slip_omega_cross_n gives a non-finite norm_l2 (inf)"),
        ("perturbed:1e200", [], "divergence_free gives a non-finite norm_l2 (inf)"),
    ])
    def test_overflowing_family_exits_one_and_keeps_the_report(self, capsys, tmp_path,
                                                               label, grid, message):
        # the overflow warnings are errors under this suite, so none may escape
        report = tmp_path / "out.json"
        report.write_text("earlier report\n")
        code, out, err = run_cli(capsys, ["verify", "--family", label,
                                          "--report", str(report)] + grid)
        assert code == 1
        assert err == f"error: check {message}\n"
        assert out == "" and report.read_text() == "earlier report\n"

    def test_report_text_is_built_before_the_file_is_opened(self, capsys, tmp_path,
                                                            monkeypatch):
        report = tmp_path / "out.json"
        report.write_text("earlier report\n")

        def failing_to_json(self, include_timestamp=True):
            raise ValueError("cannot serialise")

        monkeypatch.setattr(verify.VerificationReport, "to_json", failing_to_json)
        with pytest.raises(ValueError, match="cannot serialise"):
            cli.main(["verify", "--report", str(report)] + FAST_GRID)
        capsys.readouterr()
        assert report.read_text() == "earlier report\n"

    def test_slip_spots_use_run_fd_config(self, capsys, monkeypatch):
        from slipball import oracle
        seen = []
        original = oracle.fd_curl_spherical

        def spy(components_fn, r, theta, phi, cfg=oracle.FDConfig()):
            seen.append((np.size(r), cfg))
            return original(components_fn, r, theta, phi, cfg)

        monkeypatch.setattr(oracle, "fd_curl_spherical", spy)
        code, _, _ = run_cli(capsys, ["verify", "--oracle-step", "1e-3", "--richardson"]
                             + FAST_GRID)
        assert code in (0, 2)  # the coarser oracle may fail a tolerance; the run completes
        # one batched call over the five spot nodes, with the run's FDConfig
        assert seen == [(5, oracle.FDConfig(step=1e-3, richardson=True))]

    def test_oracle_agreement_redraws_near_axis_nodes(self, capsys, tmp_path):
        # seed 18 drew agreement nodes too close to the axis for step 1e-2
        report = tmp_path / "out.json"
        code, out, err = run_cli(capsys, ["verify", "--oracle-step", "1e-2", "--seed", "18",
                                          "--report", str(report)] + FAST_GRID)
        assert code in (0, 2), err  # step 1e-2 may fail a tolerance; the run completes
        assert "polar axis" not in err
        by_name = {c["name"]: c for c in json.loads(report.read_text())["checks"]}
        assert by_name["oracle_agreement_curl"]["details"]["seed"] == 18

    @pytest.mark.parametrize("step", ["3e-3", "1e-2"])
    def test_cartesian_stencil_checked_before_the_run(self, capsys, tmp_path, step):
        report = tmp_path / "out.json"
        code, out, err = run_cli(capsys, ["verify", "--oracle-step", step,
                                          "--report", str(report)])
        # the divergence oracle rejects the shipped grid's innermost nodes
        # (5.2e-3 from the polar axis) before any output
        assert code == 1
        assert "polar axis" in err and f"with step {float(step):g}\n" in err
        assert out == "" and not report.exists()

    def test_richardson_keeps_the_verdicts(self, capsys, tmp_path):
        # the opt-in high-order oracle: Richardson at step 1e-4
        docs = []
        for flags in ([], ["--richardson", "--oracle-step", "1e-4"]):
            report = tmp_path / "out.json"
            code, _, _ = run_cli(capsys, ["verify", "--no-timestamp", "--report", str(report),
                                          *flags] + FAST_GRID)
            assert code == 0
            docs.append(json.loads(report.read_text()))
        default, richardson = docs
        assert richardson["oracle"] == {"step": 1e-4, "richardson": True,
                                        "seed": verify.DEFAULT_SEED}
        assert [(c["name"], c["pass"]) for c in richardson["checks"]] == [
            (c["name"], c["pass"]) for c in default["checks"]]

    def test_margins_error_is_a_config_error(self, capsys):
        # the outermost of 100 radial nodes, r = 0.995, takes a stencil of
        # step 1e-2 past the sphere: the oracle's rule, a usage error
        code, out, err = run_cli(capsys, ["verify", *FAST_GRID, "--grid-nr", "100",
                                          "--grid-margin-r", "1e-6", "--oracle-step", "1e-2"])
        assert code == 1 and out == ""
        assert re.fullmatch(r"error: Cartesian stencil leaves the unit ball at r=0\.99499\d* "
                            r"with step 0\.01\n", err), err

    def test_byte_identical_reports(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            code, _, _ = run_cli(capsys, ["verify", "--no-timestamp",
                                          "--report", str(p)] + FAST_GRID)
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert "timestamp" not in json.loads(paths[0].read_text())


class TestOneOwnerPerPrecondition:
    """Admissibility is decided by verify alone, and the stencil domain by
    the oracle alone."""

    @pytest.mark.parametrize("argv, calls", [
        (["verify", *FAST_GRID], 1),
        (["sweep", "--boundary-ntheta", "32", "--boundary-nphi", "64"], 0),
        (["eval", "--r", "1", "--theta", "1", "--phi", "1"], 0),
        (["sample", "--field", "u"], 0),
    ], ids=["verify", "sweep", "eval", "sample"])
    def test_admissibility_is_checked_only_by_verify(self, capsys, tmp_path, monkeypatch,
                                                     argv, calls):
        seen = []
        original = family.check_admissibility
        monkeypatch.setattr(family, "check_admissibility",
                            lambda field, witnesses: seen.append(field.label)
                            or original(field, witnesses))
        if argv[0] == "sample":
            argv = argv + ["--out", str(tmp_path / "out.csv")]
        code, _, err = run_cli(capsys, argv)
        assert code == 0, err
        assert seen == ["default"] * calls

    def test_a_grid_the_oracle_rejects_evaluates_no_u(self, capsys, tmp_path, monkeypatch):
        calls = []
        original = family.CounterexampleField.u_components
        monkeypatch.setattr(family.CounterexampleField, "u_components",
                            lambda self, *c: calls.append(c) or original(self, *c))
        report = tmp_path / "out.json"
        code, out, err = run_cli(capsys, ["verify", "--oracle-step", "1e-2", "--richardson",
                                          "--report", str(report)])
        assert code == 1 and out == "" and not report.exists()
        assert err.startswith("error: Cartesian stencil too close to the polar axis")
        assert err.endswith(" with step 0.01\n")
        assert calls == []

    def test_margins_under_twice_the_step_run(self, capsys):
        # the deleted up-front rule refused margins of at most 2 * step;
        # every stencil of this grid stays in the ball and off the axis
        code, _, err = run_cli(capsys, ["verify", *FAST_GRID, "--grid-margin-r", "1.5e-6",
                                        "--grid-margin-theta", "1.5e-6"])
        assert code == 0, err


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

    @pytest.mark.parametrize("data,key,kind", [
        ({"oracle": {"richardson": "no"}}, "oracle.richardson", "a boolean"),
        ({"oracle": {"step": "abc"}}, "oracle.step", "a number"),
        ({"grid": {"n_r": "32"}}, "grid.n_r", "an integer"),
        ({"grid": {"n_r": 8.5, "n_theta": 8, "n_phi": 8}}, "grid.n_r", "an integer"),
        ({"grid": {"margin_r": "x"}}, "grid.margin_r", "a number"),
        ({"seed": 1.5}, "seed", "an integer"),
        ({"family": 3}, "family", "a string"),
        ({"epsilons": [1, 0.1, 0.01, "x"]}, "epsilons", "a list of numbers"),
        ({"seed": True}, "seed", "an integer"),
        ({"grid": {"margin_theta": False}}, "grid.margin_theta", "a number"),
        ({"report": 5}, "report", "a string or null"),
    ])
    def test_leaf_of_the_wrong_type_is_a_config_error(self, capsys, tmp_path, data, key, kind):
        # each used to run with the value misread or end in a raw traceback
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        report = tmp_path / "r.json"
        code, out, err = run_cli(capsys, ["verify", "--config", str(cfg),
                                          "--report", str(report)] + FAST_GRID)
        assert code == 1
        assert err.startswith(f"error: config key {key!r} must be {kind}, got ")
        assert out == "" and not report.exists()

    def test_int_where_a_float_is_expected(self, capsys, tmp_path):
        # an int passes the type check of a float key; its value is checked next
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"oracle": {"step": 1, "richardson": True}, "report": None}))
        code, out, err = run_cli(capsys, ["verify", "--config", str(cfg)] + FAST_GRID)
        assert code == 1 and out == ""
        assert err == "error: step 1 outside [1e-8, 1e-2]\n"


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
        code, out, err = run_cli(capsys, ["eval", "--r", "2", "--theta", "1", "--phi", "0"])
        assert code == 1
        assert err == "error: point r=2.0 outside the closed unit ball\n" and out == ""

    @pytest.mark.parametrize("coord", ["--r", "--theta", "--phi"])
    def test_nan_coordinate_exits_one(self, capsys, coord):
        argv = {"--r": "0.8", "--theta": "1.0", "--phi": "1.0"}
        argv[coord] = "nan"
        code, out, err = run_cli(capsys, ["eval"] + [t for kv in argv.items() for t in kv])
        assert code == 1
        assert err == f"error: non-finite coordinate {coord[2:]}=nan\n" and out == ""

    @pytest.mark.parametrize("r, value", [("1", "inf"), ("0.7", "-inf")])
    def test_overflow_exits_one(self, capsys, r, value):
        # v overflows; JSON has no infinity, so nothing is printed on stdout
        code, out, err = run_cli(capsys, ["eval", "--family", "perturbed:1e200", "--r", r,
                                          "--theta", "1", "--phi", "1"])
        assert code == 1 and out == ""
        assert err == (f"error: family perturbed:1e200 gives a non-finite v.r ({value}) "
                       f"at this point\n")

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

    def test_volume_grid_flags_reach_the_mesh(self, capsys, tmp_path):
        out_path = tmp_path / "v.csv"
        code, _, _ = run_cli(capsys, ["sample", "--field", "u", "--on", "volume",
                                      "--out", str(out_path), "--grid-nr", "8",
                                      "--grid-ntheta", "9", "--grid-nphi", "10",
                                      "--grid-margin-r", "0.1", "--grid-margin-theta", "0.2"])
        assert code == 0
        rows = np.loadtxt(out_path, delimiter=",", skiprows=1)
        nodes = verify.GridSpec(n_r=8, n_theta=9, n_phi=10, margin_r=0.1,
                                margin_theta=0.2).lattice().nodes()
        for column, axis in enumerate(nodes):
            assert np.array_equal(rows[:, column], axis)

    @pytest.mark.parametrize("argv", [
        ["--field", "u", "--on", "surface", "--grid-ntheta", "16", "--grid-nphi", "16"],
        ["--field", "curl_v_boundary", "--grid-nr", "9"],
    ])
    def test_volume_grid_flags_rejected_on_the_surface(self, capsys, tmp_path, argv):
        # these used to exit 0 and write the 64x128 sample_grid regardless
        out_path = tmp_path / "s.csv"
        code, _, err = run_cli(capsys, ["sample", *argv, "--out", str(out_path)])
        assert code == 1
        assert err == ("error: --grid-* flags set the volume grid (--on volume); "
                       "the surface grid is the config's sample_grid\n")
        assert not out_path.exists()

    def test_unknown_selector(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["sample", "--field", "vorticity",
                                        "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert err == ("error: unknown field selector 'vorticity' "
                       "(choose from u, omega, v, curl_v_boundary)\n")

    def test_values_round_trip_17_digits(self, capsys, tmp_path):
        out_path = tmp_path / "c.csv"
        run_cli(capsys, ["sample", "--field", "curl_v_boundary", "--out", str(out_path)])
        import numpy as np
        from slipball import family, verify
        f = family.default_field()
        grid = verify.GridSpec(n_theta=64, n_phi=128, boundary_only=True)
        _, theta, phi = grid.lattice().nodes()
        expected = f.boundary_curl_theta(theta, phi)
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

    def test_boundary_grid_flags_reach_the_sweep(self, capsys, tmp_path):
        report = tmp_path / "sweep.json"
        code, _, _ = run_cli(capsys, ["sweep", "--boundary-ntheta", "33",
                                      "--boundary-nphi", "70", "--report", str(report)])
        assert code == 0
        grid = verify.GridSpec(n_theta=33, n_phi=70, boundary_only=True)
        sweep = verify.scaling_sweep(family.default_field(), [1e-1, 1e-2, 1e-3, 1e-4], grid)
        expected = {"family": "default", **sweep.to_dict()}
        assert json.loads(report.read_text()) == json.loads(json.dumps(expected))

    def test_equal_epsilons(self, capsys):
        code, out, err = run_cli(capsys, ["sweep", "--epsilons", "1e-2,1e-2,1e-2,1e-2"])
        assert code == 1
        assert err == "error: degenerate fit: all eps values identical\n" and out == ""

    def test_non_finite_epsilon_exits_one(self, capsys):
        code, _, err = run_cli(capsys, ["sweep", "--epsilons", "nan,1e-1,1e-2,1e-3"])
        assert code == 1
        assert err == ("error: perturbation size must be finite and at most half the "
                       "largest float, got nan\n")

    def test_too_few_epsilons(self, capsys):
        code, _, err = run_cli(capsys, ["sweep", "--epsilons", "1e-1,1e-2"])
        assert code == 1
        assert err == "error: need at least 4 epsilons, got 2\n"

    def test_too_few_positive_epsilons(self, capsys):
        code, out, err = run_cli(capsys, ["sweep", "--epsilons", "0,0,-1e-2,1e-2"])
        assert code == 1
        assert err == "error: degenerate fit: need at least two positive eps values\n"
        assert out == ""

    def test_vanishing_residuals_fail_the_check(self, capsys, tmp_path):
        # h1zero is a valid family whose slip residuals are all exactly 0, so
        # the scaling check fails (exit 2), and no report is written
        report = tmp_path / "sweep.json"
        code, out, err = run_cli(capsys, ["sweep", "--family", "h1zero", "--boundary-ntheta",
                                          "32", "--boundary-nphi", "64",
                                          "--report", str(report)])
        assert code == 2
        assert err == ("error: degenerate fit: need at least two positive-eps rows "
                       "with nonzero residual\n")
        assert out == "" and not report.exists()

    def test_non_finite_residual_exits_one(self, capsys, tmp_path):
        report = tmp_path / "sweep.json"
        code, out, err = run_cli(capsys, ["sweep", "--epsilons", "8.98e307,1e300,1e-2,1e-3",
                                          "--boundary-ntheta", "32", "--boundary-nphi", "64",
                                          "--report", str(report)])
        assert code == 1
        assert err == "error: eps=8.98e+307 gives a non-finite residual (inf)\n"
        assert out == "" and not report.exists()

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

    @pytest.mark.parametrize("argv,message", [
        (["sample", "--field", "u", "--on", "edge", "--out", "x.csv"],
         "unknown region selector 'edge'"),
        (["sample", "--field", "curl_v_boundary", "--on", "volume", "--out", "x.csv"],
         "curl_v_boundary is only defined on the surface"),
        (["sample", "--field", "u"], "--out is required for sample"),
        (["sweep", "--epsilons", "1e-1,x,1e-3,1e-4"], "cannot parse --epsilons '1e-1,x,1e-3,1e-4'"),
    ])
    def test_command_error_is_one_line_and_exit_one(self, capsys, tmp_path, monkeypatch,
                                                    argv, message):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert err == f"error: {message}\n" and out == ""
        assert not (tmp_path / "x.csv").exists()

    def test_options_and_metavars_per_subcommand(self):
        grid = ["--grid-nr GRID_NR", "--grid-ntheta GRID_NTHETA", "--grid-nphi GRID_NPHI",
                "--grid-margin-r GRID_MARGIN_R", "--grid-margin-theta GRID_MARGIN_THETA"]
        boundary = ["--boundary-ntheta BOUNDARY_NTHETA", "--boundary-nphi BOUNDARY_NPHI"]
        common = ["-h, --help", "--config CONFIG", "--family FAMILY"]
        expected = {
            "verify": [*common, "--report REPORT", "--no-timestamp", *grid, *boundary,
                       "--oracle-step ORACLE_STEP", "--richardson", "--seed SEED"],
            "eval": ["-h, --help", "--family FAMILY", "--r R", "--theta THETA", "--phi PHI"],
            "sample": [*common, "--field FIELD", "--on ON", "--out OUT", *grid],
            "sweep": [*common, "--epsilons EPSILONS", "--report REPORT", *boundary],
        }
        subcommands = next(a for a in cli.build_parser()._actions
                           if isinstance(a, argparse._SubParsersAction)).choices
        got = {}
        for name, parser in subcommands.items():
            formatter = parser._get_formatter()
            got[name] = [formatter._format_action_invocation(a) for a in parser._actions]
        assert got == expected


# the command lines that write a file, and the flag naming it
WRITERS = {"verify": (["verify", *FAST_GRID], "--report"),
           "sweep": (["sweep", "--boundary-ntheta", "32", "--boundary-nphi", "64"], "--report"),
           "sample": (["sample", "--field", "u"], "--out")}
# each unwritable target and its reason; `sample --out ''` is the missing
# --out error instead (TestSampleCommand)
TARGETS = {"missing": "No such file or directory", "directory": "Is a directory",
           "empty": "No such file or directory"}
UNWRITABLE = [(target, command) for target in TARGETS for command in WRITERS
              if (target, command) != ("empty", "sample")]


def unwritable_path(tmp_path, target):
    return {"missing": str(tmp_path / "no-such-dir" / "out"), "directory": str(tmp_path),
            "empty": ""}[target]


class TestUnwritableOutput:
    """An output path that cannot be written is one `error:` line and exit 1,
    for each command that writes a file.  The tests run in an empty working
    directory, which must stay empty: an empty path leaves no temporary file
    there."""

    @pytest.mark.parametrize("argv, flag, target, reason", [
        pytest.param(*WRITERS[command], target, TARGETS[target],
                     id=f"{target}-{TARGETS[target]}-{command}")
        for target, command in UNWRITABLE])
    def test_one_error_line_and_exit_one(self, capsys, tmp_path, monkeypatch, argv, flag,
                                         target, reason):
        monkeypatch.chdir(tmp_path)
        path = unwritable_path(tmp_path, target)
        code, _, err = run_cli(capsys, [*argv, flag, path])
        assert code == 1
        assert err == f"error: cannot write {path!r}: {reason}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, flag, target", [
        pytest.param(*WRITERS[command], target, id=f"{target}-{command}")
        for target, command in UNWRITABLE])
    def test_nothing_is_computed_before_the_error(self, capsys, tmp_path, monkeypatch,
                                                  argv, flag, target):
        ran = []

        def spy(name):
            def fail(*args, **kwargs):
                ran.append(name)
                raise AssertionError(f"{name} ran before the output path was checked")
            return fail

        monkeypatch.setattr(verify, "run_full_verification", spy("run_full_verification"))
        monkeypatch.setattr(verify, "scaling_sweep", spy("scaling_sweep"))
        monkeypatch.setattr(cli, "_sample_rows", spy("_sample_rows"))
        monkeypatch.chdir(tmp_path)
        path = unwritable_path(tmp_path, target)
        code, out, err = run_cli(capsys, [*argv, flag, path])
        assert (code, out, ran) == (1, "", [])
        assert err.startswith(f"error: cannot write {path!r}: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["verify", "sweep"])
    def test_empty_report_in_the_config_is_an_error(self, capsys, tmp_path, monkeypatch,
                                                    command):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"report": ""}))
        code, out, err = run_cli(capsys, [*WRITERS[command][0], "--config", str(config)])
        assert (code, out) == (1, "")
        assert err == "error: cannot write '': No such file or directory\n"
        assert list(tmp_path.iterdir()) == [config]

    def test_existing_file_is_kept_when_nothing_is_written(self, capsys, tmp_path):
        # h1zero's residuals vanish: the sweep fails its check and writes no report
        report = tmp_path / "sweep.json"
        report.write_text("earlier report\n")
        code, _, err = run_cli(capsys, ["sweep", "--family", "h1zero", "--boundary-ntheta",
                                        "32", "--boundary-nphi", "64", "--report", str(report)])
        assert code == 2 and err.startswith("error: degenerate fit: ")
        assert list(tmp_path.iterdir()) == [report]
        assert report.read_text() == "earlier report\n"

    def test_existing_file_is_kept_when_the_run_fails(self, capsys, tmp_path, monkeypatch):
        report = tmp_path / "out.json"
        report.write_text("earlier report\n")
        seen = []

        def failing_run(*args, **kwargs):
            seen.extend(tmp_path.iterdir())
            raise slipball.ConfigError("check divergence_free gives a non-finite norm_sup")

        monkeypatch.setattr(verify, "run_full_verification", failing_run)
        code, _, err = run_cli(capsys, ["verify", "--report", str(report), *FAST_GRID])
        assert code == 1 and err.startswith("error: check divergence_free")
        # the temporary file sat beside the report while the run went on
        assert len(seen) == 2 and report in seen
        assert list(tmp_path.iterdir()) == [report]
        assert report.read_text() == "earlier report\n"

    def test_finished_file_replaces_the_old_one(self, capsys, tmp_path):
        out = tmp_path / "u.csv"
        out.write_text("earlier rows\n")
        plain = tmp_path / "plain"
        plain.write_text("")
        code, _, _ = run_cli(capsys, ["sample", "--field", "u", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("r,theta,phi,c_r,c_theta,c_phi\n")
        assert sorted(tmp_path.iterdir()) == [plain, out]
        # the file gets the mode a plain open gives, not a private temp mode
        assert out.stat().st_mode == plain.stat().st_mode


class TestShellEntry:
    """`python -m slipball.cli` runs `entry()`, which exits with `main`'s code."""

    @pytest.mark.parametrize("argv,code", [
        (["--family", "default"], 0),
        (["--family", "h1zero"], 2),
        (["--seed", "-1"], 1),
    ], ids=["default", "h1zero", "negative-seed"])
    def test_exit_code_of_the_process(self, tmp_path, argv, code):
        src = str(Path(slipball.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "slipball.cli", "verify", "--no-timestamp",
                               *argv, *FAST_GRID], capture_output=True, text=True, env=env,
                              cwd=tmp_path)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        if code == 1:
            assert proc.stderr == "error: seed must be non-negative, got -1\n"
