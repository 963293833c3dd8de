"""Acceptance suite: the eight certification criteria at full grid sizes.

Each test prints one PASS/FAIL line (run pytest -s to see them inline).
Every kernel is plain numpy and serial (single-threaded), so the timed
sections need no untimed first call.
"""
import math
import time

import numpy as np
import pytest

from slipball import cli, oracle, verify
from tests_support import cartesian_curl, jets_divergence

PI = math.pi

FULL_INTERIOR = verify.GridSpec()  # 32 x 48 x 96, margins 0.05
FULL_BOUNDARY = verify.GridSpec(n_theta=128, n_phi=256, boundary_only=True)


def report_line(n, ok, msg):
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {msg}")
    assert ok, msg


def test_criterion_1_divergence_free(default_field):
    t0 = time.perf_counter()
    res = verify.check_divergence_free(default_field, FULL_INTERIOR)
    elapsed = time.perf_counter() - t0
    sup_fd = res.norm_sup
    div = jets_divergence(default_field, *FULL_INTERIOR.lattice().nodes())
    sup_jets = float(np.max(np.abs(div)))
    ok = sup_fd <= 1e-6 and sup_jets <= 1e-10 and elapsed <= 10.0
    report_line(1, ok,
                f"sup|div u| = {sup_fd:.3e} (FD, tol 1e-6) / {sup_jets:.3e} "
                f"(jets, tol 1e-10) on 32x48x96 in {elapsed:.2f}s (limit 10s)")


def test_criterion_2_slip_conditions(default_field):
    res_u, res_w = verify.check_slip_conditions(
        default_field, verify.boundary_pass(default_field, FULL_BOUNDARY))
    ok = res_u.norm_sup <= 1e-12 and res_w.norm_sup <= 1e-12
    report_line(2, ok,
                f"sup|u.n| = {res_u.norm_sup:.3e}, sup|w x n| = {res_w.norm_sup:.3e} "
                f"on 128x256 (tol 1e-12)")


def test_criterion_3_persistency_failure_theta(default_field):
    closed = default_field.boundary_curl_theta(PI / 2, PI / 4)

    def v_phi(r, t, p):
        return default_field.v_components(r, t, p)[2]

    fd = -oracle.fd_boundary_radial_derivative(v_phi, PI / 2, PI / 4)[0]
    res_t, _ = verify.check_persistency_failure(
        default_field, verify.boundary_pass(default_field, FULL_BOUNDARY))
    ok = (abs(closed - (-1.0)) <= 1e-6 and abs(closed - fd) <= 1e-4
          and res_t.norm_sup >= 0.9)
    report_line(3, ok,
                f"[curl v]_theta(pi/2, pi/4) = {closed:.9f} (target -1 +/- 1e-6), "
                f"FD oracle {fd:.9f} (tol 1e-4), sup = {res_t.norm_sup:.3f} (>= 0.9)")


def test_criterion_4_phi_component_gate(default_field):
    _, res_p = verify.check_persistency_failure(
        default_field, verify.boundary_pass(default_field, FULL_BOUNDARY))
    d = res_p.details
    ok = (d["closed_form_validated"] and d["gate_points"] == 50
          and d["gate_max_rel_err"] <= 1e-5)
    report_line(4, ok,
                f"phi closed form vs oracle at {d['gate_points']} points: "
                f"max rel err {d['gate_max_rel_err']:.3e} (tol 1e-5), "
                f"validated={d['closed_form_validated']}")


def test_criterion_5_sharpness_sweep(default_field):
    sweep = verify.scaling_sweep(default_field, [1e-1, 1e-2, 1e-3, 1e-4])
    ok = abs(sweep.slope - 1.0) <= 0.05
    report_line(5, ok, f"log-log slope of sup|w x n| vs eps = {sweep.slope:.4f} "
                       f"(target 1.00 +/- 0.05)")


def test_criterion_6_oracle_equivalence(default_field, rng):
    res = verify.check_oracle_agreement(default_field)

    def grad_field(r, t, p):
        return 2 * r * np.cos(t), -r * np.sin(t), np.zeros_like(r)

    wx, wy, wz = 0.3, -1.2, 0.7

    def const_field(r, t, p):
        # the constant Cartesian vector (wx, wy, wz) in the local basis
        st, ct, sp, cp = np.sin(t), np.cos(t), np.sin(p), np.cos(p)
        return (wx * st * cp + wy * st * sp + wz * ct,
                wx * ct * cp + wy * ct * sp - wz * st,
                -wx * sp + wy * cp)

    def worst_curl(field, nodes):
        curl = cartesian_curl(field, *nodes)
        return float(np.max(np.sqrt(sum(c**2 for c in curl))))

    draws = [(rng.uniform(0.2, 0.9), rng.uniform(0.3, PI - 0.3), rng.uniform(0, 2 * PI))
             for _ in range(10)]
    nodes = [np.array(c) for c in zip(*draws)]
    worst_grad = worst_curl(grad_field, nodes)
    worst_const = worst_curl(const_field, nodes)
    ok = res.norm_sup <= 1e-4 and worst_grad <= 1e-8 and worst_const <= 1e-8
    report_line(6, ok,
                f"curl disagreement {res.norm_sup:.3e} at 50 points (tol 1e-4); "
                f"curl grad {worst_grad:.3e}, constant-field curl {worst_const:.3e} "
                f"(tol 1e-8)")


def test_criterion_7_navier_slip_discrepancy(default_field):
    sphere = verify.boundary_pass(default_field, FULL_BOUNDARY)
    curved = verify.check_navier_traction(sphere)
    # at K = 0 (a flat wall) the traction is half the slip residual |omega x n|
    _, slip = verify.check_slip_conditions(default_field, sphere)
    ok = curved.norm_sup >= 0.9 and slip.norm_sup <= 1e-12
    report_line(7, ok,
                f"traction sup = {curved.norm_sup:.3f} with curvature (>= 0.9), "
                f"|omega x n| = {slip.norm_sup:.3e}, twice a flat wall's (<= 1e-12)")


def test_criterion_8_determinism_and_runtime(default_field, tmp_path, capsys):
    t0 = time.perf_counter()
    verify.run_full_verification(default_field, FULL_INTERIOR, FULL_BOUNDARY)
    elapsed = time.perf_counter() - t0

    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code = cli.main(["verify", "--no-timestamp", "--report", str(p)])
        assert code == 0
    capsys.readouterr()  # swallow the two report tables
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    ok = identical and elapsed <= 60.0
    report_line(8, ok,
                f"two verify runs byte-identical={identical}, full verification "
                f"in {elapsed:.2f}s (limit 60s)")
