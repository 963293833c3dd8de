"""Kernel mutants that `slipball verify` must catch.

Each row scales one output of one kernel by 1.01 and runs a coarse verify
(8x8x8 interior, 32x64 boundary grid).  The run must fail (exit 2) and the
named checks must be among the failed ones.  Every row must fail; none is
exempt.

The closed-form omega is gated by the Cartesian FD curl of u
(oracle_agreement_curl), so a wrong G or a wrong omega_theta or omega_phi
fails that check even though the slip check and the boundary traces read the
same closed form.  Each trace of boundary_curl_assembly is gated against the
radial derivative of r v (v_theta for the phi trace, v_phi for the theta
trace), so a wrong trace or a wrong v_phi fails its persistency check.
The divergence check compares u with x x grad(h g), from differences of g
itself, so a scaled g (which stays periodic) fails it, and so does a
wrong u or a wrong first angular partial.  Outputs whose scaling no gated
number sees are not rows: v_r of cross_tangential (the gates read only
v_theta and v_phi), the g_tp entry of the angular jet (read by the jets
path only) and h'' (read by none).

Two local mutants follow the rows, each on the coarse and the shipped
grids.  One triples the theta trace within WINDOW rad of its witness, in
boundary_state: the strided gate nodes miss that window, and the witness
gate of persistency_failure_theta catches it.  The other zeroes
omega_assembly's omega_theta and omega_phi at r = 1: the slip check then
reads 0 for the perturbed families, whose slip residual is not 0, and its
FD-curl spots catch it.  In both, the failed row's norm_sup meets its own
tolerance, so the row must name the hidden gate that failed it
(details.failed_gate).
"""
import json

import numpy as np
import pytest

from slipball import cli, kernels, verify
from slipball import family as fam

COARSE = ["--grid-nr", "8", "--grid-ntheta", "8", "--grid-nphi", "8",
          "--boundary-ntheta", "32", "--boundary-nphi", "64"]

# (kernel, output index or None for a single array, checks that must fail)
MUTANTS = {
    "big_g_values": ("big_g_values", None, {"oracle_agreement_curl"}),
    "omega_r": ("omega_assembly", 0, {"persistency_failure_phi", "oracle_agreement_curl"}),
    "omega_theta": ("omega_assembly", 1, {"oracle_agreement_curl"}),
    "omega_phi": ("omega_assembly", 2, {"oracle_agreement_curl"}),
    "u_theta": ("u_assembly", 0, {"divergence_free", "oracle_agreement_curl"}),
    "u_phi": ("u_assembly", 1, {"divergence_free", "persistency_failure_phi",
                                "oracle_agreement_curl"}),
    "h": ("default_profile_jet", 0, {"slip_omega_cross_n", "oracle_agreement_curl"}),
    "h_r": ("default_profile_jet", 1, {"slip_omega_cross_n", "oracle_agreement_curl"}),
    "g": ("default_angular_jet", 0, {"divergence_free"}),
    "g_t": ("default_angular_jet", 1, {"divergence_free", "oracle_agreement_curl"}),
    "g_p": ("default_angular_jet", 2, {"divergence_free", "oracle_agreement_curl"}),
    "g_tt": ("default_angular_jet", 3, {"oracle_agreement_curl"}),
    "g_pp": ("default_angular_jet", 5, {"oracle_agreement_curl"}),
    "curl_v_theta": ("boundary_curl_assembly", 0, {"persistency_failure_theta"}),
    "v_phi": ("cross_tangential", 2, {"persistency_failure_theta"}),
}


def scaled(kernel, index):
    def mutant(*args, **kwargs):
        out = kernel(*args, **kwargs)
        if index is None:
            return 1.01 * out
        # a jet asked for a lower order has fewer entries
        return tuple(1.01 * v if k == index else v for k, v in enumerate(out))
    return mutant


def verify_report(tmp_path, *flags):
    """The exit code and the report of one verify run."""
    path = tmp_path / "report.json"
    code = cli.main(["verify", "--no-timestamp", "--report", str(path), *flags])
    return code, json.loads(path.read_text())


def failed_checks(tmp_path, *flags):
    code, doc = verify_report(tmp_path, *flags)
    return code, doc["overall_pass"], {c["name"] for c in doc["checks"] if not c["pass"]}


def test_unmutated_coarse_verify_passes(tmp_path, capsys):
    code, overall, _ = failed_checks(tmp_path, *COARSE)
    capsys.readouterr()
    assert (code, overall) == (0, True)


@pytest.mark.parametrize("row", MUTANTS)
def test_mutant_fails_verify(row, monkeypatch, tmp_path, capsys):
    name, index, checks = MUTANTS[row]
    # cli builds the field after the patch, so default_angular() and
    # default_profile() capture the mutant jets
    monkeypatch.setattr(kernels, name, scaled(vars(kernels)[name], index))
    code, overall, failed = failed_checks(tmp_path, *COARSE)
    capsys.readouterr()
    assert (code, overall) == (2, False)
    assert checks <= failed, failed


WINDOW = 0.03
GRIDS = {"coarse": (COARSE, verify.GridSpec(n_theta=32, n_phi=64, boundary_only=True)),
         "shipped": ([], verify.GridSpec(n_theta=128, n_phi=256, boundary_only=True))}


def install_witness_window_mutant(monkeypatch, boundary):
    """Triple the default family's theta trace within WINDOW of its witness
    on the boundary grid."""
    sphere = verify.boundary_pass(fam.default_field(), boundary)
    i = int(np.argmax(np.abs(sphere.curl_v_theta)))
    _, t0, p0 = sphere.lattice.nodes_at(i)
    original = fam.CounterexampleField.boundary_state

    def mutant(self, theta, phi):
        state = original(self, theta, phi)
        cos_d = np.cos(theta) * np.cos(t0) + np.sin(theta) * np.sin(t0) * np.cos(phi - p0)
        trace = state.curl_v_theta
        near = np.arccos(np.clip(cos_d, -1.0, 1.0)) < WINDOW
        return state._replace(curl_v_theta=np.where(near, 3.0 * trace, trace))
    monkeypatch.setattr(fam.CounterexampleField, "boundary_state", mutant)


def install_sphere_omega_mutant(monkeypatch):
    """Zero omega_assembly's omega_theta and omega_phi at r = 1."""
    original = kernels.omega_assembly

    def mutant(r, *args):
        w_r, w_t, w_p = original(r, *args)
        on_sphere = r == 1.0
        return w_r, np.where(on_sphere, 0.0, w_t), np.where(on_sphere, 0.0, w_p)
    monkeypatch.setattr(kernels, "omega_assembly", mutant)


@pytest.mark.parametrize("grid", GRIDS)
def test_witness_window_mutant_fails_the_theta_trace(grid, monkeypatch, tmp_path, capsys):
    flags, boundary = GRIDS[grid]
    install_witness_window_mutant(monkeypatch, boundary)
    code, overall, failed = failed_checks(tmp_path, *flags)
    capsys.readouterr()
    assert (code, overall) == (2, False)
    assert failed == {"persistency_failure_theta"}


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("family", ["perturbed:1e-3", "perturbed:1e-1"])
def test_sphere_omega_mutant_fails_the_slip_check(family, grid, monkeypatch, tmp_path, capsys):
    install_sphere_omega_mutant(monkeypatch)
    code, overall, failed = failed_checks(tmp_path, "--family", family, *GRIDS[grid][0])
    capsys.readouterr()
    assert (code, overall) == (2, False)
    assert "slip_omega_cross_n" in failed


# mutant: (its installer, family, the row it fails, the gate that row must name)
GATED_ROWS = {
    "witness-window": (lambda mp: install_witness_window_mutant(mp, GRIDS["coarse"][1]),
                       "default", "persistency_failure_theta", "rel_discrepancy",
                       verify.TRACE_GATE_REL_TOL),
    "sphere-omega": (install_sphere_omega_mutant, "perturbed:1e-3", "slip_omega_cross_n",
                     "oracle_spot_max_abs_err", verify.TOL_ORACLE_AGREEMENT),
}


@pytest.mark.parametrize("mutant", GATED_ROWS)
def test_a_row_failed_by_its_hidden_gate_names_it(mutant, monkeypatch, tmp_path, capsys):
    # each row's norm_sup meets its own tolerance, so only failed_gate says
    # why the row fails; no other row of the run names a gate
    install, family, name, gate, tolerance = GATED_ROWS[mutant]
    install(monkeypatch)
    code, doc = verify_report(tmp_path, "--family", family, *COARSE)
    capsys.readouterr()
    rows = {c["name"]: c for c in doc["checks"]}
    row = rows[name]
    assert code == 2 and not row["pass"]
    if row["direction"] == "above":
        assert row["norm_sup"] >= row["tolerance"]
    else:
        assert row["norm_sup"] <= row["tolerance"]
    assert row["details"]["failed_gate"] == {
        "name": gate, "value": row["details"][gate], "tolerance": tolerance}
    assert row["details"][gate] > tolerance
    assert [n for n, c in rows.items() if "failed_gate" in c["details"]] == [name]
