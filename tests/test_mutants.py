"""Kernel mutants that `slipball verify` must catch.

Each row scales one output of one kernel by 1.01 and runs a coarse verify
(8x8x8 interior, 32x64 boundary grid).  The run must fail (exit 2) and the
named checks must be among the failed ones.  Every row must fail; none is
exempt.

The closed-form omega is gated by the Cartesian FD curl of u
(oracle_agreement_curl), so a wrong G or a wrong omega_theta or omega_phi
fails that check even though the slip check and the boundary traces read the
same closed form.  Outputs whose scaling no gated number sees are not rows:
the theta trace of boundary_curl_assembly (its oracle value is reported at
the witness only), v_r and v_phi of cross_tangential (v_phi feeds that
witness value alone), the g_tp entry of the angular jet (read by the jets
path only), g itself (a scaled g stays periodic) and h'' (read by none).
"""
import json

import pytest

from slipball import cli, kernels

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
    "g_t": ("default_angular_jet", 1, {"divergence_free", "oracle_agreement_curl"}),
    "g_p": ("default_angular_jet", 2, {"divergence_free", "oracle_agreement_curl"}),
    "g_tt": ("default_angular_jet", 3, {"oracle_agreement_curl"}),
    "g_pp": ("default_angular_jet", 5, {"oracle_agreement_curl"}),
}


def scaled(kernel, index):
    def mutant(*args, **kwargs):
        out = kernel(*args, **kwargs)
        if index is None:
            return 1.01 * out
        # a jet asked for a lower order has fewer entries
        return tuple(1.01 * v if k == index else v for k, v in enumerate(out))
    return mutant


def failed_checks(tmp_path):
    path = tmp_path / "report.json"
    code = cli.main(["verify", "--no-timestamp", "--report", str(path), *COARSE])
    doc = json.loads(path.read_text())
    return code, doc["overall_pass"], {c["name"] for c in doc["checks"] if not c["pass"]}


def test_unmutated_coarse_verify_passes(tmp_path, capsys):
    code, overall, _ = failed_checks(tmp_path)
    capsys.readouterr()
    assert (code, overall) == (0, True)


@pytest.mark.parametrize("row", MUTANTS)
def test_mutant_fails_verify(row, monkeypatch, tmp_path, capsys):
    name, index, checks = MUTANTS[row]
    # cli builds the field after the patch, so default_angular() and
    # default_profile() capture the mutant jets
    monkeypatch.setattr(kernels, name, scaled(vars(kernels)[name], index))
    code, overall, failed = failed_checks(tmp_path)
    capsys.readouterr()
    assert (code, overall) == (2, False)
    assert checks <= failed, failed
