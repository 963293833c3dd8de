"""The bytes of every command's output, pinned by sha256: `slipball verify
--no-timestamp` and `sweep` reports, `sample` CSVs and `eval` stdout.

A change that must leave output bytes unchanged (signed zeros included) is
held to that here.  A change that moves digits on purpose updates these
hashes and names the fields that moved.  The values were measured with
numpy 2.4.6.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from slipball import cli, verify

COARSE = ["--grid-nr", "8", "--grid-ntheta", "8", "--grid-nphi", "8",
          "--boundary-ntheta", "32", "--boundary-nphi", "64"]

# The admissibility witnesses are those of the run's boundary grid (32x64 in
# the coarse reports).  Only the divergence_free entry moved when that check
# came to compare u with x x grad(h g): its norms, tolerance, witness and
# details.  In the two default reports only
# persistency_failure_theta.details.neighborhood_radius_half_floor moved when
# the radius came from a ring scan, 64 rings per level, in place of a
# bisection (2^-42 of pi/2 resolution in place of 2^-40).  In all four,
# only six detail keys moved when the Cartesian divergence gate moved from
# divergence_free to oracle_agreement_curl, which reads it off the Jacobian
# of its curl: divergence_free lost cartesian_divergence_sup,
# cartesian_points, cartesian_tolerance and seed, and oracle_agreement_curl
# gained cartesian_divergence_sup and cartesian_tolerance, with the same
# bits.  MOVED_FROM holds the hashes from before that move.  In the h1zero
# report only oracle_agreement_curl.norm_l2 moved (in its last digits) when
# the h1zero profile jet came to be built by product_jet, whose terms round
# differently from the hand-expanded rule on the cutoff ramp; its REPORTS
# and MOVED_FROM hashes were re-pinned then.
REPORTS = [
    ("default", [], "8fea1ae8126b31d5e17a616161bf22b84d9851d2cfd7d5c70b778414244951c6", 0),
    ("default", COARSE, "40aecdfea9a9f4ada1ad63b89a2e1a656309e63b5a71078b29c2da63bd141563", 0),
    ("h1zero", COARSE, "c0537d1f11cdd631ff27c52ed3a91969cf01b7ccbbbba28058ae67e63c57548d", 2),
    ("perturbed:1e-3", COARSE,
     "01dcfd23eabd772200e1c6314ce83ef4829e9a6ad667b200b6aabea0ed0c73e3", 2),
]
REPORT_IDS = ["default-shipped", "default-coarse", "h1zero-coarse", "perturbed-coarse"]
MOVED_FROM = ["9e6094cb72e441ece3e0015752081d2f46dbbd22c6a6af0359c81b02e8de7307",
              "f5623454a963b75379ee96c81383f4b60f3fd878fa3ba9705176b3ea43f155e1",
              "da641d30f5323ec8266e768522622a29a6ef44203ab23353174d832aed7cf869",
              "ba8be864f6b2bf36375320a5c98b6c8ef876a89e104478289180f6ddea3d6398"]


def verify_report(label, grid, tmp_path, capsys):
    """(exit code, bytes) of the --no-timestamp report at seed 1234."""
    report = tmp_path / "report.json"
    code = cli.main(["verify", "--no-timestamp", "--family", label, "--seed", "1234",
                     "--report", str(report), *grid])
    capsys.readouterr()
    return code, report.read_bytes()


@pytest.mark.parametrize("label, grid, sha256, code", REPORTS, ids=REPORT_IDS)
def test_report_bytes(label, grid, sha256, code, tmp_path, capsys):
    got, data = verify_report(label, grid, tmp_path, capsys)
    assert got == code
    assert hashlib.sha256(data).hexdigest() == sha256


@pytest.mark.parametrize("label, grid, before",
                         [(*r[:2], b) for r, b in zip(REPORTS, MOVED_FROM)], ids=REPORT_IDS)
def test_moving_the_cartesian_gate_back_gives_the_old_bytes(label, grid, before, tmp_path,
                                                            capsys):
    report = json.loads(verify_report(label, grid, tmp_path, capsys)[1])
    checks = {c["name"]: c["details"] for c in report["checks"]}
    agreement = checks["oracle_agreement_curl"]
    checks["divergence_free"].update(
        cartesian_divergence_sup=agreement.pop("cartesian_divergence_sup"),
        cartesian_points=agreement["n_points"],
        cartesian_tolerance=agreement.pop("cartesian_tolerance"),
        seed=agreement["seed"])
    assert hashlib.sha256(verify.json_text(report).encode()).hexdigest() == before


# numpy's AVX2 path on a host with AVX-512.  The bytes above hold on one
# SIMD path only (README), since sin, cos and exp differ in the last bits
# between paths and FD round-off and mirror-node witnesses follow them; the
# verdicts must not.  On a host without these features numpy runs as usual.
NO_AVX512 = "AVX512_SPR AVX512_ICL X86_V4"


def verdicts(label, grid, report, **env):
    """(exit code, overall_pass, (name, pass) of every check, the three
    admissibility probes) of the pinned command, run as a subprocess."""
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               **env)
    code = subprocess.run([sys.executable, "-m", "slipball.cli", "verify", "--no-timestamp",
                           "--family", label, "--seed", "1234", "--report", str(report), *grid],
                          env=env, capture_output=True).returncode
    doc = json.loads(report.read_text())
    return (code, doc["overall_pass"], [(c["name"], c["pass"]) for c in doc["checks"]],
            [doc["admissibility"][k] for k in ("pole_margin_ok", "support_ok", "periodicity_ok")])


@pytest.mark.parametrize("label, grid, sha256, code", REPORTS, ids=REPORT_IDS)
def test_verdicts_do_not_depend_on_the_simd_path(label, grid, sha256, code, tmp_path,
                                                 monkeypatch):
    monkeypatch.delenv("NPY_DISABLE_CPU_FEATURES", raising=False)
    want = verdicts(label, grid, tmp_path / "simd.json")
    assert want[0] == code
    assert verdicts(label, grid, tmp_path / "avx2.json",
                    NPY_DISABLE_CPU_FEATURES=NO_AVX512) == want


VOLUME = ["--grid-nr", "8", "--grid-ntheta", "8", "--grid-nphi", "8"]

# (command line, the flag naming the output file or None for stdout, sha256,
# exit code)
OUTPUTS = [
    (["sweep"], "--report",
     "31c19d9cd6693320bbc1a972952c0fbafb1832ceb51ace54d247e2afc40ad1db", 0),
    (["sweep", "--boundary-ntheta", "32", "--boundary-nphi", "64"], "--report",
     "af67e230acd5f97c42cd2bf706922b43cd8ef60507fb326b23115fd361731b15", 0),
    # a perturbed base: the report is written, and its slope misses the band
    (["sweep", "--family", "perturbed:1e-3"], "--report",
     "8e5b9856e8a81676535ae194efb8c6ba9788a031813fcfd43fd49d1a795e59cd", 2),
    (["sample", "--field", "curl_v_boundary"], "--out",
     "1bd60a515d7afcf0d31e9d032707499aad2a4ff0808dfc4c9119e316c0011d59", 0),
    (["sample", "--field", "v"], "--out",
     "8909880cae62b821b92479a86594e2f51eb7db7bd081763c8f5dedb5719912f4", 0),
    (["sample", "--field", "u", "--on", "volume", *VOLUME], "--out",
     "cd7e63bbe4f91fa659a9a6785b6d5c28c3adae1ea2625710158bdb49c3d81c07", 0),
    (["sample", "--field", "omega", "--on", "volume", *VOLUME], "--out",
     "30d62f64c14d80b349e266029397a62a8628dc473adcf8471b5286c8285d150a", 0),
    (["eval", "--r", "1", "--theta", "1", "--phi", "1"], None,
     "44296625a79e0f6ce59b37468826b77652db6a7797535fac2d6698fc0f70b605", 0),
    (["eval", "--r", "0.7", "--theta", "1", "--phi", "1"], None,
     "2e876ea69e6d01deb38da75ff689877db455d74e854f177a8a02c511a81c9f1c", 0),
    # h1zero on the sphere, where h(1) = h'(1) = +0: the signs of its traces
    (["sample", "--family", "h1zero", "--field", "curl_v_boundary"], "--out",
     "bc25416fb4792ee519e437562d9b2c0231d7bfe5063ad5f8c9c1d087b3d98a76", 0),
    (["eval", "--family", "h1zero", "--r", "1", "--theta", "1", "--phi", "1"], None,
     "223fb9f9650d69812b9afa72a7d164eb27628cc8bccfe3b8d6498c4c3d7047c7", 0),
]


@pytest.mark.parametrize("argv, out_flag, sha256, code", OUTPUTS,
                         ids=["sweep-default", "sweep-32x64", "sweep-perturbed",
                              "sample-curl-v-boundary", "sample-v-surface", "sample-u-volume",
                              "sample-omega-volume", "eval-boundary", "eval-interior",
                              "sample-h1zero-curl-v-boundary", "eval-h1zero-boundary"])
def test_output_bytes(argv, out_flag, sha256, code, tmp_path, capsys):
    out = tmp_path / "out"
    got = cli.main(argv + ([out_flag, str(out)] if out_flag else []))
    stdout = capsys.readouterr().out
    assert got == code
    data = out.read_bytes() if out_flag else stdout.encode()
    assert hashlib.sha256(data).hexdigest() == sha256
