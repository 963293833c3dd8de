"""The bytes of every command's output, pinned by sha256: `slipball verify
--no-timestamp` and `sweep` reports, `sample` CSVs and `eval` stdout.

A change that must leave output bytes unchanged (signed zeros included) is
held to that here.  A change that moves digits on purpose updates these
hashes and names the fields that moved.  The values were measured with
numpy 2.4.6.
"""
import hashlib

import pytest

from slipball import cli

COARSE = ["--grid-nr", "8", "--grid-ntheta", "8", "--grid-nphi", "8",
          "--boundary-ntheta", "32", "--boundary-nphi", "64"]

REPORTS = [
    ("default", [], "448a502ee1fb500123ed413066c06e0f38f5b97fe6e66d279dfbe3aec30560fe", 0),
    ("default", COARSE, "f1222a7e3ed0a5c6a8a1a87415da59041ae9d86c3833de4715d4374a7658513d", 0),
    ("h1zero", COARSE, "b9951fb5606c174899a367442c3cd6ce700425788ed311f005920778c741be6c", 2),
    ("perturbed:1e-3", COARSE,
     "49d53876753ebc688427a5bd67f4bc59a9b4479657fb1236637e4b13455e8b22", 2),
]


@pytest.mark.parametrize("label, grid, sha256, code", REPORTS,
                         ids=["default-shipped", "default-coarse", "h1zero-coarse",
                              "perturbed-coarse"])
def test_report_bytes(label, grid, sha256, code, tmp_path, capsys):
    report = tmp_path / "report.json"
    got = cli.main(["verify", "--no-timestamp", "--family", label, "--seed", "1234",
                    "--report", str(report), *grid])
    capsys.readouterr()
    assert got == code
    assert hashlib.sha256(report.read_bytes()).hexdigest() == sha256


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
]


@pytest.mark.parametrize("argv, out_flag, sha256, code", OUTPUTS,
                         ids=["sweep-default", "sweep-32x64", "sweep-perturbed",
                              "sample-curl-v-boundary", "sample-v-surface", "sample-u-volume",
                              "sample-omega-volume", "eval-boundary", "eval-interior"])
def test_output_bytes(argv, out_flag, sha256, code, tmp_path, capsys):
    out = tmp_path / "out"
    got = cli.main(argv + ([out_flag, str(out)] if out_flag else []))
    stdout = capsys.readouterr().out
    assert got == code
    data = out.read_bytes() if out_flag else stdout.encode()
    assert hashlib.sha256(data).hexdigest() == sha256
