"""The bytes of `slipball verify --no-timestamp` reports, pinned by sha256.

A change that must leave report bytes unchanged (signed zeros included) is
held to that here.  A change that moves digits on purpose updates these
hashes and names the report fields that moved.  The values were measured
with numpy 2.4.6.
"""
import hashlib

import pytest

from slipball import cli

COARSE = ["--grid-nr", "8", "--grid-ntheta", "8", "--grid-nphi", "8",
          "--boundary-ntheta", "32", "--boundary-nphi", "64"]

REPORTS = [
    ("default", [], "2acfb84b927590d2b607ca13fe6d3f6739a90b73e733aed07612a19a57e6d055", 0),
    ("default", COARSE, "5e7e02175de101fc85c9cfba08492faa353ae416f501b63b8d889f2b592d9997", 0),
    ("h1zero", COARSE, "5993d9f738a90d4c25a9003cc34ee69f8fe91b0c163567cbf21e6a7db7463612", 2),
    ("perturbed:1e-3", COARSE,
     "cc59c66942ed5606853e40c6d10d4ca75f6fd2f8d7ee750d5a9bcfa6abbd9748", 2),
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
