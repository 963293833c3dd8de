"""Workloads: seeded argv streams for `slipball.cli.main` and the verdicts
each op must reproduce.

Every workload drives one CLI command.  The argv of each op is drawn from
the run seed, and a stream never yields the same argv twice, so a result
cache added to the program later cannot hit.
"""
import json
import random
from dataclasses import dataclass

FAMILY = "default"
SEED_SPACE = 2**31 - 1

COARSE_GRID = ("--grid-nr", "8", "--grid-ntheta", "8", "--grid-nphi", "8",
               "--boundary-ntheta", "32", "--boundary-nphi", "64")

SWEEP_EPSILONS = 24
SWEEP_LOG10_RANGE = (-6.0, -1.0)
SLOPE_BAND = (0.95, 1.05)

# The checks that decide `overall_pass`, with the direction each passes in:
# "below" means norm_sup <= tolerance, "above" means norm_sup >= tolerance.
GATING_CHECKS = {
    "divergence_free": "below",
    "slip_u_dot_n": "below",
    "slip_omega_cross_n": "below",
    "persistency_failure_theta": "above",
    "persistency_failure_phi": "above",
    "oracle_agreement_curl": "below",
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    extra: tuple
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("verify-default", "verify", (),
             "the certification users run: shipped grids, dominated by the "
             "Cartesian FD divergence oracle over 147,456 interior nodes"),
    Workload("verify-coarse", "verify", COARSE_GRID,
             "the same checks on 8x8x8 / 32x64 grids, so one-point oracle "
             "loops and bisection dominate and array kernels barely show"),
    Workload("sweep", "sweep", (),
             "24 perturbed families on the 128x256 boundary grid: field "
             "construction and boundary omega, with no FD oracle at all"),
)}


def op_stream(workload: Workload, seed: int, report_path: str):
    """Yield the argv of each op, deterministically in `seed`, never repeating."""
    rng = random.Random(seed)
    seen = set()
    while True:
        if workload.command == "verify":
            argv = ["verify", "--family", FAMILY, "--no-timestamp",
                    "--report", report_path,
                    "--seed", str(rng.randrange(SEED_SPACE)), *workload.extra]
        else:
            eps = [10.0 ** rng.uniform(*SWEEP_LOG10_RANGE) for _ in range(SWEEP_EPSILONS)]
            argv = ["sweep", "--family", FAMILY,
                    "--epsilons", ",".join(repr(e) for e in eps), *workload.extra]
        key = tuple(argv)
        if key not in seen:
            seen.add(key)
            yield argv


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def verify_problems(argv, exit_code, report_text):
    """Differences between a `verify` op and its expected verdicts (empty if none)."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}, expected 0")
    try:
        report = json.loads(report_text)
    except (TypeError, json.JSONDecodeError) as exc:
        return problems + [f"report is not JSON: {exc}"]
    if report.get("overall_pass") is not True:
        problems.append("overall_pass is not true")
    if report.get("oracle", {}).get("seed") != int(_flag(argv, "--seed")):
        problems.append("report does not echo the op's seed")
    checks = {c.get("name"): c for c in report.get("checks", [])}
    for name, direction in GATING_CHECKS.items():
        c = checks.get(name)
        if c is None:
            problems.append(f"check {name} missing")
            continue
        sup, tol = c.get("norm_sup"), c.get("tolerance")
        holds = (sup <= tol) if direction == "below" else (sup >= tol)
        if c.get("direction") != direction or c.get("pass") is not True or not holds:
            problems.append(f"check {name}: direction={c.get('direction')} "
                            f"pass={c.get('pass')} norm_sup={sup} tolerance={tol}, "
                            f"expected a pass {direction}")
    return problems


def sweep_problems(argv, exit_code, stdout):
    """Differences between a `sweep` op and its expected verdicts (empty if none)."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}, expected 0")
    requested = [float(tok) for tok in _flag(argv, "--epsilons").split(",")]
    lines = stdout.splitlines()
    rows = [ln.split() for ln in lines[1:] if ln and not ln.startswith("slope")]
    slope_lines = [ln for ln in lines if ln.startswith("slope ")]
    if any(len(r) != 3 for r in rows):
        return problems + ["malformed sweep row"]
    if [float(r[0]) for r in rows] != requested:
        problems.append("sweep rows do not match the requested epsilons")
    if any(r[2] != "yes" for r in rows):
        problems.append("a sweep row was left out of the fit")
    if len(slope_lines) != 1:
        return problems + ["no slope line"]
    slope = float(slope_lines[0].split()[1])
    if not SLOPE_BAND[0] <= slope <= SLOPE_BAND[1]:
        problems.append(f"slope {slope} outside {SLOPE_BAND}")
    return problems
