#!/usr/bin/env python3
"""Certification benchmark for slipball.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from its
`src/` directory.  Workloads are defined in workloads.py; README.md says
what each one is for and what every metric means.

With `--trace 0` the run reports, for the workload:

* setup_s      median over fresh interpreters of `import slipball` plus
               `family_by_label("default")`;
* op_ref       median over ops of the op's wall time divided by the time of
               a fixed pure-Python reference loop run around it, in one
               long-lived worker process after one untimed warm-up op;
* peak_rss_mb  `ru_maxrss` of that worker at the end of its timed ops.

With `--trace 1` the worker runs half its time untraced and half traced,
and the run reports the per-layer metrics of tracer.METRIC_UNITS.

Every op's exit code and check verdicts are compared with the expected ones.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The line before it carries the seed, the environment,
the hash of a fixed-seed report (`report_sha256`), `failed_ratio` and the
op wall time `op_s` in seconds: median, sample count, quartiles, and the
highest of p99/p90/p75 that has at least ten samples above it.
"""
import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 4  # before the worker, and as many again after it
DEADLINE_S = 170  # the whole run, setup included, ends within this

SETUP_SNIPPET = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import slipball\n"
    "slipball.family_by_label('default')\n"
    "print(time.perf_counter() - t0)\n"
)


def worker_env():
    """Environment for every child: the checkout's package, one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(env, n, timeout):
    """Times of `n` fresh-interpreter set-ups."""
    samples = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def git_sha():
    """Commit of the checkout, read from .git without running git (None if absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def tail(values):
    """The highest of p99, p90 and p75 with at least ten samples above it."""
    for p in (99, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            return {"percentile": p, "value": statistics.quantiles(values, n=100)[p - 1]}
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "slipball" / "__init__.py").is_file():
        sys.exit(f"no slipball package under {ROOT / 'src'}: run from a source checkout")

    start = time.monotonic()

    def remaining():
        return max(1.0, DEADLINE_S - (time.monotonic() - start))

    env = worker_env()
    # the first set-up fills the bytecode caches and is not counted
    setup = [] if args.trace else measure_setup(env, SETUP_SAMPLES + 1, remaining())[1:]

    work_parent = BENCH_DIR / "_work"
    work_parent.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_parent)
    try:
        out = Path(workdir, "result.json")
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), "--root", str(ROOT),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir, "--out", str(out)],
            env=env, cwd=ROOT, check=True,
            timeout=remaining())
        result = json.loads(out.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_parent.rmdir()

    if not args.trace:
        setup += measure_setup(env, SETUP_SAMPLES, remaining())
    op_s = result["op_s"]
    attempted, failed = result["attempted"], result["failed"]
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "env": {"git_sha": git_sha(), **result["env"]},
        "report_sha256": result["report_sha256"],
        "failed_ratio": {"value": failed / attempted, "unit": "1"},
        "op_s": {"value": statistics.median(op_s), "unit": "s"},
        "op_s_samples": len(op_s),
        "op_s_quartiles": quartiles(op_s),
        "op_s_tail": tail(op_s),
    }
    if args.trace:
        spans_file = BENCH_DIR / "_out" / f"spans-{args.workload}.json"
        spans_file.parent.mkdir(exist_ok=True)
        spans_file.write_text(json.dumps(result["last_op_spans"]))
        info["spans_file"] = str(spans_file.relative_to(ROOT))
        metrics = result["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "op_ref": {"value": statistics.median(result["op_ref"]), "unit": "ref"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
