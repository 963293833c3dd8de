"""Benchmark worker: one long-lived process that runs one workload's ops
in-process through `slipball.cli.main(argv)`.

    python perfbench/worker.py --root <checkout> --workload <name> --seed <n>
        --seconds <s> --trace <0|1> --workdir <dir> --out <result.json>

One untimed warm-up op, then timed ops for `--seconds`.  With `--trace 1`
the first half of that time runs untraced and the second half traced, so
the difference of the two medians is the tracing overhead.  The
result (op times, verdict counts, peak RSS, environment, per-layer totals)
is written as JSON to `--out`, and `run.py` turns it into metrics.
"""
import argparse
import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import tracer
import workloads

MIN_OPS = 3
MAX_LOGGED_FAILURES = 5
REFERENCE_ITERATIONS = 50_000
REFERENCE_SHARE = 0.1
REPORT_SEED = "1234"  # the fixed seed of the report behind report_sha256


def reference_block(op_s):
    """Time a fixed pure-Python loop, repeatedly, for about REFERENCE_SHARE
    of the op just run (at least once); return the loop times.

    A shared host can change speed by tens of percent from one minute to
    the next.  The loop shares no code with slipball but slows with the
    host, so an op time divided by the loop time measured around it keeps
    the program's cost and drops most of the host's drift."""
    samples = []
    while not samples or sum(samples) < REFERENCE_SHARE * op_s:
        t0 = time.perf_counter()
        acc = 0
        for i in range(REFERENCE_ITERATIONS):
            acc += i * i
        samples.append(time.perf_counter() - t0)
    return samples


def run_op(cli, argv):
    """Run one op with stdout/stderr captured; return (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - t0
    return code, out.getvalue(), elapsed


class Runner:
    def __init__(self, cli, workload, seed, workdir):
        self.cli = cli
        self.workload = workload
        self.report = os.path.join(workdir, "op_report.json")
        self.stream = workloads.op_stream(workload, seed, self.report)
        self.attempted = 0
        self.failed = 0

    def op(self):
        """Run the next op of the stream and check its verdicts.

        Returns the op's time, or None when it raised."""
        argv = next(self.stream)
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.report)
        self.attempted += 1
        try:
            code, stdout, elapsed = run_op(self.cli, argv)
            if self.workload.command == "verify":
                text = Path(self.report).read_text() if os.path.exists(self.report) else None
                problems = workloads.verify_problems(argv, code, text)
            else:
                problems = workloads.sweep_problems(argv, code, stdout)
        except Exception:  # an op that raises is a failed op; keep measuring
            problems = [traceback.format_exc()]
            elapsed = None
        if problems:
            self.failed += 1
            if self.failed <= MAX_LOGGED_FAILURES:
                print(f"op failed: {' '.join(argv)[:200]}\n  " + "\n  ".join(problems),
                      file=sys.stderr)
        return elapsed

    def timed(self, seconds, after_op=None):
        """Run ops for `seconds` (at least MIN_OPS).

        Returns the op times and each op time divided by the median
        reference time measured around it (see `reference_block`)."""
        times, ratios = [], []
        before = reference_block(0.0)
        deadline = time.perf_counter() + seconds
        for n in itertools.count(1):
            elapsed = self.op()
            after = reference_block(elapsed or 0.0)
            if elapsed is not None:
                times.append(elapsed)
                ratios.append(elapsed / statistics.median(before + after))
            before = after
            if after_op is not None:
                after_op()
            if n >= MIN_OPS and time.perf_counter() >= deadline:
                return times, ratios


def report_sha256(cli, workdir):
    """SHA-256 of a fixed-seed `verify --family default --no-timestamp` report."""
    path = os.path.join(workdir, "fixed_report.json")
    code, _, _ = run_op(cli, ["verify", "--family", "default", "--no-timestamp",
                              "--report", path, "--seed", REPORT_SEED])
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return digest if code == 0 else f"{digest} (exit {code})"


def environment(slipball):
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": slipball.BACKEND,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    import slipball
    from slipball import cli

    src = Path(args.root, "src").resolve()
    if src not in Path(slipball.__file__).resolve().parents:
        sys.exit(f"slipball imported from {slipball.__file__}, not from {src}")

    runner = Runner(cli, workloads.WORKLOADS[args.workload], args.seed, args.workdir)
    runner.op()  # warm-up, untimed
    result = {"env": environment(slipball)}
    if args.trace:
        untraced, _ = runner.timed(args.seconds / 2)
        t = tracer.Tracer()
        totals, last = defaultdict(float), []

        def fold():
            last[:] = t.take()
            tracer.accumulate(totals, last)
            totals["ops"] += 1

        t.install()
        try:
            traced, _ = runner.timed(args.seconds / 2, after_op=fold)
        finally:
            t.restore()
        overhead = statistics.median(traced) - statistics.median(untraced)
        result["op_s"] = untraced
        result["layers"] = tracer.metrics(totals, totals["ops"], overhead)
        result["last_op_spans"] = tracer.spans_to_json(last)
    else:
        result["op_s"], result["op_ref"] = runner.timed(args.seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["attempted"] = runner.attempted
    result["failed"] = runner.failed
    result["report_sha256"] = report_sha256(cli, args.workdir)
    Path(args.out).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
