"""Seeded op generation and the expected-verdict checks."""
import itertools
import json

import pytest

import workloads

W = workloads.WORKLOADS


def first(name, seed, n=20):
    return list(itertools.islice(workloads.op_stream(W[name], seed, "r.json"), n))


@pytest.mark.parametrize("name", sorted(W))
def test_stream_is_deterministic_in_the_seed(name):
    assert first(name, 7) == first(name, 7)
    assert first(name, 7) != first(name, 8)


@pytest.mark.parametrize("name", sorted(W))
def test_no_two_ops_share_an_argv(name):
    ops = first(name, 3, n=200)
    assert len({tuple(a) for a in ops}) == len(ops)


def test_sweep_epsilons_are_drawn_in_range():
    for argv in first("sweep", 1):
        eps = [float(t) for t in argv[argv.index("--epsilons") + 1].split(",")]
        assert len(eps) == workloads.SWEEP_EPSILONS
        assert all(1e-6 <= e <= 1e-1 for e in eps)


def passing_report(seed):
    checks = [{"name": n, "direction": d, "pass": True,
               "norm_sup": 0.0 if d == "below" else 1.0, "tolerance": 0.1}
              for n, d in workloads.GATING_CHECKS.items()]
    return {"overall_pass": True, "oracle": {"seed": seed}, "checks": checks}


def test_verify_verdicts():
    argv = first("verify-coarse", 5, n=1)[0]
    seed = int(argv[argv.index("--seed") + 1])
    report = passing_report(seed)
    assert workloads.verify_problems(argv, 0, json.dumps(report)) == []
    assert workloads.verify_problems(argv, 2, json.dumps(report))
    assert workloads.verify_problems(argv, 0, None)
    report["checks"][3]["norm_sup"] = 0.01   # a non-vanishing check below its threshold
    assert workloads.verify_problems(argv, 0, json.dumps(report))
    assert workloads.verify_problems(argv, 0, json.dumps(passing_report(seed + 1)))


def test_sweep_verdicts():
    argv = ["sweep", "--epsilons", "0.1,0.01"]
    ok = "  eps  residual  in_fit\n0.1 0.25  yes\n0.01 0.025  yes\nslope 1.000000 (target)\n"
    assert workloads.sweep_problems(argv, 0, ok) == []
    assert workloads.sweep_problems(argv, 0, ok.replace("0.025  yes", "0.025  no"))
    assert workloads.sweep_problems(argv, 0, ok.replace("slope 1.000000", "slope 1.100000"))
    assert workloads.sweep_problems(["sweep", "--epsilons", "0.1,0.02"], 0, ok)
