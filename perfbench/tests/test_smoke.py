"""Few-op runs of every workload through the benchmark's own command."""
import json
import subprocess
import sys

import pytest

import tracer
import workloads
from conftest import BENCH_DIR

ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert info["failed_ratio"] == {"value": 0.0, "unit": "1"}
    assert len(info["report_sha256"]) == 64 and info["seed"] == 3
    return info, result["metrics"]


def test_workloads_match_the_spec():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracer.METRIC_UNITS


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_end_to_end_metrics(workload):
    _, metrics = run(workload, 0)
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_per_layer_metrics(workload):
    info, metrics = run(workload, 1)
    assert {k: v["unit"] for k, v in metrics.items()} == tracer.METRIC_UNITS
    value = {k: v["value"] for k, v in metrics.items()}
    layer_sum = sum(value[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert layer_sum == pytest.approx(value["trace.root_s"], rel=1e-9)
    oracle_calls = [v for k, v in value.items() if k.startswith("oracle.") and k.endswith(".calls")]
    if workload == "sweep":
        assert not any(oracle_calls) and value["oracle.field_evals"] == 0
    else:
        assert all(oracle_calls) and value["verify.run_full_verification.s"] > 0
    assert (ROOT / info["spans_file"]).is_file()
