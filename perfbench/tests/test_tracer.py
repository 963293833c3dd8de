"""Span bookkeeping of the outside-in tracer."""
from collections import defaultdict

import pytest

import tracer


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def nested_trace():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    t = tracer.Tracer(clock=fake_clock([0, 1, 2, 3, 4, 5, 9, 10]))
    root = t.open("cli", "main")
    a = t.open("verify", "a")
    a1 = t.open("kernels", "k")
    t.close(a1)
    t.close(a)
    b = t.open("oracle", "b")
    t.close(b)
    t.close(root)
    return t.take()


def test_self_time_is_duration_minus_children():
    spans = nested_trace()
    by_name = {s.name: s for s in spans}
    assert [s.parent for s in spans] == [None, 0, 1, 0]
    selfs = tracer.self_times(spans)
    assert selfs[by_name["main"].id] == 3   # 10 - (4-1) - (9-5)
    assert selfs[by_name["a"].id] == 2      # 3 - (3-2)
    assert selfs[by_name["k"].id] == 1
    assert selfs[by_name["b"].id] == 4


def test_layer_self_times_sum_to_root():
    totals = tracer.accumulate(defaultdict(float), nested_trace())
    layer_sum = sum(totals[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert layer_sum == totals["trace.root_s"] == 10


def test_overlapping_children_count_once():
    spans = [tracer.Span(0, None, "cli", "main", 0.0, 10.0),
             tracer.Span(1, 0, "verify", "a", 2.0, 6.0),
             tracer.Span(2, 0, "verify", "b", 4.0, 8.0),
             tracer.Span(3, 0, "verify", "c", 9.0, 12.0)]   # clipped at the parent's end
    assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_metrics_are_per_op():
    totals = tracer.accumulate(tracer.accumulate(defaultdict(float), nested_trace()),
                               nested_trace())
    m = tracer.metrics(totals, 2, overhead_s=0.5)
    assert set(m) == set(tracer.METRIC_UNITS)
    assert m["trace.root_s"]["value"] == 10
    assert m["cli.self_s"] == {"value": 3, "unit": "s"}
    assert m["trace.overhead_s"]["value"] == 0.5


def test_install_wraps_and_restore_puts_originals_back():
    from slipball import cli, family, kernels, oracle

    before = (cli.main, kernels.default_angular_jet, oracle.fd_partial,
              vars(family.CounterexampleField)["u_components"])
    t = tracer.Tracer()
    t.install()
    try:
        assert kernels.default_angular_jet is not before[1]
        f = family.family_by_label("default")   # built after install: traced jets
        f.u_components(0.8, 1.5, 0.3)
    finally:
        t.restore()
    after = (cli.main, kernels.default_angular_jet, oracle.fd_partial,
             vars(family.CounterexampleField)["u_components"])
    assert all(x is y for x, y in zip(before, after))
    spans = t.take()
    names = [s.name for s in spans]
    assert names[0] == "family_by_label"
    evaluation = next(s for s in spans if s.name == "CounterexampleField.u_components")
    assert (evaluation.nodes, evaluation.support_hits) == (1, 1)
    kernel_parents = {s.parent for s in spans if s.name == "default_angular_jet"}
    assert evaluation.id in kernel_parents
