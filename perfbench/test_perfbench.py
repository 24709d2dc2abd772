"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import time

import pytest

import run  # noqa: F401 - pins threads and puts src/ on sys.path first
import tracing
import workloads

import cji.samplers
import cji.schedules

SMALL = {
    "sweep_mixture_inpaint": dict(dim=8, chains=20, w_values=(2.0, 8.0),
                                  per_component=(1, 1)),
    "posterior_gauss_mask": dict(dim=8, chains=40, nfe=6),
    "deblur_256": dict(side=16, chains=2, nfe=4),
    "harness_external": {},
}


def small(name, seed=3):
    return workloads.WORKLOADS[name](seed, **SMALL[name])


def test_tail_latency_is_the_eleventh_largest_sample():
    samples = list(range(1, 101))
    value, pct, n = run.tail_latency(samples)
    assert (value, n) == (90, 100)
    assert pct == pytest.approx(90.0)
    assert sum(s > value for s in samples) == 10
    # Too few samples for a tail above the median: report the maximum.
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_spans_record_parents_and_self_time():
    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.01)

    inner = tracer.wrap("operators", "inner", leaf)
    nested_same_layer = tracer.wrap("operators", "outer", lambda: (inner(), inner()))
    top = tracer.wrap("samplers", "top", lambda: (time.sleep(0.01), nested_same_layer()))
    tracer.call_id = 7
    top()

    by_name = {tracer._names[tracer.name[i]]: i for i in range(tracer.span_count())}
    outer_i, top_i = by_name["outer"], by_name["top"]
    assert tracer.parent[top_i] == -1
    assert tracer.parent[outer_i] == tracer.sid[top_i]
    inner_parents = [tracer.parent[i] for i in range(tracer.span_count())
                     if tracer._names[tracer.name[i]] == "inner"]
    assert inner_parents == [tracer.sid[outer_i]] * 2
    assert set(tracer.call) == {7}
    # Nested operator calls are child spans but not counted as calls.
    assert tracer.outer_calls[("operators", "outer")] == 1
    assert tracer.outer_calls[("operators", "inner")] == 0
    total = tracer.end[top_i] - tracer.start[top_i]
    assert sum(tracer.self_s.values()) == pytest.approx(total, abs=1e-9)
    assert tracer.self_s["samplers"] == pytest.approx(0.01, abs=5e-3)
    assert tracer.self_s["operators"] == pytest.approx(0.02, abs=5e-3)


def test_uninstall_restores_every_entry_point():
    before = (cji.samplers.sample, cji.schedules.DiffusionSchedule.mu)
    with tracing.Tracer():
        assert cji.samplers.sample is not before[0]
        assert cji.schedules.DiffusionSchedule.mu is not before[1]
    assert (cji.samplers.sample, cji.schedules.DiffusionSchedule.mu) == before


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_outputs_equal_untraced_bitwise(name):
    workload = small(name)
    try:
        calls = workload.calls()
        plain = run.run_cycle(workload, calls, summarize=False)
        tracer = tracing.Tracer()
        with tracer:
            first = run.run_cycle(workload, calls, summarize=False, tracer=tracer)
            counts = tracer.layer_metrics()
            tracer.reset()
            second = run.run_cycle(workload, calls, summarize=False, tracer=tracer)
            again = tracer.layer_metrics()
        again_plain = run.run_cycle(workload, calls, summarize=False)
    finally:
        workload.close()
    assert not plain.errors and not first.errors
    assert first.digests == plain.digests == second.digests == again_plain.digests
    for key in tracing.EXACT_COUNTS:
        assert counts[key] == again[key], key
    assert counts["samplers.calls"] > 0 and counts["conjugate.table_builds"] > 0
    if name == "harness_external":
        assert counts["external.requests"] > 0 and counts["tensorio.writes"] == 9
    else:
        assert counts["oracles.field.rows"] > 0 and counts["external.requests"] == 0


def test_benchmark_json_lists_exactly_the_reported_metrics():
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(spec["workloads"][i]["name"] for i in range(len(spec["workloads"]))) \
        == set(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END[m["name"]][0]

    workload = small("deblur_256")
    try:
        calls = workload.calls()
        untraced = run.run_cycle(workload, calls, summarize=False)
        tracer = tracing.Tracer()
        with tracer:
            traced, layers = [], []
            for _ in range(2):
                tracer.reset()
                traced.append(run.run_cycle(workload, calls, summarize=False,
                                            tracer=tracer))
                layers.append(tracer.layer_metrics())
    finally:
        workload.close()
    metrics, ok = run.per_layer_metrics(untraced, traced, layers)
    assert ok
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (_, unit) in metrics.items()}
