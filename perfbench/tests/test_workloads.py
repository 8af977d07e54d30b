"""The benchmark's operations against the simulator's own entry points,
and its metric names against ``BENCHMARK.json``."""

import json
import os

import pytest

from perfbench import rounds
from perfbench import workloads as wl
from perfbench.measure import digest
from perfbench.spans import SpanRecorder
from repro.perf import SystemSimulator

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def finish(steps):
    """Run an operation's steps to the end; returns its result."""
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            return stop.value


def _spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        pytest.skip("BENCHMARK.json not in this checkout")
    with open(path) as fh:
        return json.load(fh)


def test_anchor_digests_match_the_committed_bench_baseline():
    path = os.path.join(ROOT, "benchmarks", "bench_baseline.json")
    if not os.path.exists(path):
        pytest.skip("no committed bench baseline")
    with open(path) as fh:
        micro = json.load(fh)["micro"]
    names = {"mesh": "mesh", "smart": "smart", "mesh_pra": "mesh+pra",
             "chiplet": "chiplet"}
    for org, name in names.items():
        assert wl.ANCHOR_DIGESTS[org] == micro[f"{name}@contested"]["digest"]


def test_windowed_system_run_equals_run_sample():
    op = wl.SystemOp("SAT Solver", "mesh_pra", seed=3, warmup=60,
                     measure=250, window=40)
    result = finish(op.run(op.build()))
    reference = SystemSimulator("SAT Solver", wl.ORGS["mesh_pra"], seed=3)
    sample = reference.run_sample(warmup=60, measure=250)
    assert result.sample_digest == digest(sample.to_dict())
    assert result.conserved
    assert len(result.windows) == 60 // 40 + 250 // 40


def test_lowload_operation_repeats_and_conserves():
    op = wl.LowLoadOp("mesh_pra", seed=4)
    first = finish(op.run(op.build()))
    second = finish(op.run(op.build()))
    assert first.conserved and first.digest == second.digest
    assert first.planned > 0 and first.work > 0


def _fake_result(org, group, windows=120):
    return wl.OpResult(
        label=f"{org}/{group}", org=org, group=group, cycles=1000,
        skipped=10, build_s=0.01, run_s=1.0, drain_s=0.1,
        windows=[0.01 + 0.0001 * i for i in range(windows)],
        digest="d", conserved=True, work=1.0 + (org == "mesh_pra") * 0.05,
        latency_p50=20.0, latency_p99=60.0, latencies_held=100,
        control_injected=10, planned=9,
    )


def test_metric_names_match_benchmark_json():
    spec = _spec()
    results = [_fake_result(org, group) for org in wl.ORGS
               for group in ("a", "b")]
    e2e = rounds.end_to_end(results, 0.1, [])
    assert list(e2e) == [metric["name"] for metric in spec["end_to_end"]]
    for metric in spec["end_to_end"]:
        assert e2e[metric["name"]][1] == metric["unit"]
    recorder = SpanRecorder()
    layers = rounds.per_layer(results, results, recorder, None)
    assert list(layers) == [metric["name"] for metric in spec["per_layer"]]
    for metric in spec["per_layer"]:
        assert layers[metric["name"]][1] == metric["unit"]
