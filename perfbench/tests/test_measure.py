"""The rules the benchmark applies to its own measurements."""

import os

import pytest

from perfbench.measure import (
    DigestBook,
    beyond,
    conserved,
    digest,
    percentile,
    self_times,
    tail_percentile,
)
from perfbench.reference import HostSpeed
from perfbench.spans import SpanRecorder, span_costs


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.95) == 95
    assert percentile(values, 1.0) == 100
    assert percentile([7.0], 0.95) == 7.0
    assert percentile([3, 1, 2], 0.5) == 2  # order does not matter


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1, 2], 0.0)


def test_tail_percentile_needs_ten_samples_beyond():
    assert beyond(list(range(200)), 0.95) == 10
    assert tail_percentile(list(range(200)), 0.95) == 189
    with pytest.raises(ValueError, match="samples above p95"):
        tail_percentile(list(range(199)), 0.95)


def test_self_time_subtracts_direct_children_only():
    # root [0, 100) > child [10, 40) > grandchild [20, 30); sibling [50, 60)
    names = ["root", "child", "grandchild", "sibling"]
    name_ids = [0, 1, 2, 3]
    starts = [0, 10, 20, 50]
    ends = [100, 40, 30, 60]
    parents = [-1, 0, 1, 0]
    self_ns, calls = self_times(name_ids, starts, ends, parents, names)
    assert self_ns == {"root": 60, "child": 20, "grandchild": 10,
                       "sibling": 10}
    assert sum(self_ns.values()) == 100  # every ns counted once
    assert calls == {"root": 1, "child": 1, "grandchild": 1, "sibling": 1}


def test_self_time_charges_span_cost_to_parent():
    names = ["root", "child"]
    self_ns, _ = self_times([0, 1, 1], [0, 10, 30], [100, 20, 40],
                            [-1, 0, 0], names, child_cost_ns=5)
    assert self_ns == {"root": 70, "child": 20}


def test_self_time_takes_own_cost_off_every_span():
    names = ["root", "child"]
    self_ns, _ = self_times([0, 1, 1], [0, 10, 30], [100, 20, 40],
                            [-1, 0, 0], names, child_cost_ns=5,
                            own_cost_ns=2)
    assert self_ns == {"root": 68, "child": 16}


def test_recorder_nests_spans_and_keeps_results():
    class Layer:
        def __init__(self):
            self.inner_calls = 0

        def outer(self, x):
            return self.inner(x) + 1

        def inner(self, x, scale=1):
            self.inner_calls += 1
            return x * scale

    layer = Layer()
    recorder = SpanRecorder()
    recorder.wrap(layer, "inner", "inner")
    recorder.wrap(layer, "outer", "outer")
    assert layer.outer(3) == 4
    assert layer.inner(2, scale=5) == 10
    assert list(recorder.parents) == [-1, 0, -1]
    self_ns, calls = recorder.layer_times()
    assert calls == {"outer": 1, "inner": 2}
    assert all(end >= start for start, end
               in zip(recorder.starts, recorder.ends))


def test_recorder_closes_span_when_call_raises():
    class Boom:
        def fail(self):
            raise RuntimeError("boom")

    boom = Boom()
    recorder = SpanRecorder()
    recorder.wrap(boom, "fail", "fail")
    with pytest.raises(RuntimeError):
        boom.fail()
    assert recorder.ends[0] >= recorder.starts[0] > 0
    with pytest.raises(RuntimeError):
        boom.fail()
    assert list(recorder.parents) == [-1, -1]  # no span left open


def test_digest_book_flags_a_changed_repeat():
    book = DigestBook()
    a, b = digest({"x": 1, "y": 2}), digest({"y": 2, "x": 1})
    assert a == b  # key order does not matter
    assert book.check(("mesh",), a)
    assert book.check(("mesh",), a)
    assert not book.check(("mesh",), digest({"x": 2, "y": 2}))
    assert book.check(("smart",), digest({"x": 2}))


def test_conservation_check():
    class Stats:
        packets_injected = 10
        packets_ejected = 10

    assert conserved(Stats())
    Stats.packets_ejected = 9
    assert not conserved(Stats())


def test_span_costs_are_measured_in_place():
    outside, inside = span_costs(calls=200, repeats=3)
    assert 0.0 <= outside < 1e5 and 0.0 <= inside < 1e5
    assert outside + inside > 0  # a traced call costs something


def test_host_probe_runs_in_a_helper_process():
    with HostSpeed() as host:
        host.sample()
        host.sample()
        helper = host._helper
        assert helper.pid != os.getpid()
        assert len(host.probes) == 2 and host.scale() > 0
    assert helper.returncode == 0  # stopped and waited for
