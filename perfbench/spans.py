"""Span recording from outside the simulator.

The benchmark times each layer by replacing a public method on the
*instance* with a wrapper that records one span per call: name, start,
end and the span that was open when it was called (its parent).
Instance attributes are the only place that sees every call: routers
pick their ``step`` per instance while the network is built, and
``Network.run`` reads ``self.step`` once on entry, so patching classes
would miss calls.  Spans stay in flat arrays in memory and are written
out once the run ends.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from array import array
from typing import Dict, List, Tuple

from perfbench.measure import self_times


class SpanRecorder:
    """Flat in-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self._open = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, obj, attr: str, name: str) -> None:
        """Route every call of ``obj.<attr>`` through a span named
        ``name``."""
        inner = getattr(obj, attr)
        name_id = self._name_id(name)
        name_ids, starts, ends, parents = (
            self.name_ids, self.starts, self.ends, self.parents
        )
        open_spans = self._open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(open_spans[-1])
            starts.append(0)
            ends.append(0)
            open_spans.append(index)
            start = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                starts[index] = start
                ends[index] = end

        setattr(obj, attr, traced)

    def __len__(self) -> int:
        return len(self.starts)

    def layer_times(self, child_cost_ns: float = 0.0,
                    own_cost_ns: float = 0.0):
        """(self ns, call count) per span name."""
        return self_times(self.name_ids, self.starts, self.ends,
                          self.parents, self.names, child_cost_ns,
                          own_cost_ns)

    def write(self, directory: str, stem: str) -> str:
        """Write the spans as raw int64 arrays plus a JSON index."""
        os.makedirs(directory, exist_ok=True)
        base = os.path.join(directory, stem)
        with open(base + ".bin", "wb") as fh:
            for column in (self.name_ids, self.starts, self.ends,
                           self.parents):
                column.tofile(fh)
        with open(base + ".json", "w") as fh:
            json.dump({"names": self.names, "spans": len(self),
                       "columns": ["name_id", "start_ns", "end_ns",
                                   "parent"],
                       "dtype": "int64"}, fh)
            fh.write("\n")
        return base + ".bin"


class _Calls:
    """A parent that calls a child ``count`` times, or runs the same
    loop without the calls (span calibration)."""

    def __init__(self, count: int):
        self.count = count

    def child(self) -> None:
        pass

    def parent(self) -> None:
        child = self.child
        for _ in range(self.count):
            child()

    def loop(self) -> None:
        for _ in range(self.count):
            pass


def span_costs(calls: int = 2000,
               repeats: int = 9) -> Tuple[float, float]:
    """The tracer's cost per span, measured in place: (ns it adds to
    the parent's interval outside the span's own, ns it adds inside the
    span's own interval).

    A parent runs a loop of ``calls`` iterations three ways: empty,
    calling a no-op child, and calling the child traced.  With E, B and
    T the three parents' times and D the traced children's total, the
    cost outside a span is (T - D - E) / calls and the cost inside it is
    (D - (B - E)) / calls.  Each time is the median over ``repeats``, so
    a host stall in one repeat does not move it.
    """
    empty, bare, traced, children = [], [], [], []
    for _ in range(repeats):
        loops = [_Calls(calls) for _ in range(3)]
        recorder = SpanRecorder()
        recorder.wrap(loops[0], "loop", "loop")
        recorder.wrap(loops[1], "parent", "parent")
        recorder.wrap(loops[2], "child", "child")
        recorder.wrap(loops[2], "parent", "parent")
        loops[0].loop()
        loops[1].parent()
        loops[2].parent()
        durations = [end - start
                     for start, end in zip(recorder.starts, recorder.ends)]
        # Spans in the order they opened: the empty loop, the bare
        # parent, the traced parent, its children.
        empty.append(durations[0])
        bare.append(durations[1])
        traced.append(durations[2])
        children.append(sum(durations[3:]))
    e, b, t, d = (statistics.median(values)
                  for values in (empty, bare, traced, children))
    return max(0.0, (t - d - e) / calls), max(0.0, (d - (b - e)) / calls)
