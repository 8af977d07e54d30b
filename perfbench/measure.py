"""Pure helpers of the benchmark: percentiles, digests, self time.

Nothing here imports the simulator, so the rules the benchmark applies
to its measurements can be tested on their own
(``perfbench/tests/test_measure.py``).
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Dict, Iterable, List, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: above it; with fewer, one outlier would move the reported value.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a
    share ``q`` of all samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile rank must be in (0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def beyond(values: Sequence[float], q: float) -> int:
    """How many samples lie strictly above the ``q`` percentile."""
    cut = percentile(values, q)
    return sum(1 for value in values if value > cut)


def tail_percentile(values: Sequence[float], q: float) -> float:
    """The ``q`` percentile, refused when fewer than ``MIN_BEYOND``
    samples lie above it (the run was too short to report that tail)."""
    count = beyond(values, q)
    if count < MIN_BEYOND:
        raise ValueError(
            f"only {count} of {len(values)} samples above p{q * 100:g}; "
            f"need {MIN_BEYOND} (run more windows)"
        )
    return percentile(values, q)


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geometric mean needs positive samples")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def digest(payload) -> str:
    """sha256 of a JSON-serializable payload with sorted keys (the same
    encoding the repository's bench digests use for ``stats.summary()``)."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


class DigestBook:
    """First digest seen per operation key; later runs must match it."""

    def __init__(self) -> None:
        self._seen: Dict[tuple, str] = {}

    def check(self, key: tuple, value: str) -> bool:
        """Record ``value`` for ``key``; False when it differs from the
        digest recorded for the same key earlier."""
        first = self._seen.setdefault(key, value)
        return first == value


def conserved(stats) -> bool:
    """Every packet handed to the network came out of it."""
    return stats.packets_injected == stats.packets_ejected


def self_times(
    name_ids: Sequence[int],
    starts: Sequence[int],
    ends: Sequence[int],
    parents: Sequence[int],
    names: Sequence[str],
    child_cost_ns: float = 0.0,
    own_cost_ns: float = 0.0,
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Self time (ns) and call count per span name.

    A span's self time is its duration minus the durations of its
    direct children (their own children are already inside them).
    ``child_cost_ns`` is the tracing bookkeeping one child adds to its
    parent's interval outside the child's own clock readings; it is
    taken off the parent too, so a parent with many short children is
    not charged for the tracer.  ``own_cost_ns`` is the bookkeeping
    inside a span's own clock readings; it is taken off every span.
    """
    count = len(starts)
    child_ns = [0.0] * count
    for index in range(count):
        parent = parents[index]
        if parent >= 0:
            child_ns[parent] += ends[index] - starts[index] + child_cost_ns
    self_ns: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for index in range(count):
        name = names[name_ids[index]]
        own = ends[index] - starts[index] - child_ns[index] - own_cost_ns
        self_ns[name] = self_ns.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
    return self_ns, calls


def spread(values: List[float]) -> float:
    """Interquartile distance over the median (the steadiness rule the
    benchmark is held to)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
