"""Network statistics: latency, throughput, hop counts, PRA counters.

The system-level performance model reads packet latencies directly; the
aggregated statistics here back the network-level experiments (load vs.
latency) and the Section V-B control-packet analysis.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List

from repro.noc.packet import Packet
from repro.params import MessageClass


def _mean(values: List[int]) -> float:
    return sum(values) / len(values) if values else 0.0


def _percentile(values: List[int], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (0 for empty input)."""
    if not values:
        return 0.0
    if not (0.0 <= fraction <= 1.0):
        raise ValueError("percentile fraction must be in [0, 1]")
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return float(ordered[rank])


@dataclass
class NetworkStats:
    """Counters collected by a network over a simulation run."""

    packets_injected: int = 0
    packets_ejected: int = 0
    flits_ejected: int = 0
    total_hops: int = 0
    network_latencies: List[int] = field(default_factory=list)
    total_latencies: List[int] = field(default_factory=list)
    per_class_latency: Dict[MessageClass, List[int]] = field(
        default_factory=lambda: {mc: [] for mc in MessageClass}
    )
    #: Cycles packets spent blocked behind resources proactively
    #: allocated to *other* packets (Section V-B underutilization stat).
    pra_blocked_cycles: int = 0
    #: PRA control-network counters (zero for non-PRA organizations).
    control_packets_injected: int = 0
    #: Control packets dropped at the injection latch (never entered).
    control_injection_conflicts: int = 0
    control_lag_at_drop: Counter = field(default_factory=Counter)
    control_drop_reasons: Counter = field(default_factory=Counter)
    #: Data packets that began traversal with a pre-allocated path.
    pra_planned_packets: int = 0
    #: Evaluation-grid cache observability (counted on the module-wide
    #: ``repro.harness.runner.grid_stats`` instance, not per network).
    grid_cache_hits: int = 0
    grid_cache_misses: int = 0
    #: Supervised-execution observability (also counted on the
    #: module-wide ``grid_stats`` instance via
    #: ``repro.resilience.report.publish`` — never on the stats object
    #: of a supervised run itself, so recovery leaves the pinned golden
    #: digests untouched).
    worker_retries: int = 0
    pool_rebuilds: int = 0
    cells_quarantined: int = 0
    #: Analytic fast-path observability (also only ever counted on the
    #: module-wide ``grid_stats`` instance): grid cells served by the
    #: queueing model under ``REPRO_ANALYTIC=prune`` vs. cells that
    #: still went through the cycle-accurate simulator.
    analytic_cells: int = 0
    simulated_cells: int = 0

    def record_injection(self, packet: Packet) -> None:
        self.packets_injected += 1

    def record_ejection(self, packet: Packet) -> None:
        self.packets_ejected += 1
        self.flits_ejected += packet.size
        self.total_hops += packet.hops_taken
        net = packet.network_latency()
        tot = packet.total_latency()
        if net is not None:
            self.network_latencies.append(net)
            self.per_class_latency[packet.msg_class].append(net)
        if tot is not None:
            self.total_latencies.append(tot)
        self.pra_blocked_cycles += packet.pra_blocked_cycles

    # -- summaries -------------------------------------------------------

    @property
    def avg_network_latency(self) -> float:
        return _mean(self.network_latencies)

    @property
    def avg_total_latency(self) -> float:
        return _mean(self.total_latencies)

    @property
    def avg_hops(self) -> float:
        if not self.packets_ejected:
            return 0.0
        return self.total_hops / self.packets_ejected

    def avg_class_latency(self, mc: MessageClass) -> float:
        return _mean(self.per_class_latency[mc])

    def latency_percentile(self, fraction: float) -> float:
        """Network-latency percentile (e.g. 0.99 for the p99 tail)."""
        return _percentile(self.network_latencies, fraction)

    def latency_histogram(self, bucket: int = 4) -> Dict[int, int]:
        """Latencies bucketed into ``bucket``-cycle bins (lower edge)."""
        if bucket < 1:
            raise ValueError("bucket width must be positive")
        hist: Dict[int, int] = {}
        for latency in self.network_latencies:
            edge = (latency // bucket) * bucket
            hist[edge] = hist.get(edge, 0) + 1
        return dict(sorted(hist.items()))

    @property
    def in_flight(self) -> int:
        return self.packets_injected - self.packets_ejected

    @property
    def control_packets_per_data_packet(self) -> float:
        if not self.packets_injected:
            return 0.0
        return self.control_packets_injected / self.packets_injected

    def lag_distribution(self) -> Dict[int, float]:
        """Fraction of control packets dropped at each lag (Figure 7)."""
        total = sum(self.control_lag_at_drop.values())
        if not total:
            return {}
        return {
            lag: count / total
            for lag, count in sorted(self.control_lag_at_drop.items())
        }

    def pra_blocked_fraction(self) -> float:
        """Blocked-behind-reservation time over total network time."""
        total_time = sum(self.network_latencies)
        if not total_time:
            return 0.0
        return self.pra_blocked_cycles / total_time

    def summary(self, include_pools: bool = False) -> Dict[str, float]:
        out = {
            "packets_injected": self.packets_injected,
            "packets_ejected": self.packets_ejected,
            "packets_unfinished": self.in_flight,
            "avg_network_latency": self.avg_network_latency,
            "avg_total_latency": self.avg_total_latency,
            "avg_hops": self.avg_hops,
            "control_packets_per_data_packet": self.control_packets_per_data_packet,
        }
        # Grid-cache counters appear only when a cache was actually in
        # play; unconditional keys would shift the pinned golden digests
        # in tests/test_golden_determinism.py.
        if self.grid_cache_hits or self.grid_cache_misses:
            out["grid_cache_hits"] = self.grid_cache_hits
            out["grid_cache_misses"] = self.grid_cache_misses
        # Same deal for the supervision counters: they only ever tick on
        # the module-wide grid_stats object, and only when something
        # actually failed, so unfaulted summaries stay digest-stable.
        if self.worker_retries or self.pool_rebuilds \
                or self.cells_quarantined:
            out["worker_retries"] = self.worker_retries
            out["pool_rebuilds"] = self.pool_rebuilds
            out["cells_quarantined"] = self.cells_quarantined
        # And the analytic-screening counters: they only tick when a
        # sweep ran with REPRO_ANALYTIC=prune, never during a plain
        # simulation, so golden summaries are unaffected.
        if self.analytic_cells or self.simulated_cells:
            out["analytic_cells"] = self.analytic_cells
            out["simulated_cells"] = self.simulated_cells
        # Allocator counters are process-wide (not per network) and vary
        # with unrelated runs in the same process, so they are opt-in to
        # keep the default key set digest-stable.
        if include_pools:
            from repro.noc.packet import pool_summary

            out.update(pool_summary())
        return out

    # -- checkpointing ---------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        return {
            "packets_injected": self.packets_injected,
            "packets_ejected": self.packets_ejected,
            "flits_ejected": self.flits_ejected,
            "total_hops": self.total_hops,
            "network_latencies": list(self.network_latencies),
            "total_latencies": list(self.total_latencies),
            "per_class_latency": [
                [mc.value, list(values)]
                for mc, values in self.per_class_latency.items()
            ],
            "pra_blocked_cycles": self.pra_blocked_cycles,
            "control_packets_injected": self.control_packets_injected,
            "control_injection_conflicts": self.control_injection_conflicts,
            "control_lag_at_drop": [
                [lag, count]
                for lag, count in sorted(self.control_lag_at_drop.items())
            ],
            "control_drop_reasons": [
                [reason, count]
                for reason, count in sorted(self.control_drop_reasons.items())
            ],
            "pra_planned_packets": self.pra_planned_packets,
            "grid_cache_hits": self.grid_cache_hits,
            "grid_cache_misses": self.grid_cache_misses,
            "worker_retries": self.worker_retries,
            "pool_rebuilds": self.pool_rebuilds,
            "cells_quarantined": self.cells_quarantined,
            "analytic_cells": self.analytic_cells,
            "simulated_cells": self.simulated_cells,
        }

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore **in place**: the control network, chip, and slices
        all hold aliases of their network's stats object."""
        self.packets_injected = state["packets_injected"]
        self.packets_ejected = state["packets_ejected"]
        self.flits_ejected = state["flits_ejected"]
        self.total_hops = state["total_hops"]
        self.network_latencies = list(state["network_latencies"])
        self.total_latencies = list(state["total_latencies"])
        restored = {
            MessageClass(value): list(values)
            for value, values in state["per_class_latency"]
        }
        self.per_class_latency = {
            mc: restored.get(mc, []) for mc in MessageClass
        }
        self.pra_blocked_cycles = state["pra_blocked_cycles"]
        self.control_packets_injected = state["control_packets_injected"]
        self.control_injection_conflicts = state["control_injection_conflicts"]
        self.control_lag_at_drop = Counter(
            {lag: count for lag, count in state["control_lag_at_drop"]}
        )
        self.control_drop_reasons = Counter(
            {reason: count for reason, count in state["control_drop_reasons"]}
        )
        self.pra_planned_packets = state["pra_planned_packets"]
        self.grid_cache_hits = state["grid_cache_hits"]
        self.grid_cache_misses = state["grid_cache_misses"]
        # Absent in snapshots written before supervised execution.
        self.worker_retries = state.get("worker_retries", 0)
        self.pool_rebuilds = state.get("pool_rebuilds", 0)
        self.cells_quarantined = state.get("cells_quarantined", 0)
        # Absent in snapshots written before the analytic fast path.
        self.analytic_cells = state.get("analytic_cells", 0)
        self.simulated_cells = state.get("simulated_cells", 0)
