"""The benchmark's four workloads and the operations they are made of.

An *operation* is one simulation of one organization (for ``sweep``,
also one grid cell).  Each operation is built (the set-up the benchmark
times as ``setup_s``), optionally instrumented with spans, then run in
fixed windows of simulated cycles and checked: it must finish, drain,
and conserve packets, and its digest must repeat whenever the same
operation runs again with the same seed.

Every call into the simulator goes through its public API.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.harness import EvaluationScale
from repro.noc import NetworkStats, build_network
from repro.noc.packet import packet_pool, reset_packet_ids
from repro.params import MessageClass, NocKind, NocParams
from repro.perf import SystemSimulator
from repro.workloads import WORKLOAD_NAMES, SyntheticTraffic, TrafficPattern

from perfbench.measure import conserved, digest

#: Benchmark names of the organizations, and the kind each builds.
ORGS: Dict[str, NocKind] = {
    "mesh": NocKind.MESH,
    "smart": NocKind.SMART,
    "mesh_pra": NocKind.MESH_PRA,
    "ideal": NocKind.IDEAL,
}
#: Organizations whose routers the traced run times one by one (the
#: ideal network moves whole packets and has no routers).
ROUTER_ORGS = ("mesh", "smart", "mesh_pra", "chiplet")

#: Cycles a drain may take before the operation counts as deadlocked.
DRAIN_LIMIT = 200_000

# -- fullsys: the paper's Figure 6 co-simulation ---------------------------

#: Web Search is the lightest, latency-sensitive profile; SAT Solver has
#: the highest MPKI and so the most PRA control traffic.
FULLSYS_PROFILES = ("Web Search", "SAT Solver")
FULLSYS_WARMUP = 500
FULLSYS_MEASURE = 2000
FULLSYS_WINDOW = 25

# -- contested: open-loop uniform random traffic near saturation -----------

#: The ``@contested`` scenario of ``python -m repro bench``: ~0.7 of XY
#: saturation on the 8x8 mesh, a matching relative load on a 2x2 grid
#: of 4x4 chiplets, 3000 cycles each.  Ideal runs at the mesh load so
#: that every organization has a throughput figure on every workload,
#: for four times as many cycles: at 3000 it took a tenth of a second
#: of host time per round and its throughput spread twice as much as
#: the others'.
CONTESTED_WINDOW = 10
CONTESTED_CELLS: Tuple[Tuple[str, NocKind, str, float, int], ...] = (
    ("mesh", NocKind.MESH, "mesh", 0.08, 3000),
    ("smart", NocKind.SMART, "mesh", 0.08, 3000),
    ("mesh_pra", NocKind.MESH_PRA, "mesh", 0.08, 3000),
    ("chiplet", NocKind.MESH, "chiplet:2x2x4x4", 0.02, 3000),
    ("ideal", NocKind.IDEAL, "mesh", 0.08, 12000),
)
#: At seed 11 the first four cells must reproduce the ``@contested``
#: digests committed in ``benchmarks/bench_baseline.json`` (checked by
#: ``perfbench/tests/test_workloads.py`` against that file).
ANCHOR_SEED = 11
ANCHOR_DIGESTS = {
    "mesh": "cf4aae864884a14382abd243a5e1172aa8396e86f1dce2c5205f1e75d4a1307c",
    "smart": "0efbb9f1bf85a364d6bf9bae8ad393031c7453bebafaa967c5d95a0f1c57e2c2",
    "mesh_pra":
        "add3d7d3c16b25dd20d7156009364cd0782472156d98c9b18505aea16d4905c4",
    "chiplet":
        "6c6150d9cd6d8c0dd18fd96808d446518fc63c478f64423681a84ed01356c49f",
}

# -- lowload: closed-loop clients at server utilization --------------------

LOW_CLIENTS = 16
LOW_CYCLES = 100_000
#: Think time between a reply and the client's next request (cycles).
LOW_THINK = (200, 1000)
#: Cycles between the server's announcement and the response's send:
#: the LLC data-lookup window that PRA's LLC-hit trigger exploits.
LOW_LEAD = 4
LOW_WINDOW = 250

# -- sweep: the evaluation grid with two workers ----------------------------

SWEEP_WORKERS = 2
SWEEP_MEASURE = 600
SWEEP_WINDOW = 20
#: Profiles simulated in-process next to each grid of a timed run: the
#: serial reference for those cells and the source of the sweep's
#: per-organization metrics.  Two of the six leave most of a run to the
#: grid itself; a traced run simulates all six.
SWEEP_IN_PROCESS = ("Data Serving", "Media Streaming")


def sweep_scale(seed: int) -> EvaluationScale:
    """The grid seeds its cells itself (seed 1), so the benchmark seed
    picks the warm-up length: each seed measures another interval of
    the same traces."""
    warmup = 200 + seed % 97
    return EvaluationScale(f"perfbench-{warmup}", warmup=warmup,
                           measure=SWEEP_MEASURE, num_seeds=1)


@dataclass
class OpResult:
    """What one operation did, reduced to the numbers the run reports."""

    label: str
    org: str
    group: str
    cycles: int
    skipped: int
    build_s: float
    run_s: float
    drain_s: float
    windows: List[float]
    digest: str
    conserved: bool
    #: Work completed, in the workload's own unit (IPC for full-system
    #: runs); the PRA gain is the ratio of mesh_pra's to mesh's.
    work: float
    latency_p50: float
    latency_p99: float
    latencies_held: int
    control_injected: int
    planned: int
    #: Digest of ``PerfSample.to_dict()`` (full-system operations).
    sample_digest: Optional[str] = None


def advance(step: Callable[[int], None], cycles: int, window: int,
            windows: List[float]) -> Iterator[None]:
    """Call ``step`` in windows of ``window`` cycles, timing each full
    window and yielding after it.  Splitting a run into windows does
    not change its results."""
    clock = time.perf_counter
    full, rest = divmod(cycles, window)
    for _ in range(full):
        start = clock()
        step(window)
        windows.append(clock() - start)
        yield
    if rest:
        step(rest)


def drain(net) -> float:
    """Drain ``net``; returns the host seconds it took."""
    start = time.perf_counter()
    net.drain(max_cycles=DRAIN_LIMIT)
    return time.perf_counter() - start


def latencies_held(stats) -> int:
    """Latency samples a ``NetworkStats`` keeps in memory."""
    return (len(stats.network_latencies) + len(stats.total_latencies)
            + sum(len(values) for values in stats.per_class_latency.values()))


def _result(op, net, drain_s, windows, payload, work, sample_digest=None,
            latencies: Optional[NetworkStats] = None) -> OpResult:
    """The result of a finished operation; the caller, which times the
    steps, fills in ``build_s`` and ``run_s``.  Latency percentiles come
    from ``latencies`` when given, else from the whole run."""
    stats = net.stats
    latencies = latencies or stats
    return OpResult(
        label=op.label, org=op.org, group=op.group,
        cycles=net.cycle, skipped=net.cycles_skipped,
        build_s=0.0, run_s=0.0, drain_s=drain_s, windows=windows,
        digest=digest(payload), conserved=conserved(stats),
        work=work,
        latency_p50=latencies.latency_percentile(0.5),
        latency_p99=latencies.latency_percentile(0.99),
        latencies_held=latencies_held(stats),
        control_injected=stats.control_packets_injected,
        planned=stats.pra_planned_packets,
        sample_digest=sample_digest,
    )


# -- instrumentation (traced runs) -----------------------------------------


def instrument_network(recorder, net, org: str) -> None:
    recorder.wrap(net, "step", f"noc.network.{org}")
    recorder.wrap(net, "next_event_cycle", "noc.skip")
    for router in net.routers:
        recorder.wrap(router, "step", f"noc.router.{org}")
    for ni in net.interfaces:
        recorder.wrap(ni, "step", "noc.interface")
    control = getattr(net, "control", None)
    if control is not None:
        recorder.wrap(net, "announce", "core.announce")
        recorder.wrap(control, "inject", "core.control.inject")
        recorder.wrap(control, "purge", "core.control.purge")


# -- operations --------------------------------------------------------------


class SystemOp:
    """One full-system co-simulation: warm up, measure one interval,
    then stop the cores and drain the network."""

    def __init__(self, profile: str, org: str, seed: int, warmup: int,
                 measure: int, window: int):
        self.profile = profile
        self.org = org
        self.group = profile
        self.label = f"{org}/{profile}"
        self.seed = seed
        self.warmup = warmup
        self.measure = measure
        self.window = window

    def build(self) -> SystemSimulator:
        reset_packet_ids()
        return SystemSimulator(self.profile, ORGS[self.org], seed=self.seed)

    def instrument(self, sim: SystemSimulator, recorder) -> None:
        instrument_network(recorder, sim.chip.network, self.org)
        chip = sim.chip
        recorder.wrap(chip, "issue", "tile.chip")
        for llc in chip.slices:
            recorder.wrap(llc, "handle_request", "tile.llc")
        for channel in chip.channels:
            recorder.wrap(channel, "access", "tile.memory")
        for core in sim.cores:
            recorder.wrap(core, "on_complete", "perf.core")
            recorder.wrap(core.trace, "next_access", "workloads.tracegen")

    def run(self, sim: SystemSimulator) -> Iterator[None]:
        """``SystemSimulator.run_sample`` spelled out in windows."""
        net = sim.chip.network
        windows: List[float] = []
        sim.start()
        yield from advance(sim.chip.run, self.warmup, self.window, windows)
        sim.begin_interval()
        first = len(net.stats.network_latencies)
        yield from advance(sim.chip.run, self.measure, self.window, windows)
        sample = sim.end_interval()
        measured = NetworkStats(
            network_latencies=net.stats.network_latencies[first:])
        # Cores issue new misses only as earlier ones complete; without
        # completions every core stalls, so the drain terminates.
        sim.chip.on_complete = None
        yield
        drain_s = drain(net)
        sample_dict = sample.to_dict()
        return _result(
            self, net, drain_s, windows,
            {"summary": net.stats.summary(), "sample": sample_dict},
            work=sample.ipc, sample_digest=digest(sample_dict),
            latencies=measured,
        )


class ContestedOp:
    """Open-loop seeded uniform-random traffic, then a drain."""

    def __init__(self, org: str, kind: NocKind, topology: str,
                 rate: float, cycles: int, seed: int):
        self.org = org
        self.group = ""
        self.label = org
        self.kind = kind
        self.topology = topology
        self.rate = rate
        self.cycles = cycles
        self.seed = seed

    def build(self):
        if self.topology == "mesh":
            params = NocParams(kind=self.kind, mesh_width=8, mesh_height=8)
        else:
            params = NocParams(kind=self.kind, topology=self.topology)
        reset_packet_ids()
        net = build_network(params)
        traffic = SyntheticTraffic(net, TrafficPattern.UNIFORM_RANDOM,
                                   self.rate, seed=self.seed)
        return net, traffic

    def instrument(self, built, recorder) -> None:
        net, traffic = built
        instrument_network(recorder, net, self.org)
        recorder.wrap(traffic, "inject", "workloads.synthetic")

    def run(self, built) -> Iterator[None]:
        net, traffic = built
        windows: List[float] = []
        yield from advance(traffic.run, self.cycles, CONTESTED_WINDOW,
                           windows)
        yield
        drain_s = drain(net)
        return _result(
            self, net, drain_s, windows, net.stats.summary(),
            # Delivered flits per cycle: the offered load is fixed, so
            # this moves only with how fast the same traffic drains.
            work=net.stats.flits_ejected / net.cycle,
        )


class ClosedLoop:
    """Seeded clients, each with one outstanding request at a time.

    A client sends a 1-flit request to a seeded server; the server
    announces its 5-flit response ``LOW_LEAD`` cycles ahead (the LLC-hit
    trigger) and then sends it; on the reply the client thinks for a
    seeded time and repeats, until ``LOW_CYCLES``.
    """

    def __init__(self, net, seed: int):
        self.net = net
        rng = random.Random(seed)
        nodes = net.topology.num_nodes
        self.clients = rng.sample(range(nodes), LOW_CLIENTS)
        self.rngs = {client: random.Random(rng.getrandbits(64))
                     for client in self.clients}
        self.nodes = nodes
        self.completed = 0
        net.on_delivery(self.on_delivery)

    def start(self) -> None:
        for client in self.clients:
            self.request(client)

    def request(self, client: int) -> None:
        server = self.rngs[client].randrange(self.nodes - 1)
        server += server >= client
        self.net.send(packet_pool.acquire(client, server,
                                          MessageClass.REQUEST,
                                          created=self.net.cycle))

    def respond(self, response) -> None:
        response.created = self.net.cycle
        self.net.send(response)

    def on_delivery(self, packet, now: int) -> None:
        net = self.net
        if packet.msg_class is MessageClass.REQUEST:
            response = packet_pool.acquire(packet.dst, packet.src,
                                           MessageClass.RESPONSE,
                                           created=now)
            net.announce(response, LOW_LEAD)
            net.schedule_call(now + LOW_LEAD, self.respond, response)
            return
        self.completed += 1
        client = packet.dst
        think = self.rngs[client].randint(*LOW_THINK)
        if now + think < LOW_CYCLES:
            net.schedule_call(now + think, self.request, client)


class LowLoadOp:
    """The closed loop on one bare 8x8 network, then a drain."""

    def __init__(self, org: str, seed: int):
        self.org = org
        self.group = ""
        self.label = org
        self.seed = seed

    def build(self) -> ClosedLoop:
        reset_packet_ids()
        net = build_network(NocParams(kind=ORGS[self.org], mesh_width=8,
                                      mesh_height=8))
        return ClosedLoop(net, self.seed)

    def instrument(self, loop: ClosedLoop, recorder) -> None:
        instrument_network(recorder, loop.net, self.org)
        # The clients are the benchmark's own code; their time is kept
        # out of the network's self time.
        for method in ("on_delivery", "request", "respond"):
            recorder.wrap(loop, method, "bench.client")
        loop.net.on_delivery(loop.on_delivery)

    def run(self, loop: ClosedLoop) -> Iterator[None]:
        net = loop.net
        windows: List[float] = []
        loop.start()
        yield from advance(net.run, LOW_CYCLES, LOW_WINDOW, windows)
        yield
        drain_s = drain(net)
        return _result(
            self, net, drain_s, windows,
            {"summary": net.stats.summary(), "completed": loop.completed},
            # Closed loop: faster replies mean more transactions.
            work=loop.completed,
        )


# -- workloads -----------------------------------------------------------------


@dataclass
class Workload:
    name: str
    ops: Callable[[int], list]
    #: Span names a traced run of this workload must record calls for.
    expected_spans: Tuple[str, ...]
    #: Sweep only: the evaluation grid runs after the in-process ops,
    #: which are its serial reference.
    grid: bool = False
    #: The operations of a timed round, when not all of ``ops``.
    timed_ops: Optional[Callable[[int], list]] = None
    #: How strongly the workload's speed follows the host probe's: host
    #: times are divided by (probe time / nominal) ** this.  Over ten
    #: seeds, the slope of log(throughput) on log(probe time) across
    #: runs was about -1 for fullsys and contested, and -0.5 for lowload,
    #: whose small network stays in the caches that the probe's churn
    #: competes for.
    host_sensitivity: float = 1.0


_NETWORK_SPANS = ("noc.network.mesh", "noc.network.smart",
                  "noc.network.mesh_pra", "noc.network.ideal",
                  "noc.router.mesh", "noc.router.smart",
                  "noc.router.mesh_pra", "noc.interface", "noc.skip",
                  "core.control.inject", "core.control.purge")
_SYSTEM_SPANS = _NETWORK_SPANS + ("core.announce", "tile.chip", "tile.llc",
                                  "tile.memory", "perf.core",
                                  "workloads.tracegen")


def _fullsys_ops(seed: int) -> list:
    return [SystemOp(profile, org, seed, FULLSYS_WARMUP, FULLSYS_MEASURE,
                     FULLSYS_WINDOW)
            for profile in FULLSYS_PROFILES for org in ORGS]


def _contested_ops(seed: int) -> list:
    return [ContestedOp(org, kind, topology, rate, cycles, seed)
            for org, kind, topology, rate, cycles in CONTESTED_CELLS]


def _lowload_ops(seed: int) -> list:
    return [LowLoadOp(org, seed) for org in ORGS]


def _sweep_ops(seed: int) -> list:
    """The grid's cells, simulated in-process exactly as a grid worker
    does (seed 1): the serial reference for the grid's results and
    timing."""
    scale = sweep_scale(seed)
    return [SystemOp(profile, org, 1, scale.warmup, scale.measure,
                     SWEEP_WINDOW)
            for profile in WORKLOAD_NAMES for org in ORGS]


def _sweep_reference_ops(seed: int) -> list:
    return [op for op in _sweep_ops(seed) if op.profile in SWEEP_IN_PROCESS]


WORKLOADS: Dict[str, Workload] = {
    "fullsys": Workload("fullsys", _fullsys_ops, _SYSTEM_SPANS),
    "contested": Workload(
        "contested", _contested_ops,
        _NETWORK_SPANS + ("noc.network.chiplet", "noc.router.chiplet",
                          "workloads.synthetic"),
    ),
    "lowload": Workload("lowload", _lowload_ops,
                        _NETWORK_SPANS + ("core.announce", "bench.client"),
                        host_sensitivity=0.5),
    "sweep": Workload("sweep", _sweep_ops, _SYSTEM_SPANS, grid=True,
                      timed_ops=_sweep_reference_ops),
}
