"""Golden-determinism regression oracle for the hot-path optimizations.

The activity-based cycle loop, the reservation bit vectors, and the rest
of the performance work in this repository are only admissible if they
are *pure* optimizations: every organization must produce bit-identical
statistics to the unoptimized simulator.  The digests below were
captured from the pre-optimization tree (commit ``58e9175``) with the
exact scenarios replicated here; any semantic drift in the cycle loop,
arbitration, reservation handling, or the perf model changes a digest
and fails this test.

A second group of tests asserts *observer neutrality*: attaching the
event tracer, the invariant suite, or a fault injector with an empty
schedule must not perturb results either, because the wake-set loop
shares state with all three.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.faults import FaultInjector, FaultSchedule
from repro.invariants import InvariantSuite
from repro.noc.network import build_network
from repro.params import NocKind, NocParams
from repro.perf.system import SystemSimulator
from repro.trace import RingTracer
from repro.workloads.synthetic import SyntheticTraffic, TrafficPattern

ALL_KINDS = (NocKind.MESH, NocKind.SMART, NocKind.MESH_PRA, NocKind.IDEAL)

#: sha256 of the network-level stats summary: 8x8 mesh, uniform-random
#: synthetic traffic at rate 0.02, seed 7, 800 cycles plus a full drain.
GOLDEN_NETWORK = {
    NocKind.MESH: (
        "e2758ab3daf9fb3f358b9c06cda1324f7499e9249e60cfa2e4ee98e8c5d934ea"
    ),
    NocKind.SMART: (
        "3ec8d8b20f6effe17be818751207503d28a08cee61240be29717913df1623a30"
    ),
    NocKind.MESH_PRA: (
        "2b137b61a672d98839a1f116a1eaf0e6988feda725f997800c307fe52143fb3d"
    ),
    NocKind.IDEAL: (
        "0d2ed08b60bb8e37457606b287f240167cb71ea8b64df487b669b2f131dccc6c"
    ),
}

#: sha256 over the full-system perf sample plus network stats: the
#: 'Web Search' workload, seed 5, 200 warm-up + 800 measured cycles.
GOLDEN_SYSTEM = {
    NocKind.MESH: (
        "20125e6ded4db52c30d2d2cfbdaa2c40522fdd3714cf3570f794484a8a4bc7b0"
    ),
    NocKind.SMART: (
        "6178ca30617686baa00a27559f3f147e4daf0c10f9c2e8ccc3db76668e7ff634"
    ),
    NocKind.MESH_PRA: (
        "756f0e9a13a2c58515ecc951d3cba1428dd9dfb18d82adc690c746e1d73208da"
    ),
    NocKind.IDEAL: (
        "3d6beed08565a73143346670a78f7839a8e0bd28b895f7ea3e52d5a6d4319fd3"
    ),
}


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=repr).encode()
    ).hexdigest()


def _network_digest(kind: NocKind, observers: str = "none") -> str:
    """Stats digest of the fixed synthetic scenario.

    ``observers`` selects what rides along: ``"none"`` (the golden
    configuration), ``"tracing"`` (ring tracer + invariant suite), or
    ``"faults"`` (a fault injector whose schedule is empty).
    """
    net = build_network(NocParams(kind=kind, mesh_width=8, mesh_height=8))
    if observers == "tracing":
        net.attach(tracer=RingTracer(capacity=1 << 12))
        net.attach(invariants=InvariantSuite())
    elif observers == "faults":
        net.attach(faults=FaultInjector(FaultSchedule()))
    SyntheticTraffic(
        net, TrafficPattern.UNIFORM_RANDOM, 0.02, seed=7
    ).run(800)
    net.drain(max_cycles=20000)
    return _digest(net.stats.summary())


def _system_digest(kind: NocKind) -> str:
    sim = SystemSimulator("Web Search", kind, seed=5)
    sample = sim.run_sample(warmup=200, measure=800)
    return _digest({
        "sample": sample.to_dict(),
        "stats": sim.chip.network.stats.summary(),
    })


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_network_stats_match_unoptimized_simulator(kind):
    assert _network_digest(kind) == GOLDEN_NETWORK[kind]


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_system_sample_matches_unoptimized_simulator(kind):
    assert _system_digest(kind) == GOLDEN_SYSTEM[kind]


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_tracer_and_invariants_do_not_perturb_results(kind):
    assert _network_digest(kind, observers="tracing") == GOLDEN_NETWORK[kind]


@pytest.mark.parametrize(
    "kind",
    # The ideal network has no routers or links, hence no fault sites.
    (NocKind.MESH, NocKind.SMART, NocKind.MESH_PRA),
    ids=lambda k: k.value,
)
def test_empty_fault_schedule_does_not_perturb_results(kind):
    assert _network_digest(kind, observers="faults") == GOLDEN_NETWORK[kind]
