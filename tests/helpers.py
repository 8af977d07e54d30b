"""Shared test helpers: network construction and leak detection.

``assert_quiescent`` is the strongest invariant in the suite: after a
network drains, every buffer must be empty, every credit returned, every
ownership and proactive claim released.  Any leak in the PRA claim
machinery (reservations, latch claims, VC ownership, credit accounting)
turns into a crisp assertion failure here.
"""

from __future__ import annotations

from repro.noc.network import Network, build_network
from repro.params import NocKind, NocParams


def make_network(kind: NocKind, width: int = 4, height: int = 4,
                 **noc_kwargs) -> Network:
    return build_network(
        NocParams(kind=kind, mesh_width=width, mesh_height=height,
                  **noc_kwargs)
    )


def assert_quiescent(net: Network) -> None:
    """All traffic delivered and every resource back to its idle state."""
    assert net.stats.in_flight == 0, "packets still in flight"
    # Let trailing credit returns and control-network events land.
    net.run(12)
    if not net.routers:  # the ideal network has no router state
        return
    depth = net.params.router.flits_per_vc
    for router in net.routers:
        assert router.active_flits == 0, f"router {router.node} holds flits"
        for unit in router.input_units.values():
            for vc in unit.vcs:
                assert vc.is_empty, f"VC not drained at {router.node}"
                assert vc.allocated_to is None, (
                    f"VC ownership leaked at router {router.node}, "
                    f"port {unit.direction.name}, vc {vc.index}: "
                    f"{vc.allocated_to}"
                )
                assert vc.next_claim is None, "chained claim leaked"
        for port in router.output_ports.values():
            assert not port.is_held, f"port held at {router.node}"
            for vc_index, credits in enumerate(port.credits):
                assert credits == depth, (
                    f"credit leak at router {router.node} port "
                    f"{port.direction.name} vc {vc_index}: {credits}/{depth}"
                )
            assert all(r == 0 for r in port.reserved), "claim stat leaked"
        latches = getattr(router, "_latches", None)
        if latches is not None:
            for direction, latch in latches.items():
                assert not latch, f"latch not drained at {router.node}"
        # PRA bookkeeping: no live reservation-table entries and no
        # latch/input claims owned by a plan that is still pending
        # (cancelled or finished plans merely await the periodic purge).
        for port in router.output_ports.values():
            table = getattr(port, "reservations", None)
            if table is None:
                continue
            for slot, (plan, _, _) in table.records.items():
                assert plan.cancelled, (
                    f"live reservation leaked at router {router.node} "
                    f"port {port.direction.name} slot {slot}: {plan}"
                )
        assert getattr(router, "pending_slots", 0) == 0, (
            f"pending-slot counter leaked at router {router.node}"
        )
        for attr in ("_latch_claims", "_input_claims"):
            claims = getattr(router, attr, None)
            if claims is None:
                continue
            for direction, vector in claims.items():
                for first_slot, count, plan in vector.windows:
                    assert plan.cancelled or plan.finished, (
                        f"{attr} window at router {router.node} "
                        f"{direction.name} slots {first_slot}+{count} "
                        f"owned by a pending plan: {plan}"
                    )
    for ni in net.interfaces:
        assert not ni.port.is_held, f"NI port held at {ni.node}"
        for queue in ni.queues:
            assert not queue, f"NI queue not drained at {ni.node}"
        for vc_index, credits in enumerate(ni.port.credits):
            assert credits == depth, f"NI credit leak at {ni.node}"
        pins = getattr(ni, "_pins", None)
        if pins is not None:
            assert not pins, f"pin leaked at NI {ni.node}"
