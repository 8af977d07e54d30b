"""SMART: the single-cycle multi-hop network (Krishna et al., HPCA'13).

A SMART hop is a two-stage router pipeline followed by a single-cycle,
potentially multi-tile link traversal — three cycles per hop at zero
load (Table I).  The first stage performs routing, VC allocation, and
speculative crossbar allocation; the second broadcasts the SMART setup
request (SSR) on dedicated multi-drop wires to reserve a multi-hop path;
the third traverses crossbar(s) and link(s), covering up to ``HPC_max``
(= 2 at server-class tile sizes and 2 GHz) tiles.

Pipeline modeling: the two stages are *pipelined*, so they add latency
(a flit becomes visible at its next stop three cycles after its grant
instead of two) without costing link bandwidth — flits still stream one
per cycle through a held port.  The SSR outcome is resolved at grant
time against the intermediate router's state.

Bypass rules (SMART_1D with local priority):

* bypass only continues *straight* — a packet that turns or ejects at
  the next router stops there;
* a locally buffered flit competing for the intermediate router's output
  beats the SSR, which then falls back to a one-hop traversal;
* the bypass path is held for the whole packet, so flits of a packet are
  never reordered or interleaved (the hazard the paper attributes to
  per-flit reservation schemes).
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.noc.flit import Flit
from repro.noc.mesh import MeshNetwork
from repro.noc.packet import Packet
from repro.noc.ports import OutputPort
from repro.noc.router import CREDIT_DELAY, MeshRouter
from repro.noc.topology import Direction
from repro.noc.vc import VirtualChannel

#: Grant-to-visibility latency: 2-stage pipeline + link (vs. 2 for mesh).
SMART_HOP_LATENCY = 3
#: Ejection takes the extra pipeline stage too.
SMART_EJECT_LATENCY = 2


class _BypassState:
    """Per-output-port record of an active 2-tile pass-through."""

    __slots__ = ("packet", "via_port", "landing_router", "landing_entry")

    def __init__(self, packet: Packet, via_port: OutputPort):
        self.packet = packet
        self.via_port = via_port
        self.landing_router = via_port.downstream_router
        self.landing_entry = via_port.downstream_unit.direction


class SmartRouter(MeshRouter):
    """Mesh router with SSR-based 2-tile bypass and a 3-cycle hop."""

    def __init__(self, node: int, network):
        super().__init__(node, network)
        self.hpc_max = network.params.smart.hops_per_cycle
        #: Active bypasses keyed by output direction.
        self._bypasses: Dict[Direction, _BypassState] = {}
        for port in self.output_ports.values():
            port.link_hop_latency = SMART_HOP_LATENCY

    # -- build-time specialization (hot-path engine v3) -------------------------

    def finalize_build(self) -> None:
        """Elect the SMART-specific flattened step.

        The base election (``MeshRouter.finalize_build``) already
        verified the stock candidate scan and eligibility check and
        allocated the per-direction buckets; this override swaps the
        half-generic ``_step_scan`` binding (virtual grant/hold hooks)
        for a fully fused pipeline when the instance is provably a plain
        :class:`SmartRouter`.
        """
        super().finalize_build()
        if "step" not in vars(self):
            return  # the base election declined (fastpath off, layered)
        if type(self) is not SmartRouter:
            return
        self.step = self._step_fast_smart  # type: ignore[method-assign]

    def _step_fast_smart(self, now: int) -> None:
        """Monomorphic hot path for the SMART router.

        Bit-identical to the generic step with :meth:`_advance_held`
        and :meth:`_grant` inlined around the fast candidate scan (the
        SSR resolution stays in :meth:`_try_bypass`).  Falls back to
        the generic step whenever an observer is attached, so
        instrumented runs always exercise the reference path.
        """
        if self.active_flits == 0:
            return
        network = self.network
        if network.faults.enabled or network.tracer.enabled:
            MeshRouter.step(self, now)
            return
        touched = self._scan_heads_fast()
        buckets = self._cand_buckets
        rr_last = self._rr_last
        total = self._rr_total
        bypasses = self._bypasses
        send = self._send_smart
        used = 0
        for port in self.port_list:
            held = port.held_by
            if held is not None:
                # ``_advance_held`` inlined (tracer known off).
                vc = port.active_vc
                if vc is None:
                    continue
                flits = vc.flits
                if not flits or flits[0].packet is not held:
                    continue  # next flit still in flight from upstream
                in_bit = 1 << vc.unit.direction
                if used & in_bit:
                    continue
                front_vc_index = flits[0].packet.vc_index
                bypass = bypasses.get(port.direction)
                if bypass is not None:
                    if bypass.via_port.credits[front_vc_index] < 1:
                        continue
                elif port.ni_sink is None and port.credits[front_vc_index] < 1:
                    continue
                used |= in_bit
                if send(port, vc, now, bypass).is_tail:
                    self._release(port)
                continue
            index = int(port.direction)
            if not (touched >> index) & 1:
                continue
            # Eligibility filter fused with the rotation pick.
            direction = port.direction
            down_unit = port.downstream_unit
            credits = port.credits
            ejection = port.ni_sink is not None
            last = rr_last[direction]
            if last is None:
                last = total - 1
            choice = None
            best = total
            for vc in buckets[index]:
                if used & (1 << vc.unit.direction):
                    continue
                if not ejection:
                    vc_index = vc.flits[0].packet.vc_index
                    down_vc = down_unit.vcs[vc_index]
                    if (down_vc.allocated_to is not None or down_vc.flits
                            or credits[vc_index] < 1):
                        continue
                rank = (vc.rr_id - last - 1) % total
                if rank < best:
                    best = rank
                    choice = vc
            if choice is None:
                continue
            vc = choice
            self._rr[direction] = vc.rr_key
            rr_last[direction] = vc.rr_id
            packet = vc.flits[0].packet
            # ``_grant`` inlined: resolve the SSR, then hold and stream.
            via_port = self._try_bypass(packet, direction, now)
            bypass = None
            if via_port is not None:
                via_port.downstream_vc(packet.vc_index).allocated_to = packet
                via_port.hold(packet, source_vc=None)
                bypass = _BypassState(packet, via_port)
                bypasses[direction] = bypass
            elif not ejection:
                down_unit.vcs[packet.vc_index].allocated_to = packet
            # Inline ``port.hold`` (the unheld branch guarantees it).
            port.held_by = packet
            port.active_vc = vc
            port.held_dst_vc = packet.vc_index
            port.holder_sent = 0
            used |= 1 << vc.unit.direction
            if send(port, vc, now, bypass).is_tail:
                self._release(port)
        self._clear_buckets(touched)

    # -- grant: resolve the SSR, then stream at line rate ----------------------

    def _grant(
        self,
        port: OutputPort,
        vc: VirtualChannel,
        packet: Packet,
        now: int,
        used_inputs: Set[Direction],
    ) -> None:
        via_port = self._try_bypass(packet, port.direction, now)
        bypass = None
        if via_port is not None:
            landing_vc = via_port.downstream_vc(packet.vc_index)
            landing_vc.allocated_to = packet
            via_port.hold(packet, source_vc=None)
            bypass = _BypassState(packet, via_port)
            self._bypasses[port.direction] = bypass
        elif port.ni_sink is None:
            port.downstream_unit.vcs[packet.vc_index].allocated_to = packet
        port.hold(packet, source_vc=vc)
        used_inputs.add(vc.unit.direction)
        flit = self._send_smart(port, vc, now, bypass)
        if flit.is_tail:
            self._release(port)

    def _advance_held(
        self, port: OutputPort, now: int, used_inputs: Set[Direction]
    ) -> None:
        vc = port.active_vc
        if vc is None:
            return
        flits = vc.flits
        if not flits or flits[0].packet is not port.held_by:
            return
        direction = vc.unit.direction
        if direction in used_inputs:
            return
        front_vc_index = flits[0].packet.vc_index
        bypass = self._bypasses.get(port.direction)
        if bypass is not None:
            if bypass.via_port.credits[front_vc_index] < 1:
                return
        elif port.ni_sink is None and port.credits[front_vc_index] < 1:
            return
        used_inputs.add(direction)
        flit = self._send_smart(port, vc, now, bypass)
        if flit.is_tail:
            self._release(port)

    # -- transmission -----------------------------------------------------------

    def _send_smart(self, port: OutputPort, vc: VirtualChannel, now: int,
                    bypass: Optional["_BypassState"]) -> Flit:
        # Both callers resolved the bypass state during their credit
        # check, so it is passed in rather than re-fetched here.
        flit = vc.flits.popleft()
        if flit.is_tail:
            vc.allocated_to = vc.next_claim
            vc.next_claim = None
        self.active_flits -= 1
        network = self.network
        # Stock schedulers → append straight into the cycle buckets (all
        # offsets below are positive constants with
        # ``now == network.cycle``, so the future-only guard holds by
        # construction).
        plain = self._plain_sched
        feeder = vc.unit.feeder_port
        if feeder is not None:
            if plain:
                time = now + CREDIT_DELAY
                events = network._events
                bucket = events.get(time)
                if bucket is None:
                    pool = network._bucket_pool
                    bucket = pool.pop() if pool else ([], [], [])
                    events[time] = bucket
                bucket[1].append((feeder, vc.index))
            else:
                network.schedule_credit(now + CREDIT_DELAY, feeder,
                                        vc.index)
        if bypass is None:
            if port.ni_sink is not None:
                port.flits_sent += 1
                if port.held_by is flit.packet:
                    port.holder_sent += 1
                self.network.schedule_eject(
                    now + SMART_EJECT_LATENCY, port.ni_sink, flit
                )
                return flit
            # Single-hop transmit: ``OutputPort.send`` flattened in
            # place (tracing or overriding ports take the virtual call).
            if network.tracer.enabled or not port._plain_send:
                port.send(flit, now)
                return flit
            port.flits_sent += 1
            if port.held_by is flit.packet:
                port.holder_sent += 1
                vc_index = port.held_dst_vc
            else:
                vc_index = None
            if vc_index is None:
                vc_index = flit.packet.vc_index
            if port.credits[vc_index] <= 0:
                raise RuntimeError("credit underflow: flow control violated")
            port.credits[vc_index] -= 1
            if flit.is_head:
                flit.packet.hops_taken += 1
            time = now + port.link_hop_latency
            if plain:
                events = network._events
                bucket = events.get(time)
                if bucket is None:
                    pool = network._bucket_pool
                    bucket = pool.pop() if pool else ([], [], [])
                    events[time] = bucket
                bucket[0].append((port.downstream_router,
                                  port.downstream_dir, vc_index, flit))
            else:
                network.schedule_arrival(time, port.downstream_router,
                                         port.downstream_dir, vc_index,
                                         flit)
            return flit
        # Two-tile traversal: both links this cycle, landing two hops away.
        packet = flit.packet
        via_port = bypass.via_port
        port.flits_sent += 1
        port.holder_sent += 1
        via_port.flits_sent += 1
        via_port.holder_sent += 1
        via_port.credits[packet.vc_index] -= 1
        if flit.is_head:
            packet.hops_taken += 2
        if plain:
            time = now + SMART_HOP_LATENCY
            events = network._events
            bucket = events.get(time)
            if bucket is None:
                pool = network._bucket_pool
                bucket = pool.pop() if pool else ([], [], [])
                events[time] = bucket
            bucket[0].append((bypass.landing_router, bypass.landing_entry,
                              packet.vc_index, flit))
            return flit
        network.schedule_arrival(
            now + SMART_HOP_LATENCY,
            bypass.landing_router,
            bypass.landing_entry,
            packet.vc_index,
            flit,
        )
        return flit

    def _release(self, port: OutputPort) -> None:
        bypass = self._bypasses.pop(port.direction, None)
        if bypass is not None:
            bypass.via_port.release()
        port.release()

    # -- SSR arbitration -------------------------------------------------------------

    def _try_bypass(self, packet: Packet, direction: Direction,
                    now: int) -> Optional[OutputPort]:
        """Return the intermediate router's output port if the SSR wins."""
        if direction is Direction.LOCAL or self.hpc_max < 2:
            return None
        inter_node = self.topology.neighbor(self.node, direction)
        if inter_node is None:
            return None
        inter: SmartRouter = self.network.routers[inter_node]
        if inter._route_row[packet.dst] is not direction:
            return None  # the packet turns or ejects at the next router
        via_port = inter.output_ports.get(direction)
        if via_port is None or via_port.held_by is not None:
            return None
        faults = self.network.faults
        if faults.enabled and via_port.fault_stalled(now):
            return None  # SSR refused across a stalled link
        if inter._has_local_candidate(direction):
            return None  # local flits have priority over SSRs
        unit = via_port.downstream_unit
        if unit is None:
            return None
        landing_vc = unit.vcs[packet.vc_index]
        if landing_vc.allocated_to is not None or landing_vc.flits:
            return None
        if via_port.credits[packet.vc_index] < 1:
            return None
        return via_port

    # -- checkpointing -----------------------------------------------------

    def state_dict(self, ctx) -> dict:
        state = super().state_dict(ctx)
        state["bypasses"] = [
            [int(direction), ctx.packet_ref(bypass.packet),
             bypass.via_port.router.node, int(bypass.via_port.direction)]
            for direction, bypass in self._bypasses.items()
        ]
        return state

    def load_state(self, state: dict, ctx) -> None:
        super().load_state(state, ctx)
        self._bypasses = {}
        for direction_value, packet_ref, via_node, via_dir in state["bypasses"]:
            via_port = self.network.routers[via_node].output_ports[
                Direction(via_dir)
            ]
            self._bypasses[Direction(direction_value)] = _BypassState(
                ctx.packet(packet_ref), via_port
            )

    def _has_local_candidate(self, direction: Direction) -> bool:
        row = self._route_row
        for vc in self._vc_list:
            flits = vc.flits
            if flits:
                front = flits[0]
                if front.is_head and row[front.packet.dst] is direction:
                    return True
        return False


class SmartNetwork(MeshNetwork):
    """The SMART organization: mesh wiring with SMART routers."""

    router_class = SmartRouter
