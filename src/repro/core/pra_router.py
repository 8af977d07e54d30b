"""The Mesh+PRA data-network router (paper Figure 4).

Relative to the baseline mesh router, each input unit gains a *bypass*
path (pre-allocated flits cross link → crossbar → link combinationally,
modeled by the upstream driver charging this router's port for the slot)
and a one-cycle *latch*; each output port gains a reservation table (the
bit vectors); and the arbiter is split: the **PRA arbiter** executes any
reservation recorded for the current cycle, and the **local arbiter**
handles everything else, skipping resources the PRA arbiter is using.

The **Long Stall Detection (LSD)** unit watches for a packet stalled
behind a multi-flit packet whose transmission end is deterministic
(enough downstream buffer space and all flits locally buffered) and
injects a control packet so the stalled packet's remaining path is
pre-allocated by the time the port frees up.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Set, Tuple

from repro.core.plan import LAND_LATCH, LAND_NI, LAND_VC, PraPlan, SRC_VC
from repro.core.reservation import ReservationEntry, ReservationTable
from repro.noc.flit import Flit
from repro.noc.network import _CREDIT
from repro.noc.packet import Packet
from repro.noc.ports import OutputPort
from repro.noc.router import CREDIT_DELAY, MeshRouter
from repro.noc.topology import Direction
from repro.noc.vc import VirtualChannel
from repro.trace.events import EV_LATCH_BYPASS

#: Sentinel VC index addressing an input unit's latch in arrivals.
LATCH_INDEX = -1

#: How often stale claims/reservations are garbage-collected.
_PURGE_PERIOD = 64


class PraOutputPort(OutputPort):
    """Output port with the PRA reservation bit vectors attached."""

    __slots__ = ("reservations",)

    def __init__(self, *args, horizon: int, **kwargs):
        super().__init__(*args, **kwargs)
        self.reservations = ReservationTable(horizon)

    def state_dict(self, ctx) -> dict:
        state = super().state_dict(ctx)
        state["reservations"] = self.reservations.state_dict(ctx)
        return state

    def load_state(self, state: dict, ctx) -> None:
        super().load_state(state, ctx)
        self.reservations.load_state(state["reservations"], ctx)


class PraRouter(MeshRouter):
    """Mesh router extended with PRA arbitration, latches, and LSD."""

    def __init__(self, node: int, network):
        self._horizon = network.params.pra.reservation_horizon
        super().__init__(node, network)
        #: One latch per input direction (Figure 4's extra VC).
        self._latches: Dict[Direction, Deque[Flit]] = {
            d: deque() for d in self.input_units
        }
        #: Latch occupancy promises: (entry_dir, slot) -> plan.
        self._latch_claims: Dict[Tuple[Direction, int], PraPlan] = {}
        #: Crossbar-input promises: (direction, slot) -> plan.
        self._input_claims: Dict[Tuple[Direction, int], PraPlan] = {}
        self._last_purge = 0
        #: Cached PRA knobs (the step loop reads them every cycle).
        self._use_lsd = network.params.pra.use_lsd_trigger
        self._max_lag = network.params.pra.max_lag

    def _make_output_port(self, direction: Direction) -> PraOutputPort:
        return PraOutputPort(
            router=self,
            direction=direction,
            network=self.network,
            num_vcs=self.num_vcs,
            vc_depth=self.vc_depth,
            horizon=self._horizon,
        )

    # -- claims used by the control network -----------------------------------

    def latch_window_free(self, direction: Direction, first_slot: int,
                          count: int) -> bool:
        for i in range(count):
            plan = self._latch_claims.get((direction, first_slot + i))
            if plan is not None and not plan.cancelled:
                return False
        return True

    def claim_latch(self, direction: Direction, slot: int, plan: PraPlan) -> None:
        key = (direction, slot)
        self._latch_claims[key] = plan
        plan.latch_claims.append((self, key))

    def release_latch_claim(self, key, plan: PraPlan) -> None:
        if self._latch_claims.get(key) is plan:
            del self._latch_claims[key]

    def input_window_free(self, direction: Direction, first_slot: int,
                          count: int) -> bool:
        for i in range(count):
            plan = self._input_claims.get((direction, first_slot + i))
            if plan is not None and not plan.cancelled:
                return False
        return True

    def claim_input(self, direction: Direction, slot: int, plan: PraPlan) -> None:
        key = (direction, slot)
        self._input_claims[key] = plan
        plan.input_claims.append((self, key))

    def release_input_claim(self, key, plan: PraPlan) -> None:
        if self._input_claims.get(key) is plan:
            del self._input_claims[key]

    # -- flit reception (latch landings use the sentinel index) ---------------

    #: Latch landings need this dispatching path, so the network keeps
    #: calling ``receive_flit`` instead of inlining arrival delivery —
    #: unless every router advertises the latch sentinel, in which case
    #: ``Network._run_events`` dispatches latch landings inline too.
    _plain_receive = False
    _latch_index = LATCH_INDEX

    def receive_flit(self, direction: Direction, vc_index: int, flit: Flit) -> None:
        if vc_index == LATCH_INDEX:
            self._latches[direction].append(flit)
        else:
            self.input_units[direction].vcs[vc_index].push(flit)
        self.active_flits += 1
        self.network.wake_router(self.node)

    def has_work(self) -> bool:
        """Awake while flits are buffered or any reservation is pending.

        Keeping the router awake through its reserved slots reproduces
        the always-stepping behavior exactly: the PRA arbiter must run
        at every reserved cycle even when no flit is buffered locally.
        """
        if self.active_flits > 0:
            return True
        for port in self.port_list:
            if port.reservations._count:
                return True
        return False

    # -- per-cycle processing ---------------------------------------------------

    def step(self, now: int) -> None:
        used_inputs: Set[Direction] = set()
        busy_dirs: Set[Direction] = set()
        # The PRA arbiter runs even under an injected router stall:
        # the paper splits it from the local arbiter (Figure 4), and
        # committed reservations are the only thing that drains
        # latches — freezing them would strand flits forever instead
        # of modeling a recoverable hardware hiccup.
        self._execute_reservations(now, used_inputs, busy_dirs)
        if self.active_flits == 0:
            # Awake purely for reserved slots (driving a bypass or
            # pinning resources): the local arbiter has nothing to do.
            return
        faults = self.network.faults
        stalled = faults.enabled and faults.router_stalled(self.node, now)
        if stalled:
            if now - self._last_purge >= _PURGE_PERIOD:
                self._purge(now)
            return
        candidates = self._collect_head_candidates()
        for port in self.port_list:
            direction = port.direction
            if faults.enabled and port.fault_stalled(now):
                continue
            if direction in busy_dirs:
                self._count_blocked(candidates.get(direction), used_inputs)
                continue
            if port.held_by is not None:
                self._advance_held(port, now, used_inputs)
            else:
                group = candidates.get(direction)
                if group:
                    self._try_grant(port, direction, now, used_inputs, group)
        if self._use_lsd:
            self._lsd_scan(now, candidates)
        if now - self._last_purge >= _PURGE_PERIOD:
            self._purge(now)

    # -- build-time specialization (hot-path engine v3) --------------------------

    def finalize_build(self) -> None:
        """Elect the flattened PRA step.

        The PRA pipeline only exists on the flat mesh, so unlike the
        base mesh election there is no layering to rule out — just
        subclassing: any subclass keeps the generic :meth:`step`,
        because the inline body replicates exactly this class's
        arbitration (the local arbiter is the stock mesh one; the PRA
        arbiter and LSD keep their own helpers in both paths).
        """
        if not self.network.fastpath:
            return
        if type(self) is not PraRouter:
            return
        self.step = self._step_fast_pra  # type: ignore[method-assign]

    def _step_fast_pra(self, now: int) -> None:
        """Monomorphic hot path for the PRA router.

        Bit-identical to :meth:`step` with the generic local-arbiter
        helpers (``_advance_held``/``_try_grant``/``_grant``/
        ``_pop_and_send``) inlined, mirroring the base mesh
        ``_step_fast``.  Falls back to the generic step whenever an
        observer is attached (faults, tracer), so instrumented runs
        always exercise the reference path.
        """
        network = self.network
        if network.faults.enabled or network.tracer.enabled:
            PraRouter.step(self, now)
            return
        used_inputs: Set[Direction] = set()
        busy_dirs: Set[Direction] = set()
        self._execute_reservations(now, used_inputs, busy_dirs)
        if self.active_flits == 0:
            return
        candidates = self._collect_head_candidates()
        rr_last = self._rr_last
        total = self._rr_total
        pop_send = self._pop_send_fast_pra
        for port in self.port_list:
            direction = port.direction
            if busy_dirs and direction in busy_dirs:
                self._count_blocked(candidates.get(direction), used_inputs)
                continue
            held = port.held_by
            if held is not None:
                # Generic ``_advance_held``, tracer-off.
                vc = port.active_vc
                if vc is None:
                    continue
                flits = vc.flits
                if not flits or flits[0].packet is not held:
                    continue  # next flit still in flight from upstream
                in_dir = vc.unit.direction
                if in_dir in used_inputs:
                    continue
                if port.ni_sink is None and port.credits[port.held_dst_vc] < 1:
                    continue
                used_inputs.add(in_dir)
                if pop_send(port, vc, now).is_tail:
                    port.release()
                continue
            group = candidates.get(direction)
            if not group:
                continue
            # Generic ``_try_grant`` fused: eligibility filter (the
            # stock ``_may_grant`` — PRA reservation rules live in the
            # PRA arbiter, not here) plus the rotation pick.
            down_unit = port.downstream_unit
            credits = port.credits
            ejection = port.ni_sink is not None
            last = rr_last[direction]
            if last is None:
                last = total - 1
            choice = None
            best = total
            for vc in group:
                if vc.unit.direction in used_inputs:
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
            if not ejection:
                down_unit.vcs[packet.vc_index].allocated_to = packet
            # Inline ``port.hold`` (the unheld branch guarantees it).
            port.held_by = packet
            port.active_vc = vc
            port.held_dst_vc = packet.vc_index
            port.holder_sent = 0
            used_inputs.add(vc.unit.direction)
            if pop_send(port, vc, now).is_tail:
                port.release()
        if self._use_lsd:
            self._lsd_scan(now, candidates)
        if now - self._last_purge >= _PURGE_PERIOD:
            self._purge(now)

    def _pop_send_fast_pra(self, port: OutputPort, vc: VirtualChannel,
                           now: int) -> Flit:
        """``_pop_and_send`` + ``OutputPort.send`` fused for the
        tracer-off, credit-charging case — the PRA twin of the mesh
        ``_pop_send_fast``, except credits append into the *ordered*
        event queue (:meth:`PraNetwork.schedule_credit` semantics: the
        control network's reservation walk reads credit counters, so
        credit/control insertion order is significant).  Every target
        cycle is ``now + <positive const>`` with ``now ==
        network.cycle``, so the future-only guard the public schedulers
        enforce holds by construction."""
        flit = vc.flits.popleft()
        if flit.is_tail:
            vc.allocated_to = vc.next_claim
            vc.next_claim = None
        self.active_flits -= 1
        network = self.network
        events = network._events
        pool = network._bucket_pool
        feeder = vc.unit.feeder_port
        if feeder is not None:
            time = now + CREDIT_DELAY
            bucket = events.get(time)
            if bucket is None:
                bucket = pool.pop() if pool else ([], [], [])
                events[time] = bucket
            bucket[2].append((_CREDIT, feeder, vc.index))
        port.flits_sent += 1
        packet = flit.packet
        if port.held_by is packet:
            port.holder_sent += 1
            vc_index = port.held_dst_vc
        else:
            vc_index = packet.vc_index
        if port.ni_sink is not None:
            network.schedule_eject(now + 1, port.ni_sink, flit)
            return flit
        credits = port.credits
        if credits[vc_index] <= 0:
            raise RuntimeError("credit underflow: flow control violated")
        credits[vc_index] -= 1
        if flit.is_head:
            packet.hops_taken += 1
        time = now + port.link_hop_latency
        bucket = events.get(time)
        if bucket is None:
            bucket = pool.pop() if pool else ([], [], [])
            events[time] = bucket
        bucket[0].append((port.downstream_router, port.downstream_dir,
                          vc_index, flit))
        return flit

    # -- the PRA arbiter ---------------------------------------------------------

    def _execute_reservations(
        self, now: int, used_inputs: Set[Direction], busy_dirs: Set[Direction]
    ) -> None:
        for port in self.port_list:
            table = port.reservations
            if table._count == 0:
                continue
            entry = table.pop(now)
            if entry is None:
                continue
            if not entry.is_driver:
                # A pre-allocated flit crosses this router's crossbar and
                # output link this cycle (set up by the upstream driver);
                # pin the port and the crossbar input for the cycle.  A
                # normally allocated transmission holding the port simply
                # skips this cycle (the PRA arbiter has priority).
                busy_dirs.add(port.direction)
                used_inputs.add(entry.step.out_dir.opposite)
                continue
            self._drive_entry(port, entry, now, used_inputs, busy_dirs)

    def _drive_entry(
        self,
        port: PraOutputPort,
        entry: ReservationEntry,
        now: int,
        used_inputs: Set[Direction],
        busy_dirs: Set[Direction],
    ) -> None:
        plan = entry.plan
        step = entry.step
        packet = plan.packet
        flit = self._source_front(step)
        expected = packet.flits[entry.flit_index]
        if flit is not expected:
            plan.cancel()
            return
        busy_dirs.add(port.direction)
        used_inputs.add(step.source_dir)
        self._pop_source(step, now)
        # Charge link/crossbar activity; a 2-hop step also crosses the
        # bypassed router's crossbar and outgoing link this cycle.
        port.flits_sent += 1
        if step.hops == 2:
            via_router = self.network.routers[step.via_node]
            via_router.output_ports[step.out_dir].flits_sent += 1
        if flit.is_head:
            packet.hops_taken += step.hops
        tracer = self.network.tracer
        if tracer.enabled:
            tracer.emit(
                now, EV_LATCH_BYPASS, pid=packet.pid, node=self.node,
                direction=step.out_dir.name, hops=step.hops,
                via=step.via_node, flit=flit.index,
                source=step.source_kind, landing=step.landing_node,
                landing_kind=step.landing_kind,
            )
        self._deliver_to_landing(step, plan, flit, now)
        if flit.is_tail and step is plan.steps[-1]:
            # The whole pre-allocated stretch has been traversed.
            plan.finished = True
            packet.pra_plan = None
            packet.pra_pending = False

    def _source_front(self, step) -> Optional[Flit]:
        if step.source_kind == SRC_VC:
            vc = self.input_units[step.source_dir].vcs[step.source_vc]
            return vc.front()
        latch = self._latches[step.source_dir]
        return latch[0] if latch else None

    def _pop_source(self, step, now: int) -> None:
        if step.source_kind == SRC_VC:
            vc = self.input_units[step.source_dir].vcs[step.source_vc]
            vc.pop()
            self.active_flits -= 1
            feeder = vc.unit.feeder_port
            if feeder is not None:
                self.network.schedule_credit(now + CREDIT_DELAY, feeder, vc.index)
        else:
            self._latches[step.source_dir].popleft()
            self.active_flits -= 1

    def _deliver_to_landing(self, step, plan: PraPlan, flit: Flit, now: int) -> None:
        if step.landing_kind == LAND_NI:
            ni = self.network.interfaces[step.landing_node]
            self.network.schedule_eject(now + 1, ni, flit)
            return
        landing_router = self.network.routers[step.landing_node]
        if step.landing_kind == LAND_LATCH:
            self.network.schedule_arrival(
                now + 1, landing_router, step.landing_entry, LATCH_INDEX, flit
            )
            return
        assert step.landing_kind == LAND_VC
        plan.consume_landing_credit()
        self.network.schedule_arrival(
            now + 1,
            landing_router,
            step.landing_entry,
            flit.packet.vc_index,
            flit,
        )

    # -- local arbiter constraints ------------------------------------------------

    def _may_grant(self, port: OutputPort, packet: Packet, now: int) -> bool:
        # Normally allocated packets never interleave with proactively
        # allocated ones inside a VC because landings claim their VC
        # (``allocated_to``) at reservation time — the structural
        # equivalent of the paper's per-class multi-flit flag.  Port
        # cycles reserved in the future are taken back by preemption
        # (the PRA arbiter has priority at its slots), so the local
        # arbiter needs no extra pending-reservation rule here.
        return super()._may_grant(port, packet, now)

    def _count_blocked(self, candidates, used_inputs) -> None:
        """A head flit that would have requested this output this cycle
        was blocked by a proactive allocation for another packet."""
        if not candidates:
            return
        for vc in candidates:
            if vc.unit.direction in used_inputs:
                continue
            front = vc.front()
            if front is not None and front.is_head and (
                front.packet.pra_plan is None
            ):
                front.packet.pra_blocked_cycles += 1

    # -- the Long Stall Detection unit ----------------------------------------------

    def _lsd_scan(self, now: int, candidates) -> None:
        """Inject (at most) one control packet for a deterministic stall.

        Only head flits at the front of a VC can be stalled waiting for
        an output port, so the scan reuses the cycle's candidate map.
        """
        max_lag = self._max_lag
        for vcs in candidates.values():
            for vc in vcs:
                front = vc.front()
                if front is None or not front.is_head:
                    continue
                packet = front.packet
                if packet.pra_pending or packet.pra_plan is not None:
                    continue
                release_slot = self._deterministic_release(packet, vc)
                if release_slot is None:
                    continue
                lag = release_slot - (now + 1)
                if lag < 1 or lag > max_lag:
                    continue
                run = self.network.control.inject(
                    packet,
                    self.node,
                    start_slot=release_slot,
                    trigger="lsd",
                    source_kind=SRC_VC,
                    source_dir=vc.unit.direction,
                    source_vc=vc.index,
                )
                if run is not None:
                    return  # one LSD injection per router per cycle

    def _deterministic_release(
        self, packet: Packet, vc: VirtualChannel
    ) -> Optional[int]:
        """First cycle ``packet`` could be granted, when predictable.

        The paper's condition: the wanted output is busy forwarding
        another multi-flit packet, and the downstream router has enough
        buffer space for the remainder of that packet — then it streams
        one flit per cycle and its end is known.  The stalled packet's
        own flits must be buffered so it can stream as soon as granted.
        An upstream supply hiccup of the draining packet invalidates the
        prediction; the driver then finds the port still held and
        cancels the plan (the hardware equivalent: the expected flit is
        absent, so the valid bit is dropped).
        """
        direction = self.route_of(packet)
        port = self.output_ports.get(direction)
        if port is None or not port.is_held:
            return None
        holder = port.held_by
        if holder is packet or not holder.is_multi_flit:
            return None
        remaining = port.remaining_flits_of_holder()
        if remaining < 1:
            return None
        if not port.is_ejection and port.credits[holder.vc_index] < remaining:
            return None
        if vc.occupancy < packet.size:
            return None
        return self.network.cycle + remaining + 1

    # -- checkpointing ------------------------------------------------------------

    def state_dict(self, ctx) -> dict:
        state = super().state_dict(ctx)
        state["latches"] = [
            [int(direction), [ctx.flit_ref(flit) for flit in latch]]
            for direction, latch in self._latches.items()
        ]
        state["latch_claims"] = [
            [int(direction), slot, ctx.plan_ref(plan)]
            for (direction, slot), plan in self._latch_claims.items()
            if not plan.cancelled
        ]
        state["input_claims"] = [
            [int(direction), slot, ctx.plan_ref(plan)]
            for (direction, slot), plan in self._input_claims.items()
            if not plan.cancelled
        ]
        state["last_purge"] = self._last_purge
        return state

    def load_state(self, state: dict, ctx) -> None:
        super().load_state(state, ctx)
        for direction_value, refs in state["latches"]:
            self._latches[Direction(direction_value)] = deque(
                ctx.flit(ref) for ref in refs
            )
        # ``claim_latch`` / ``claim_input`` rebuild each plan's release
        # back-reference lists as a side effect, mirroring reserve().
        self._latch_claims = {}
        for direction_value, slot, plan_ref in state["latch_claims"]:
            self.claim_latch(Direction(direction_value), slot,
                             ctx.plan(plan_ref))
        self._input_claims = {}
        for direction_value, slot, plan_ref in state["input_claims"]:
            self.claim_input(Direction(direction_value), slot,
                             ctx.plan(plan_ref))
        self._last_purge = state["last_purge"]

    # -- housekeeping -------------------------------------------------------------

    def _purge(self, now: int) -> None:
        self._last_purge = now
        for port in self.output_ports.values():
            port.reservations.purge_before(now)
        for claims in (self._latch_claims, self._input_claims):
            stale = [key for key in claims if key[1] < now]
            for key in stale:
                del claims[key]
