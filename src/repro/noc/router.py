"""Routers: the base pipeline and the baseline mesh router.

The baseline mesh router (Table I) is a 1-stage speculative router: a
head flit that arrived by the start of cycle *t* performs routing, VC
allocation, and speculative crossbar allocation during *t*, then crosses
the crossbar and link during *t+1*, becoming allocation-eligible at the
next router at *t+2* — two cycles per hop at zero load.

Switch allocation is packet-granular: once a head flit wins an output
port, the port is held until the packet's tail is sent.  This keeps the
flits of a multi-flit packet contiguous on every link, which (a) matches
the paper's framing of in-network blocking ("the output port is busy
forwarding a multi-flit packet") and (b) makes the release time of a
blocked port deterministic whenever the downstream buffer can absorb the
in-flight packet — the property the Long Stall Detection unit exploits.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Optional, Set, Tuple

from repro.noc.flit import Flit
from repro.noc.packet import Packet
from repro.noc.ports import OutputPort
from repro.noc.topology import Direction, Port, as_port, port_name
from repro.noc.vc import InputUnit, VirtualChannel
from repro.trace.events import (
    EV_SWITCH_GRANT,
    EV_SWITCH_HOLD,
    EV_SWITCH_RELEASE,
    EV_VC_ALLOC,
)

#: Cycles from a flit's dequeue to the upstream credit increment
#: (one cycle switch+link traversal, one cycle credit wire).
CREDIT_DELAY = 2

#: Sort key for round-robin candidate ordering.
_RR_KEY = attrgetter("rr_key")


class BaseRouter:
    """Shared structure of all router types: input units and ports."""

    def __init__(self, node: int, network):
        self.node = node
        self.network = network
        self.topology = network.topology
        params = network.params.router
        self.num_vcs = params.vcs_per_port
        self.vc_depth = params.flits_per_vc
        self.input_units: Dict[Port, InputUnit] = {}
        self.output_ports: Dict[Port, OutputPort] = {}
        #: Flits currently buffered in this router (early-exit counter).
        self.active_flits = 0
        #: Round-robin state per output port: the (input port, vc index)
        #: key last granted, or None before the first grant.
        #: Advancing relative to the previous *grant* (instead of a
        #: monotonically increasing pointer indexed into a list whose
        #: membership changes every cycle) is what makes arbitration
        #: fair under churning candidate sets.
        self._rr: Dict[Port, Optional[Tuple[int, int]]] = {
            Direction.LOCAL: None
        }

        self.input_units[Direction.LOCAL] = InputUnit(
            Direction.LOCAL, self.num_vcs, self.vc_depth
        )
        # The topology's per-node port set decides this router's degree:
        # 2 on a ring stop, up to 4 on a mesh tile, more on a chiplet
        # gateway or an IO die.  Every listed port has a neighbor.
        for port in self.topology.ports(node):
            self.input_units[port] = InputUnit(
                port, self.num_vcs, self.vc_depth
            )
            self.output_ports[port] = self._make_output_port(port)
            self._rr[port] = None
        # Ejection port toward the NI (wired by the network).
        self.output_ports[Direction.LOCAL] = self._make_output_port(
            Direction.LOCAL
        )
        self._unit_list: List[InputUnit] = list(self.input_units.values())
        #: Dense next-port row for this node (the candidate scan
        #: resolves a route per buffered head flit every cycle, so it
        #: must be a single list index, not a hash lookup).
        self._route_row = self.topology.route_row(node)
        self._rebuild_port_cache()

    def _rebuild_port_cache(self) -> None:
        """Refresh cached port and VC lists (call after adding ports)."""
        order = (Direction.LOCAL,) + tuple(self.topology.ports(self.node))
        #: Router-to-router output ports, in processing order.
        self.cardinal_ports: List[OutputPort] = [
            self.output_ports[p] for p in order
            if p is not Direction.LOCAL and p in self.output_ports
        ]
        #: All output ports in fixed processing order (LOCAL first).
        self.port_list: List[OutputPort] = [
            self.output_ports[p] for p in order if p in self.output_ports
        ]
        #: Every input VC, flattened in fixed unit order (hot-scan list).
        self._vc_list: List[VirtualChannel] = [
            vc for unit in self._unit_list for vc in unit.vcs
        ]
        #: Dense round-robin ids: every input VC numbered in ascending
        #: ``rr_key`` order.  With ids dense in ``[0, total)``, "first
        #: key strictly after the last grantee, wrapping to the
        #: smallest" becomes a minimum of ``(id - last - 1) % total`` —
        #: no per-pick sort.
        ranked = sorted(self._vc_list, key=_RR_KEY)
        for rank, vc in enumerate(ranked):
            vc.rr_id = rank
        self._rr_total = len(ranked)
        self._rr_key_to_id = {vc.rr_key: vc.rr_id for vc in ranked}
        #: Last-granted rr id per output port (mirrors ``_rr``, which
        #: stays the checkpointed form).
        self._rr_last: Dict[Port, Optional[int]] = {
            direction: None for direction in self._rr
        }

    def _make_output_port(self, direction: Port) -> OutputPort:
        return OutputPort(
            router=self,
            direction=direction,
            network=self.network,
            num_vcs=self.num_vcs,
            vc_depth=self.vc_depth,
        )

    # -- flit reception -----------------------------------------------------

    #: True while the class keeps this stock reception path, letting
    #: ``Network._run_events`` inline delivery (PRA latches opt out).
    _plain_receive = True

    #: Sentinel VC index of latch landings (PRA); ``None`` everywhere
    #: else.  Set per class so the inlined arrival loop can dispatch
    #: latch deliveries without a virtual ``receive_flit`` call.
    _latch_index: Optional[int] = None

    #: True once ``finalize_build`` verified the network keeps the
    #: stock event schedulers, letting ``_pop_and_send`` (and the SMART
    #: transmit) append straight into the cycle buckets.
    _plain_sched = False

    def receive_flit(self, direction: Port, vc_index: int, flit: Flit) -> None:
        self.input_units[direction].receive(flit, vc_index)
        self.active_flits += 1
        self.network.wake_router(self.node)

    def has_work(self) -> bool:
        """Whether this router must be stepped again next cycle."""
        return self.active_flits > 0

    def route_of(self, packet: Packet) -> Port:
        """Output port the packet takes from this router."""
        return self._route_row[packet.dst]

    # -- per-cycle processing -----------------------------------------------

    def step(self, now: int) -> None:
        raise NotImplementedError

    def finalize_build(self) -> None:
        """Build-time specialization hook, called once by the network
        after all wiring (links, ejection, interfaces) is in place.  The
        mesh router elects a monomorphic fast path here; the base router
        has none."""

    # -- shared helpers -------------------------------------------------------

    def _pop_and_send(
        self, port: OutputPort, vc: VirtualChannel, now: int,
        charge_credit: bool = True,
    ) -> Flit:
        """Dequeue the front flit of ``vc`` and transmit it on ``port``."""
        # ``vc.pop()`` inlined: this helper moves every flit of every
        # generic-path router, so the extra call showed up in profiles.
        flit = vc.flits.popleft()
        if flit.is_tail:
            vc.allocated_to = vc.next_claim
            vc.next_claim = None
        self.active_flits -= 1
        network = self.network
        # ``plain``: stock schedulers — credit and arrival appends go
        # straight into the cycle buckets (targets are
        # ``now + <positive const>`` with ``now == network.cycle``, so
        # the future-only guard holds by construction).
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
                network.schedule_credit(
                    now + CREDIT_DELAY, feeder, vc.index
                )
        # Tracer-off transmit is ``OutputPort.send`` flattened in place
        # (same fusion as ``_pop_send_fast``); tracing and overriding
        # ports take the virtual call so they stay fully featured.
        if network.tracer.enabled or not port._plain_send:
            port.send(flit, now, charge_credit=charge_credit)
            return flit
        port.flits_sent += 1
        vc_index = None
        if port.held_by is flit.packet:
            port.holder_sent += 1
            vc_index = port.held_dst_vc
        if port.ni_sink is not None:
            network.schedule_eject(now + 1, port.ni_sink, flit)
            return flit
        if vc_index is None:
            vc_index = flit.packet.vc_index
        if charge_credit:
            if port.credits[vc_index] <= 0:
                raise RuntimeError("credit underflow: flow control violated")
            port.credits[vc_index] -= 1
        if flit.is_head and port.router is not None:
            flit.packet.hops_taken += 1
        if plain:
            time = now + port.link_hop_latency
            events = network._events
            bucket = events.get(time)
            if bucket is None:
                pool = network._bucket_pool
                bucket = pool.pop() if pool else ([], [], [])
                events[time] = bucket
            bucket[0].append((port.downstream_router, port.downstream_dir,
                              vc_index, flit))
        else:
            network.schedule_arrival(
                now + port.link_hop_latency,
                port.downstream_router,
                port.downstream_dir,
                vc_index,
                flit,
            )
        return flit

    def _collect_head_candidates(self) -> Dict[Port, List[VirtualChannel]]:
        """One pass over all input VCs: head flits grouped by the output
        port they request.  Built once per cycle and shared by all
        output ports (and by LSD in the PRA router)."""
        candidates: Dict[Port, List[VirtualChannel]] = {}
        row = self._route_row
        for vc in self._vc_list:
            flits = vc.flits
            if not flits:
                continue
            front = flits[0]
            if not front.is_head:
                continue
            direction = row[front.packet.dst]
            group = candidates.get(direction)
            if group is None:
                candidates[direction] = [vc]
            else:
                group.append(vc)
        return candidates

    def _head_candidates(
        self, direction: Port, used_inputs: Set[Port]
    ) -> List[VirtualChannel]:
        """Input VCs whose front flit is a head routed to ``direction``."""
        return [
            vc
            for vc in self._collect_head_candidates().get(direction, [])
            if vc.unit.direction not in used_inputs
        ]

    def _round_robin_pick(
        self, direction: Port, candidates: List[VirtualChannel]
    ) -> VirtualChannel:
        """Grant the first candidate strictly after the last grantee in
        cyclic (input direction, vc index) order.

        The candidate list's membership changes every cycle, so the
        pointer must be anchored to the previously granted *key*, not an
        index into the list: an index-modulo scheme can starve a VC
        indefinitely when membership oscillates.  With dense per-VC
        ranks ("first id strictly after the last grantee, wrapping")
        the pick is a modular-arithmetic minimum — no per-cycle sort.
        """
        total = self._rr_total
        last = self._rr_last[direction]
        if last is None:
            last = total - 1
        choice: Optional[VirtualChannel] = None
        best = total
        for vc in candidates:
            rank = (vc.rr_id - last - 1) % total
            if rank < best:
                best = rank
                choice = vc
        self._rr[direction] = choice.rr_key
        self._rr_last[direction] = choice.rr_id
        return choice

    # -- checkpointing ---------------------------------------------------

    def state_dict(self, ctx) -> dict:
        """Mutable router state; wiring and caches are reconstruction."""
        return {
            "units": [
                [int(direction), [vc.state_dict(ctx) for vc in unit.vcs]]
                for direction, unit in self.input_units.items()
            ],
            "ports": [
                [int(direction), port.state_dict(ctx)]
                for direction, port in self.output_ports.items()
            ],
            "active_flits": self.active_flits,
            "rr": [
                [int(direction), list(key) if key is not None else None]
                for direction, key in self._rr.items()
            ],
        }

    def load_state(self, state: dict, ctx) -> None:
        for direction_value, vc_states in state["units"]:
            unit = self.input_units[as_port(direction_value)]
            for vc, vc_state in zip(unit.vcs, vc_states):
                vc.load_state(vc_state, ctx)
        for direction_value, port_state in state["ports"]:
            self.output_ports[as_port(direction_value)].load_state(
                port_state, ctx
            )
        self.active_flits = state["active_flits"]
        self._rr = {
            as_port(direction_value):
                tuple(key) if key is not None else None
            for direction_value, key in state["rr"]
        }
        # Rebuild the dense-rank mirror of the checkpointed keys.
        key_to_id = self._rr_key_to_id
        self._rr_last = {
            direction: None if key is None else key_to_id[key]
            for direction, key in self._rr.items()
        }

    def __repr__(self) -> str:
        return f"{type(self).__name__}(node={self.node})"


class MeshRouter(BaseRouter):
    """The baseline 1-stage speculative mesh router."""

    def step(self, now: int) -> None:
        if self.active_flits == 0:
            return
        faults = self.network.faults
        fault_on = faults.enabled
        if fault_on and faults.router_stalled(self.node, now):
            return
        used_inputs: Set[Port] = set()
        group_of = self._collect_head_candidates().get
        for port in self.port_list:
            if fault_on and port.fault_stalled(now):
                continue
            if port.held_by is not None:
                self._advance_held(port, now, used_inputs)
            else:
                direction = port.direction
                group = group_of(direction)
                if group:
                    self._try_grant(port, direction, now, used_inputs, group)

    # -- build-time specialization (hot-path engine v3) ----------------------

    def finalize_build(self) -> None:
        """Elect a monomorphic ``step`` when this instance provably uses
        the plain mesh pipeline.

        Selection happens once, at build time: a flat (single escape
        layer) router whose class keeps the stock ``step`` gets a
        specialized binding — the full inline path for a plain
        :class:`MeshRouter`, or the fast candidate scan
        (:meth:`_step_scan`) when grant/hold hooks are overridden (the
        SMART router).  Escape-layer routers (ring, chiplet) keep the
        generic layered path; the PRA router elects its own flattened
        pipeline (see ``PraRouter.finalize_build``).
        ``REPRO_NO_FASTPATH`` disables election entirely.
        """
        if not self.network.fastpath:
            return
        network = self.network
        cls = type(self)
        from repro.noc.network import Network
        net_cls = type(network)
        # Stock event schedulers → transmit helpers may append into the
        # cycle buckets directly (PraNetwork re-orders credits, so its
        # routers keep the virtual calls on the generic path).
        self._plain_sched = (
            net_cls.schedule_arrival is Network.schedule_arrival
            and net_cls.schedule_credit is Network.schedule_credit
        )
        if cls.step is not MeshRouter.step:
            return  # custom pipeline (PRA) elects its own fast step
        if isinstance(self, LayeredVcRouter):
            return  # escape-layer routing stays on the generic path
        if cls._collect_head_candidates is not \
                BaseRouter._collect_head_candidates:
            return
        if cls._may_grant is not MeshRouter._may_grant:
            return  # the fast scan fuses the stock eligibility check
        #: Preallocated per-direction candidate buckets indexed by
        #: ``int(port)``, so the hot scan never hashes or allocates.
        size = max(int(port.direction) for port in self.port_list) + 1
        self._cand_buckets: List[List[VirtualChannel]] = [
            [] for _ in range(size)
        ]
        if (cls is MeshRouter
                and cls._pop_and_send is BaseRouter._pop_and_send
                and cls._make_output_port is BaseRouter._make_output_port):
            self.step = self._step_fast  # type: ignore[method-assign]
        else:
            self.step = self._step_scan  # type: ignore[method-assign]

    def _scan_heads_fast(self) -> int:
        """Fill the preallocated candidate buckets; returns a bitmask of
        touched output-port indices (callers must clear those buckets
        before returning)."""
        buckets = self._cand_buckets
        row = self._route_row
        touched = 0
        for vc in self._vc_list:
            flits = vc.flits
            if flits:
                front = flits[0]
                if front.is_head:
                    index = int(row[front.packet.dst])
                    buckets[index].append(vc)
                    touched |= 1 << index
        return touched

    def _clear_buckets(self, touched: int) -> None:
        buckets = self._cand_buckets
        while touched:
            low = touched & -touched
            buckets[low.bit_length() - 1].clear()
            touched -= low

    def _step_fast(self, now: int) -> None:
        """Monomorphic hot path for the plain flat mesh.

        Bit-identical to :meth:`step` with the generic helpers inlined:
        candidate groups live in preallocated per-direction buckets, the
        round-robin pick is rotation arithmetic fused with the
        eligibility filter, and the pop→credit→send chain skips the
        virtual dispatch.  Whenever an observer is attached (faults,
        tracer) the router falls back to the generic step, so
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
        used = 0
        for port in self.port_list:
            held = port.held_by
            if held is not None:
                vc = port.active_vc
                if vc is None:
                    continue
                flits = vc.flits
                if not flits or flits[0].packet is not held:
                    continue  # next flit still in flight from upstream
                in_bit = 1 << vc.unit.direction
                if used & in_bit:
                    continue
                if port.ni_sink is None and port.credits[port.held_dst_vc] < 1:
                    continue
                used |= in_bit
                if self._pop_send_fast(port, vc, now).is_tail:
                    port.release()
                continue
            index = int(port.direction)
            if not (touched >> index) & 1:
                continue
            # Eligibility filter fused with the rotation pick.
            last = rr_last[port.direction]
            if last is None:
                last = total - 1
            down_unit = port.downstream_unit
            credits = port.credits
            ejection = port.ni_sink is not None
            choice = None
            best = total
            for vc in buckets[index]:
                if used & (1 << vc.unit.direction):
                    continue
                packet = vc.flits[0].packet
                if not ejection:
                    vc_index = packet.vc_index
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
            direction = port.direction
            self._rr[direction] = vc.rr_key
            rr_last[direction] = vc.rr_id
            packet = vc.flits[0].packet
            if not ejection:
                down_unit.vcs[packet.vc_index].allocated_to = packet
            # Inline port.hold (the unheld branch above guarantees it).
            port.held_by = packet
            port.active_vc = vc
            port.held_dst_vc = packet.vc_index
            port.holder_sent = 0
            used |= 1 << vc.unit.direction
            if self._pop_send_fast(port, vc, now).is_tail:
                port.release()
        self._clear_buckets(touched)

    def _pop_send_fast(self, port: OutputPort, vc: VirtualChannel,
                       now: int) -> Flit:
        """:meth:`_pop_and_send` + :meth:`OutputPort.send` fused for the
        tracer-off, credit-charging, plain-port case (the only one the
        fast step reaches).  Event scheduling appends straight into the
        cycle buckets: every target cycle is ``now + <positive const>``
        with ``now == network.cycle``, so the future-only guard the
        public schedulers enforce holds by construction."""
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
            bucket[1].append((feeder, vc.index))
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

    def _step_scan(self, now: int) -> None:
        """Fast candidate scan with virtual grant/hold hooks: the
        per-cycle head scan, the eligibility filter (the election
        verified the stock ``_may_grant``), and the round-robin pick
        are inlined, while ``_advance_held``/``_grant`` stay
        overridable — the SMART router's bypass logic rides on them."""
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
        used_inputs: Set[Port] = set()
        for port in self.port_list:
            if port.held_by is not None:
                self._advance_held(port, now, used_inputs)
                continue
            index = int(port.direction)
            if not (touched >> index) & 1:
                continue
            # ``_try_grant`` fused: the filter is the flattened
            # VC-allocation check, the pick is rotation arithmetic.
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
            self._rr[direction] = choice.rr_key
            rr_last[direction] = choice.rr_id
            self._grant(port, choice, choice.flits[0].packet, now,
                        used_inputs)
        self._clear_buckets(touched)

    # -- switch traversal of an in-progress packet ---------------------------

    def _advance_held(
        self, port: OutputPort, now: int, used_inputs: Set[Port]
    ) -> None:
        # Stall checks are inlined (``vc.front()`` / ``has_credit_for``
        # flattened); the trace helper is only invoked when a tracer is
        # actually attached, keeping the common stall to attribute work.
        vc = port.active_vc
        if vc is None:
            return
        flits = vc.flits
        if not flits or flits[0].packet is not port.held_by:
            if self.network.tracer.enabled:
                self._trace_hold(port, now, "awaiting_flit")
            return  # next flit still in flight from upstream
        direction = vc.unit.direction
        if direction in used_inputs:
            if self.network.tracer.enabled:
                self._trace_hold(port, now, "input_busy")
            return
        if port.ni_sink is None and port.credits[port.held_dst_vc] < 1:
            if self.network.tracer.enabled:
                self._trace_hold(port, now, "no_credit")
            return
        used_inputs.add(direction)
        flit = self._pop_and_send(port, vc, now)
        if flit.is_tail:
            port.release()
            tracer = self.network.tracer
            if tracer.enabled:
                tracer.emit(now, EV_SWITCH_RELEASE, pid=flit.packet.pid,
                            node=self.node,
                            direction=port_name(port.direction))

    def _trace_hold(self, port: OutputPort, now: int, reason: str) -> None:
        """Record a held port that could not advance this cycle."""
        tracer = self.network.tracer
        if tracer.enabled:
            tracer.emit(
                now, EV_SWITCH_HOLD,
                pid=port.held_by.pid if port.held_by is not None else None,
                node=self.node,
                direction=port_name(port.direction),
                reason=reason,
            )

    # -- head-flit allocation (RC + VA + speculative SA in one cycle) --------

    def _try_grant(
        self, port: OutputPort, direction: Port, now: int,
        used_inputs: Set[Port],
        candidates: Optional[List[VirtualChannel]] = None,
    ) -> None:
        may_grant = self._may_grant
        if candidates is None:
            candidates = self._collect_head_candidates().get(direction, ())
        # Eligibility filter fused with the rotation pick (one pass, no
        # intermediate list); identical to filtering into ``eligible``
        # and handing it to ``_round_robin_pick``.
        total = self._rr_total
        last = self._rr_last[direction]
        if last is None:
            last = total - 1
        choice: Optional[VirtualChannel] = None
        best = total
        for vc in candidates:
            if vc.unit.direction in used_inputs:
                continue
            if not may_grant(port, vc.flits[0].packet, now):
                continue
            rank = (vc.rr_id - last - 1) % total
            if rank < best:
                best = rank
                choice = vc
        if choice is None:
            return
        self._rr[direction] = choice.rr_key
        self._rr_last[direction] = choice.rr_id
        self._grant(port, choice, choice.flits[0].packet, now, used_inputs)

    def _may_grant(self, port: OutputPort, packet: Packet, now: int) -> bool:
        """VC-allocation check; the PRA router layers reservation rules."""
        return port.can_allocate_vc(packet)

    def _grant(
        self,
        port: OutputPort,
        vc: VirtualChannel,
        packet: Packet,
        now: int,
        used_inputs: Set[Port],
    ) -> None:
        tracer = self.network.tracer
        if not port.is_ejection:
            port.downstream_vc(packet.vc_index).allocated_to = packet
            if tracer.enabled:
                tracer.emit(now, EV_VC_ALLOC, pid=packet.pid, node=self.node,
                            direction=port_name(port.direction),
                            vc=packet.vc_index)
        port.hold(packet, source_vc=vc)
        if tracer.enabled:
            tracer.emit(now, EV_SWITCH_GRANT, pid=packet.pid, node=self.node,
                        direction=port_name(port.direction),
                        input=port_name(vc.unit.direction),
                        input_vc=vc.index)
        used_inputs.add(vc.unit.direction)
        flit = self._pop_and_send(port, vc, now)
        if flit.is_tail:
            port.release()
            if tracer.enabled:
                tracer.emit(now, EV_SWITCH_RELEASE, pid=packet.pid,
                            node=self.node,
                            direction=port_name(port.direction))


class LayeredVcRouter(MeshRouter):
    """A mesh-pipelined router whose VCs are split into escape layers.

    Per-class VCs subdivide into ``vc_layers`` layers; a packet starts
    in layer 0 and is bumped to layer 1 the first time it crosses a
    *layer-advancing* output port (:meth:`_advances_layer`) — the ring's
    dateline link, or a chiplet's inter-chiplet link.  Choosing the
    advancing edges so that each layer's channel graph is acyclic makes
    the layered VC dependency graph acyclic, i.e. deadlock-free; the
    deadlock watchdog verifies this at runtime.

    The current layer rides on ``packet.ring_layer`` (named for its
    first user; it is simply "escape layer").
    """

    #: VC layers per message class (downstream VC = class * layers + layer).
    vc_layers = 2

    #: Lazily built frozenset of layer-advancing output directions.
    #: ``_advances_layer`` is a pure function of the direction, so the
    #: per-grant virtual call collapses to one set-membership test.
    _adv_dirs: Optional[frozenset] = None

    def _advances_layer(self, direction: Port) -> bool:
        """Does granting ``direction`` move the packet to layer 1?"""
        raise NotImplementedError

    def _advancing_dirs(self) -> frozenset:
        dirs = self._adv_dirs
        if dirs is None:
            dirs = self._adv_dirs = frozenset(
                direction for direction in self.output_ports
                if self._advances_layer(direction)
            )
        return dirs

    def _dst_vc_for(self, packet: Packet, direction: Port) -> int:
        """Downstream VC: the packet's class layer, escaped if needed."""
        dirs = self._adv_dirs
        if dirs is None:
            dirs = self._advancing_dirs()
        layer = 1 if direction in dirs else packet.ring_layer
        return packet.msg_class.value * self.vc_layers + layer

    def _may_grant(self, port: OutputPort, packet: Packet, now: int) -> bool:
        if port.ni_sink is not None:
            return True
        return port.can_allocate_vc(
            packet, self._dst_vc_for(packet, port.direction)
        )

    def _grant(
        self,
        port: OutputPort,
        vc: VirtualChannel,
        packet: Packet,
        now: int,
        used_inputs: Set[Port],
    ) -> None:
        dst_vc: Optional[int] = None
        if port.ni_sink is None:
            dst_vc = self._dst_vc_for(packet, port.direction)
            port.downstream_unit.vcs[dst_vc].allocated_to = packet
            if port.direction in self._advancing_dirs():
                packet.ring_layer = 1
        port.hold(packet, source_vc=vc, dst_vc=dst_vc)
        used_inputs.add(vc.unit.direction)
        flit = self._pop_and_send(port, vc, now)
        if flit.is_tail:
            port.release()
