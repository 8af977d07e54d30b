"""Unit tests for the PRA bookkeeping: reservation tables and plans."""

import pytest

from repro.core.plan import PlanStep, PraPlan, LAND_VC, SRC_VC
from repro.core.reservation import ReservationTable
from repro.noc.packet import Packet
from repro.noc.topology import Direction
from repro.params import MessageClass


def make_plan(size_class=MessageClass.RESPONSE):
    pkt = Packet(src=0, dst=3, msg_class=size_class)
    return PraPlan(pkt, start_slot=10), pkt


def make_step(slot=10):
    return PlanStep(
        driver_node=0, out_dir=Direction.EAST, slot=slot, hops=1,
        source_kind=SRC_VC, source_dir=Direction.LOCAL, source_vc=2,
        landing_node=1, landing_kind=LAND_VC,
        landing_entry=Direction.WEST,
    )


class _FakeRouter:
    """Holder of the pending-slot counter a table keeps."""

    pending_slots = 0


def make_table(horizon=12):
    return ReservationTable(horizon=horizon, router=_FakeRouter())


class TestReservationTable:
    def test_reserve_and_pop(self):
        table = make_table()
        plan, _ = make_plan()
        step = make_step()
        table.reserve_window(10, 2, plan, step, True)
        assert not table.window_free(10, 1)
        assert table.router.pending_slots == 2
        assert table.pop(10) == (plan, step, True)
        assert table.window_free(10, 1) and not table.window_free(11, 1)
        assert table.router.pending_slots == 1
        assert table.pop(10) is None

    def test_double_booking_rejected(self):
        table = make_table()
        plan, _ = make_plan()
        table.reserve_window(10, 3, plan, make_step(), True)
        with pytest.raises(RuntimeError):
            table.reserve_window(12, 1, plan, make_step(12), True)

    def test_cancelled_plan_frees_slot(self):
        table = make_table()
        plan, _ = make_plan()
        table.reserve_window(10, 1, plan, make_step(), True)
        plan.cancel()
        assert table.window_free(10, 1)
        assert table.router.pending_slots == 0
        # A new reservation may take the slot.
        plan2, _ = make_plan()
        table.reserve_window(10, 1, plan2, make_step(), True)
        assert table.records[10][0] is plan2

    def test_window_free(self):
        table = make_table()
        plan, _ = make_plan()
        table.reserve_window(12, 1, plan, make_step(12), True)
        assert table.window_free(8, 4)
        assert not table.window_free(10, 4)

    def test_horizon(self):
        table = make_table(horizon=8)
        assert table.within_horizon(now=100, first_slot=104, count=5)
        assert not table.within_horizon(now=100, first_slot=105, count=5)

    def test_purge_before(self):
        table = make_table()
        plan, _ = make_plan()
        table.reserve_window(5, 1, plan, make_step(5), True)
        table.reserve_window(9, 1, plan, make_step(9), True)
        table.purge_before(8)
        assert len(table) == 1
        assert table.router.pending_slots == 1
        assert table.window_free(5, 1) and not table.window_free(9, 1)


class _FakePort:
    """Minimal OutputPort stand-in for claim accounting tests."""

    def __init__(self, depth=5):
        from repro.noc.vc import VirtualChannel

        self._vc = VirtualChannel(2, depth)
        self.credits = [depth, depth, depth]
        self.reserved = [0, 0, 0]

    def downstream_vc(self, idx):
        return self._vc

    def claim_buffer(self, idx, count):
        assert self.credits[idx] >= count
        self.credits[idx] -= count
        self.reserved[idx] += count

    def refund_buffer(self, idx, count):
        self.credits[idx] += count
        self.reserved[idx] -= count

    def consume_claim(self, idx):
        self.reserved[idx] -= 1


class TestPraPlanClaims:
    def test_claim_and_cancel_refunds(self):
        plan, pkt = make_plan()
        port = _FakePort()
        plan.claim_landing_vc(port, pkt.vc_index)
        assert port.credits[2] == 0
        assert port.downstream_vc(2).allocated_to is pkt
        plan.cancel()
        assert port.credits[2] == 5
        assert port.reserved[2] == 0
        assert port.downstream_vc(2).allocated_to is None

    def test_partial_consumption_then_cancel(self):
        plan, pkt = make_plan()
        port = _FakePort()
        plan.claim_landing_vc(port, pkt.vc_index)
        plan.consume_landing_credit()
        plan.consume_landing_credit()
        plan.cancel()
        # Two promised slots were used (flits in flight occupy them);
        # only the remaining three credits are refunded.
        assert port.credits[2] == 3
        assert port.reserved[2] == 0

    def test_full_consumption_clears_claim(self):
        plan, pkt = make_plan()
        port = _FakePort()
        plan.claim_landing_vc(port, pkt.vc_index)
        for _ in range(pkt.size):
            plan.consume_landing_credit()
        assert plan.vc_claim is None
        assert port.reserved[2] == 0

    def test_double_claim_rejected(self):
        plan, pkt = make_plan()
        port = _FakePort()
        plan.claim_landing_vc(port, pkt.vc_index)
        with pytest.raises(AssertionError):
            plan.claim_landing_vc(_FakePort(), pkt.vc_index)

    def test_cancel_clears_packet_state(self):
        plan, pkt = make_plan()
        pkt.pra_plan = plan
        pkt.pra_pending = True
        plan.cancel()
        assert pkt.pra_plan is None
        assert not pkt.pra_pending
        assert plan.cancelled

    def test_cancel_is_idempotent(self):
        plan, pkt = make_plan()
        port = _FakePort()
        plan.claim_landing_vc(port, pkt.vc_index)
        plan.cancel()
        plan.cancel()
        assert port.credits[2] == 5
