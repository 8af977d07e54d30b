"""Model tests for the PRA bit vectors.

Random sequences of reservations, executions, cancellations, clock
advances and purges run against a plain dict-of-slots reference.  After
every operation the bit vectors must agree with the reference slot by
slot — occupancy, the records or claimed windows behind it, and the
router's pending-slot counter — including across rebases, where a
window straddles the new base, and when a partly executed window is
voided.  Double-booking must raise and leave the state untouched.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plan import PlanStep, PraPlan, SRC_VC
from repro.core.reservation import ReservationTable
from repro.noc.packet import Packet
from repro.noc.topology import Direction
from repro.params import MessageClass, NocKind
from tests.helpers import make_network

PLANS = 3
#: Slots checked around ``now`` after every operation.
SPAN = range(-24, 40)

model_settings = settings(max_examples=150, deadline=None)


def new_plan():
    packet = Packet(src=0, dst=3, msg_class=MessageClass.RESPONSE)
    return PraPlan(packet, start_slot=0)


def step_at(slot):
    return PlanStep(driver_node=0, out_dir=Direction.EAST, slot=slot,
                    hops=1, source_kind=SRC_VC)


class _Router:
    pending_slots = 0


operations = st.lists(
    st.one_of(
        # (op, first-slot offset from now, slot count, plan index, flag)
        st.tuples(st.just("reserve"), st.integers(0, 14),
                  st.integers(1, 5), st.integers(0, PLANS - 1),
                  st.booleans()),
        # (op, cycles, pop each passed slot?)
        st.tuples(st.just("tick"), st.integers(1, 4), st.booleans()),
        st.tuples(st.just("cancel"), st.integers(0, PLANS - 1)),
        st.tuples(st.just("purge")),
    ),
    max_size=60,
)


class TableModel:
    """A reservation table driven next to ``slot -> record`` dict."""

    def __init__(self):
        self.table = ReservationTable(horizon=12, router=_Router())
        self.ref = {}
        self.plans = [new_plan() for _ in range(PLANS)]
        self.now = 0

    def reserve(self, offset, count, index, is_driver):
        first = self.now + offset
        plan = self.plans[index]
        step = step_at(first)
        window = range(first, first + count)
        if any(slot in self.ref for slot in window):
            with pytest.raises(RuntimeError):
                self.table.reserve_window(first, count, plan, step,
                                          is_driver)
            return
        assert self.table.window_free(first, count)
        self.table.reserve_window(first, count, plan, step, is_driver)
        for slot in window:
            self.ref[slot] = (plan, step, is_driver)

    def tick(self, cycles, pop):
        for _ in range(cycles):
            if pop:
                assert self.table.pop(self.now) == self.ref.pop(
                    self.now, None)
            self.now += 1

    def cancel(self, index):
        plan = self.plans[index]
        plan.cancel()
        self.ref = {slot: record for slot, record in self.ref.items()
                    if record[0] is not plan}
        self.plans[index] = new_plan()

    def purge(self):
        self.table.purge_before(self.now)
        self.ref = {slot: record for slot, record in self.ref.items()
                    if slot >= self.now}

    def check(self):
        table = self.table
        assert table.records == self.ref
        assert len(table) == len(self.ref)
        assert table.router.pending_slots == len(self.ref)
        for offset in SPAN:
            slot = self.now + offset
            assert table.window_free(slot, 1) == (slot not in self.ref)
            free = all(s not in self.ref for s in range(slot, slot + 5))
            assert table.window_free(slot, 5) == free


@model_settings
@given(operations)
def test_reservation_table_matches_dict_model(ops):
    model = TableModel()
    for op, *args in ops:
        getattr(model, op)(*args)
        model.check()


def test_window_straddling_the_base_after_a_rebase():
    model = TableModel()
    model.reserve(0, 5, 0, True)
    model.tick(2, True)  # two flits executed
    model.purge()        # the base moves into the window
    model.check()
    assert model.table.base == model.now
    model.tick(2, True)
    model.check()
    model.cancel(0)      # void the partly executed, straddling window
    model.check()
    assert model.table.mask == 0


def test_double_booking_raises_and_changes_nothing():
    model = TableModel()
    model.reserve(3, 4, 0, True)
    before = (dict(model.table.records), model.table.mask,
              model.table.router.pending_slots)
    model.reserve(6, 2, 1, False)  # overlaps slot 6
    assert (dict(model.table.records), model.table.mask,
            model.table.router.pending_slots) == before
    model.check()


claim_operations = st.lists(
    st.one_of(
        # (op, latch?, input direction, offset, count, plan index)
        st.tuples(st.just("claim"), st.booleans(),
                  st.sampled_from([Direction.LOCAL, Direction.EAST,
                                   Direction.WEST]),
                  st.integers(-1, 14), st.integers(1, 5),
                  st.integers(0, PLANS - 1)),
        st.tuples(st.just("tick"), st.integers(1, 4)),
        st.tuples(st.just("cancel"), st.integers(0, PLANS - 1)),
        st.tuples(st.just("purge")),
    ),
    max_size=60,
)


class ClaimModel:
    """A PRA router's input and latch claim masks next to a
    ``(latch?, direction, slot) -> plan`` dict."""

    def __init__(self):
        self.router = make_network(NocKind.MESH_PRA, 3, 3).routers[4]
        self.ref = {}
        self.plans = [new_plan() for _ in range(PLANS)]
        self.now = 0

    def _ops(self, latch):
        router = self.router
        if latch:
            return router.latch_window_free, router.claim_latch_window
        return router.input_window_free, router.claim_input_window

    def claim(self, latch, direction, offset, count, index):
        window_free, claim_window = self._ops(latch)
        first = self.now + offset
        plan = self.plans[index]
        keys = [(latch, direction, slot)
                for slot in range(first, first + count)]
        if any(key in self.ref for key in keys):
            assert not window_free(direction, first, count)
            with pytest.raises(RuntimeError):
                claim_window(direction, first, count, plan)
            return
        assert window_free(direction, first, count)
        claim_window(direction, first, count, plan)
        for key in keys:
            self.ref[key] = plan

    def tick(self, cycles):
        self.now += cycles

    def cancel(self, index):
        plan = self.plans[index]
        plan.cancel()
        self.ref = {key: owner for key, owner in self.ref.items()
                    if owner is not plan}
        self.plans[index] = new_plan()

    def purge(self):
        self.router._purge(self.now)
        self.ref = {key: plan for key, plan in self.ref.items()
                    if key[2] >= self.now}

    def check(self):
        claimed = {}
        for latch in (True, False):
            claims = (self.router._latch_claims if latch
                      else self.router._input_claims)
            for direction, vector in claims.items():
                for slot, plan in vector.claims():
                    claimed[(latch, direction, slot)] = plan
                # Purged windows are dropped, not kept as dead weight.
                assert all(first + count > vector.base
                           for first, count, _ in vector.windows)
                window_free = self._ops(latch)[0]
                for offset in SPAN:
                    slot = self.now + offset
                    assert window_free(direction, slot, 1) == (
                        (latch, direction, slot) not in self.ref)
        assert claimed == self.ref


@model_settings
@given(claim_operations)
def test_claim_masks_match_dict_model(ops):
    model = ClaimModel()
    for op, *args in ops:
        getattr(model, op)(*args)
        model.check()


def test_claim_window_straddling_the_base_is_voided():
    model = ClaimModel()
    model.claim(True, Direction.EAST, 0, 5, 0)
    model.tick(3)
    model.purge()
    model.check()
    model.cancel(0)
    model.check()
    assert all(not vector.mask and not vector.windows
               for vector in model.router._latch_claims.values())


def test_claim_double_booking_raises():
    model = ClaimModel()
    model.claim(False, Direction.WEST, 2, 3, 0)
    model.claim(False, Direction.WEST, 4, 2, 1)  # overlaps slot 4
    model.claim(False, Direction.EAST, 4, 2, 1)  # other direction: free
    model.check()
