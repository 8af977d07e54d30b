"""Per-output-port reservation tables and per-input claim vectors: the
paper's bit vectors.

Figure 4 of the paper attaches to every output port a set of bit vectors
holding, for several future timeslots, whether the slot is proactively
allocated (*Valid*), which input port and VC the packet comes from
(*Input Select*, *Local VC Select*), and which downstream VC it goes to
(*Downstream VC Select*), shifting left one slot per cycle.

We keep the *Valid* vector literally: one Python int per resource, bit
``i`` standing for slot ``base + i``.  A control packet checks a whole
window of a packet's flits with one AND (:meth:`SlotVector.window_free`)
and commits it with one OR.  The shift-left is the router's periodic
purge, which drops the bits of past slots and moves ``base`` up to the
current cycle (:meth:`SlotVector.rebase`).

* :class:`ReservationTable` — one per output port.  Next to its mask it
  keeps the select fields as a ``slot -> (plan, step, is_driver)``
  record (the flit expected in a slot is ``slot - step.slot``), which
  the PRA arbiter pops at that slot.  It keeps its router's count of
  pending slots, so the router knows in O(1) whether it must stay awake.
* :class:`ClaimVector` — the crossbar-input or latch occupancy of one
  input direction of a router, with the claimed windows for refunds,
  snapshots and the leak audits.  Claims age out at the purge.

Every window placed for a plan is recorded on the plan as ``(vector,
first_slot, count)``; ``PraPlan.cancel`` voids them all eagerly, freeing
their slots at once.  Double-booking a slot raises.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.plan import PlanStep, PraPlan


class SlotVector:
    """Occupancy bit vector over timeslots: bit ``i`` is ``base + i``."""

    __slots__ = ("base", "mask")

    def __init__(self):
        self.base = 0
        self.mask = 0

    def __len__(self) -> int:
        return bin(self.mask).count("1")

    def _bits(self, first_slot: int, count: int) -> int:
        """The mask of ``count`` slots from ``first_slot``, clipped to
        the slots at or after ``base`` (earlier ones were purged)."""
        shift = first_slot - self.base
        if shift < 0:
            count += shift
            if count <= 0:
                return 0
            shift = 0
        return ((1 << count) - 1) << shift

    def window_free(self, first_slot: int, count: int) -> bool:
        """True when ``count`` consecutive slots are all free."""
        shift = first_slot - self.base
        if shift >= 0:
            return not self.mask >> shift & ((1 << count) - 1)
        return not self.mask & self._bits(first_slot, count)

    def _place(self, first_slot: int, count: int) -> None:
        """Set the bits of a window, moving ``base`` down to
        ``first_slot`` if needed (or onto it when the vector is empty,
        which keeps the mask short across idle spans).  Raises when a
        slot of the window is already taken."""
        shift = first_slot - self.base
        if shift < 0 or not self.mask:
            if shift < 0:
                self.mask <<= -shift
            self.base = first_slot
            shift = 0
        bits = ((1 << count) - 1) << shift
        if self.mask & bits:
            raise RuntimeError("double-booked slot")
        self.mask |= bits

    def rebase(self, now: int) -> int:
        """Shift left to ``now``: drop the bits of slots before it and
        return them (relative to the old base)."""
        shift = now - self.base
        if shift <= 0:
            return 0
        stale = self.mask & ((1 << shift) - 1)
        self.mask >>= shift
        self.base = now
        return stale


class ReservationTable(SlotVector):
    """Future-timeslot allocations of a single output port."""

    __slots__ = ("horizon", "router", "records")

    def __init__(self, horizon: int, router):
        super().__init__()
        self.horizon = horizon
        #: Owner of the ``pending_slots`` counter this table keeps.
        self.router = router
        #: slot -> (plan, step, is_driver).  ``is_driver`` is True at the
        #: router that reads the flit and drives the (multi-hop)
        #: traversal, False at a bypassed router, whose slot only pins
        #: its crossbar and output link.
        self.records: Dict[int, Tuple["PraPlan", "PlanStep", bool]] = {}

    def within_horizon(self, now: int, first_slot: int, count: int) -> bool:
        return first_slot + count - 1 <= now + self.horizon

    def reserve_window(self, first_slot: int, count: int, plan: "PraPlan",
                       step: "PlanStep", is_driver: bool) -> None:
        """Allocate ``count`` slots from ``first_slot`` to ``plan``'s
        ``step``."""
        self._place(first_slot, count)
        records = self.records
        record = (plan, step, is_driver)
        for slot in range(first_slot, first_slot + count):
            records[slot] = record
        self.router.pending_slots += count
        plan.windows.append((self, first_slot, count))

    def pop(self, slot: int):
        """Remove and return the ``(plan, step, is_driver)`` record for
        ``slot``, or None."""
        record = self.records.pop(slot, None)
        if record is not None:
            self.mask ^= 1 << (slot - self.base)
            self.router.pending_slots -= 1
        return record

    def void(self, first_slot: int, count: int, plan: "PraPlan") -> None:
        """Clear ``plan``'s remaining slots of a window (plan cancelled);
        slots already executed or purged are skipped."""
        records = self.records
        for slot in range(first_slot, first_slot + count):
            record = records.get(slot)
            if record is not None and record[0] is plan:
                del records[slot]
                self.mask ^= 1 << (slot - self.base)
                self.router.pending_slots -= 1

    def purge_before(self, now: int) -> None:
        """Drop slots before ``now`` (shift-left of the bit vectors)."""
        base = self.base
        stale = self.rebase(now)
        while stale:
            low = stale & -stale
            del self.records[base + low.bit_length() - 1]
            self.router.pending_slots -= 1
            stale ^= low

    # -- checkpointing ---------------------------------------------------

    def state_dict(self, ctx) -> dict:
        """Occupied slots in slot order, one cell each."""
        cells = []
        for slot in sorted(self.records):
            plan, step, is_driver = self.records[slot]
            # Identity index: PlanStep is a value-comparing dataclass,
            # so ``steps.index(step)`` could match a twin step.
            step_index = next(
                i for i, other in enumerate(plan.steps) if other is step
            )
            cells.append([slot, ctx.plan_ref(plan), step_index,
                          slot - step.slot, is_driver])
        return {"cells": cells}

    def load_state(self, state: dict, ctx) -> None:
        self.router.pending_slots -= len(self.records)
        self.records = {}
        self.mask = 0
        for slot, plan_ref, step_index, _, is_driver in state["cells"]:
            plan = ctx.plan(plan_ref)
            # ``reserve_window`` re-registers the window on the plan,
            # rebuilding its refund list as a side effect.
            self.reserve_window(slot, 1, plan, plan.steps[step_index],
                                is_driver)


class ClaimVector(SlotVector):
    """Crossbar-input or latch claims of one input direction."""

    __slots__ = ("windows",)

    def __init__(self):
        super().__init__()
        #: Claimed windows in claim order: (first_slot, count, plan).
        self.windows: List[Tuple[int, int, "PraPlan"]] = []

    def claim_window(self, first_slot: int, count: int,
                     plan: "PraPlan") -> None:
        self._place(first_slot, count)
        self.windows.append((first_slot, count, plan))
        plan.windows.append((self, first_slot, count))

    def void(self, first_slot: int, count: int, plan: "PraPlan") -> None:
        """Release ``plan``'s window (plan cancelled)."""
        windows = self.windows
        for i, (slot, _, owner) in enumerate(windows):
            if owner is plan and slot == first_slot:
                del windows[i]
                self.mask &= ~self._bits(first_slot, count)
                return

    def purge_before(self, now: int) -> None:
        # Only a window with a slot before ``now`` can end before it.
        if self.rebase(now):
            self.windows = [window for window in self.windows
                            if window[0] + window[1] > now]

    def claims(self) -> Iterator[Tuple[int, "PraPlan"]]:
        """``(slot, plan)`` for every claimed slot not yet purged, in
        claim order."""
        base = self.base
        for first_slot, count, plan in self.windows:
            for slot in range(max(first_slot, base), first_slot + count):
                yield slot, plan
