"""Process-level fault injection: kill or fail a grid worker on command.

The chaos harness (:mod:`repro.faults`) stresses the *simulated*
network; this module stresses the *simulator* — evaluation-grid cells
die or raise exactly where a :class:`ProcessFaultPlan` says, so every
recovery path of the supervised grid is deterministically testable.
Like :class:`repro.faults.FaultSchedule`, a plan is a frozen value
object: the same plan against the same sweep reproduces the same
failures bit for bit.

Faults have one scope, ``"cell"``: they fire inside an evaluation-grid
worker running cell ``target`` on attempt ``attempt`` (``None`` = every
attempt, the poison-cell shape).

Actions: ``"kill"`` (``os._exit(KILL_EXIT_CODE)`` — models the OOM
killer; downgraded to an exception when the cell runs in the parent
process) and ``"error"`` (raise :class:`ProcessFaultError`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

#: Exit code of a fault-injected worker kill (recognizable in reports).
KILL_EXIT_CODE = 113

_CELL_ACTIONS = ("kill", "error")


class ProcessFaultError(RuntimeError):
    """An injected (or parent-downgraded) process fault."""


@dataclass(frozen=True)
class ProcFault:
    """One planned process failure."""

    scope: str          # "cell"
    target: int         # cell index
    action: str         # see module docstring
    #: Which attempt fails (0 = the first; ``None`` = every attempt —
    #: a poison cell).
    attempt: Optional[int] = 0

    def __post_init__(self):
        if self.scope != "cell":
            raise ValueError(f"scope must be 'cell', got {self.scope!r}")
        if self.action not in _CELL_ACTIONS:
            raise ValueError(
                f"cell faults support actions {_CELL_ACTIONS}, "
                f"got {self.action!r}"
            )
        if self.target < 0:
            raise ValueError(f"target must be >= 0, got {self.target}")


@dataclass(frozen=True)
class ProcessFaultPlan:
    """A reproducible description of every cell that will misbehave."""

    faults: Tuple[ProcFault, ...] = ()

    def cell_action(self, index: int, attempt: int) -> Optional[str]:
        """Action for evaluation-grid cell ``index`` on ``attempt``."""
        for fault in self.faults:
            if fault.target != index:
                continue
            if fault.attempt is None or fault.attempt == attempt:
                return fault.action
        return None
