"""Retry/backoff/quarantine knobs for the supervised evaluation grid.

A :class:`RetryPolicy` is a frozen value object, so the same policy
drives a sweep identically wherever it is built — in the parent, in a
rebuilt pool, or in a test.  Every knob has an environment variable
(validated the way ``parse_worker_count`` validates ``REPRO_JOBS``: a
clear :class:`ValueError` naming the knob, which the CLI turns into a
clean exit 2) so long sweeps can be hardened without touching code:

==========================  =============================================
``REPRO_MAX_RETRIES``       grid pool rebuilds before the sweep degrades
                            to in-parent execution
``REPRO_QUARANTINE_AFTER``  failures of one evaluation-grid cell before
                            it is quarantined as a poison cell
``REPRO_RETRY_BACKOFF``     base seconds of the exponential backoff
                            slept between recovery attempts
==========================  =============================================
"""

from __future__ import annotations

import os
from dataclasses import dataclass


def _parse_int(raw: str, source: str, minimum: int) -> int:
    try:
        value = int(raw)
    except (TypeError, ValueError):
        raise ValueError(
            f"{source} must be an integer >= {minimum}, got {raw!r}"
        ) from None
    if value < minimum:
        raise ValueError(
            f"{source} must be an integer >= {minimum}, got {raw!r}"
        )
    return value


def _parse_seconds(raw: str, source: str, minimum: float) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ValueError(
            f"{source} must be a number of seconds >= {minimum}, "
            f"got {raw!r}"
        ) from None
    if value < minimum:
        raise ValueError(
            f"{source} must be a number of seconds >= {minimum}, "
            f"got {raw!r}"
        )
    return value


@dataclass(frozen=True)
class RetryPolicy:
    """How hard the supervised grid tries before giving ground."""

    #: Grid pool rebuilds per sweep before degrading to in-parent
    #: execution.
    max_retries: int = 2
    #: Failures of a single evaluation-grid cell before it is recorded
    #: as a poison cell and the sweep moves on without it.
    quarantine_after: int = 3
    #: Base of the exponential backoff: attempt ``k`` (1-based) sleeps
    #: ``backoff_base * 2**(k-1)`` seconds.  Zero disables sleeping
    #: (tests use this to keep recovery paths fast).
    backoff_base: float = 0.05

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.quarantine_after < 1:
            raise ValueError(
                f"quarantine_after must be >= 1, "
                f"got {self.quarantine_after}"
            )
        if self.backoff_base < 0:
            raise ValueError(
                f"backoff_base must be >= 0, got {self.backoff_base}"
            )

    def backoff(self, attempt: int) -> float:
        """Seconds to sleep before recovery attempt ``attempt`` (1-based)."""
        if attempt < 1:
            return 0.0
        return self.backoff_base * (2 ** (attempt - 1))

    @classmethod
    def from_env(cls) -> "RetryPolicy":
        """Build a policy from the ``REPRO_*`` environment knobs."""
        kwargs = {}
        raw = os.environ.get("REPRO_MAX_RETRIES")
        if raw is not None:
            kwargs["max_retries"] = _parse_int(raw, "REPRO_MAX_RETRIES", 0)
        raw = os.environ.get("REPRO_QUARANTINE_AFTER")
        if raw is not None:
            kwargs["quarantine_after"] = _parse_int(
                raw, "REPRO_QUARANTINE_AFTER", 1
            )
        raw = os.environ.get("REPRO_RETRY_BACKOFF")
        if raw is not None:
            kwargs["backoff_base"] = _parse_seconds(
                raw, "REPRO_RETRY_BACKOFF", 0.0
            )
        return cls(**kwargs)
