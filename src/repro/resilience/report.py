"""Structured outcomes of supervised grid sweeps.

A :class:`RunReport` is the supervised grid's flight record: every
failure it saw, every recovery it performed, every cell it gave up on.
The CLI prints it on nonzero exit, the bench harness embeds its
counters in reports, and ``publish`` mirrors the counters onto the
module-wide ``grid_stats`` object so they appear in
``NetworkStats.summary()`` alongside the grid-cache counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class FailureRecord:
    """One observed failure, diagnosed and attributed."""

    #: What failed: ``"cell"`` (one evaluation-grid cell) or ``"pool"``
    #: (a whole grid worker pool).
    scope: str
    #: Human-readable identity, e.g. ``"Web Search/mesh seed 1"``.
    target: str
    #: Diagnosis: ``"died"`` (worker process gone) or ``"error"``
    #: (the cell raised).
    kind: str
    #: Failures of this target so far (1-based at first failure).
    attempts: int
    detail: str = ""

    def render(self) -> str:
        text = f"{self.scope} {self.target}: {self.kind} " \
               f"(attempt {self.attempts})"
        if self.detail:
            first = self.detail.strip().splitlines()[0]
            text += f" — {first}"
        return text


@dataclass
class RunReport:
    """Everything the supervised grid did to keep one sweep alive."""

    backend: str
    #: Recovery attempts (each one retried work that had failed).
    retries: int = 0
    #: Evaluation-grid worker pools rebuilt after a crash.
    pool_rebuilds: int = 0
    #: Every failure observed, in order (recovered ones included).
    failures: List[FailureRecord] = field(default_factory=list)
    #: Poison cells abandoned after ``quarantine_after`` failures.
    quarantined: List[FailureRecord] = field(default_factory=list)
    #: Set when pool rebuilds exhausted and the sweep continued in a
    #: degraded mode (serial in-parent execution).
    degraded: Optional[str] = None

    @property
    def clean(self) -> bool:
        """True when the run needed no recovery at all."""
        return not self.failures and not self.quarantined \
            and self.degraded is None

    @property
    def completed(self) -> bool:
        """True when the run produced a full result (possibly degraded,
        but with nothing quarantined)."""
        return not self.quarantined

    def record_failure(self, record: FailureRecord) -> None:
        self.failures.append(record)

    def to_dict(self) -> dict:
        return {
            "backend": self.backend,
            "retries": self.retries,
            "pool_rebuilds": self.pool_rebuilds,
            "failures": len(self.failures),
            "quarantined": [f.render() for f in self.quarantined],
            "degraded": self.degraded,
        }

    def render(self) -> str:
        lines = [f"run report ({self.backend} backend):"]
        lines.append(
            f"  failures observed:   {len(self.failures)}"
            f"  (retries {self.retries}, pool rebuilds {self.pool_rebuilds})"
        )
        if self.degraded:
            lines.append(f"  degraded:            {self.degraded}")
        if self.quarantined:
            lines.append(f"  quarantined ({len(self.quarantined)}):")
            for record in self.quarantined:
                lines.append(f"    - {record.render()}")
        for record in self.failures:
            lines.append(f"  failure: {record.render()}")
        if self.clean:
            lines.append("  no failures; no recovery needed")
        return "\n".join(lines)


#: The most recent supervised grid sweep's report;
#: the CLI reads this to print diagnostics on nonzero exit.
_LAST_REPORT: Optional[RunReport] = None


def publish(report: RunReport) -> None:
    """Record ``report`` as the latest and mirror its counters onto the
    process-wide ``grid_stats`` object (so retry/rebuild/quarantine
    totals show up in ``NetworkStats.summary()``)."""
    global _LAST_REPORT
    _LAST_REPORT = report
    # Imported lazily: repro.harness.runner imports this module.
    from repro.harness.runner import grid_stats

    grid_stats.worker_retries += report.retries
    grid_stats.pool_rebuilds += report.pool_rebuilds
    grid_stats.cells_quarantined += len(report.quarantined)


def last_run_report() -> Optional[RunReport]:
    return _LAST_REPORT


def clear_last_report() -> None:
    """Forget the latest report (tests use this for isolation)."""
    global _LAST_REPORT
    _LAST_REPORT = None
