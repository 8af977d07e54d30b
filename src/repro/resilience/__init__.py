"""Supervised execution of the evaluation grid: retries, quarantine,
graceful degradation.

The evaluation grid (:mod:`repro.harness.runner`) is the simulator's
one parallel shape: with ``REPRO_JOBS`` above 1 it runs cells in real
worker processes, and real worker processes die.  This package
supplies what keeps a sweep alive through those deaths:

* :class:`RetryPolicy` — the knobs (pool rebuilds, quarantine
  threshold, backoff), each with a validated ``REPRO_*`` environment
  variable;
* :class:`ProcessFaultPlan` / :class:`ProcFault` — deterministic
  per-cell fault injection (kill / error) so every recovery path is
  testable;
* :class:`RunReport` / :class:`FailureRecord` — the structured flight
  record the CLI prints on nonzero exit and the bench harness embeds
  in reports; :func:`last_run_report` fetches the most recent one.
"""

from repro.resilience.faults import (
    KILL_EXIT_CODE,
    ProcessFaultError,
    ProcessFaultPlan,
    ProcFault,
)
from repro.resilience.policy import RetryPolicy
from repro.resilience.report import (
    FailureRecord,
    RunReport,
    clear_last_report,
    last_run_report,
    publish,
)

__all__ = [
    "KILL_EXIT_CODE",
    "FailureRecord",
    "ProcFault",
    "ProcessFaultError",
    "ProcessFaultPlan",
    "RetryPolicy",
    "RunReport",
    "clear_last_report",
    "last_run_report",
    "publish",
]
