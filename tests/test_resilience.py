"""Supervised evaluation grid: every recovery path, sample-verified.

The oracle is bit-identical samples: a sweep with a poison cell or a
crashed pool must reproduce the unfaulted samples for every cell it
completes — recovery is only correct if it is invisible in the results.
"""

from __future__ import annotations

import pytest

from repro.harness import runner
from repro.harness.runner import EvaluationScale, evaluation_grid
from repro.params import NocKind
from repro.resilience import (
    ProcFault,
    ProcessFaultPlan,
    RetryPolicy,
    clear_last_report,
    last_run_report,
)

#: No backoff sleeps — the recovery paths themselves are what these
#: tests time-bound, not the waits.
FAST = RetryPolicy(max_retries=2, quarantine_after=2, backoff_base=0.0)


# -- evaluation-grid supervision --------------------------------------------

TINY = EvaluationScale("resilience-tiny", warmup=20, measure=80, num_seeds=1)
WORKLOADS = ("Data Serving", "Web Search")
KINDS = (NocKind.MESH, NocKind.IDEAL)
# Cell order is workload-major: Data/mesh, Data/ideal, Web/mesh, Web/ideal.
POISON_INDEX = 1
POISON_LABEL = "Data Serving/ideal seed 1"


@pytest.fixture(scope="module")
def baseline_grid():
    """The unfaulted samples every fault-injected sweep must reproduce."""
    grid = evaluation_grid(workloads=WORKLOADS, kinds=KINDS, scale=TINY,
                           store=None)
    return {key: sample.to_state() for key, sample in grid.items()}


def test_poison_cell_quarantined_sweep_completes(baseline_grid):
    """A cell failing on every attempt is quarantined after
    ``quarantine_after`` failures; the sweep finishes and every other
    cell is bit-identical to the unfaulted baseline."""
    clear_last_report()
    plan = ProcessFaultPlan(faults=(
        ProcFault(scope="cell", target=POISON_INDEX, action="error",
                  attempt=None),
    ))
    grid = evaluation_grid(workloads=WORKLOADS, kinds=KINDS, scale=TINY,
                           store=None, faults=plan, policy=FAST)
    report = last_run_report()
    assert len(report.quarantined) == 1
    assert report.quarantined[0].target == POISON_LABEL
    assert report.quarantined[0].attempts == FAST.quarantine_after
    assert not report.completed
    # The poisoned key is dropped; the other three cells are intact
    # and bit-identical.
    assert ("Data Serving", NocKind.IDEAL) not in grid
    assert len(grid) == len(baseline_grid) - 1
    for key, sample in grid.items():
        assert sample.to_state() == baseline_grid[key]


def test_transient_cell_failure_retries_to_full_grid(baseline_grid):
    """A cell that fails only on its first attempt recovers on retry:
    one retry recorded, nothing quarantined, full grid, identical."""
    clear_last_report()
    plan = ProcessFaultPlan(faults=(
        ProcFault(scope="cell", target=2, action="error", attempt=0),
    ))
    grid = evaluation_grid(workloads=WORKLOADS, kinds=KINDS, scale=TINY,
                           store=None, faults=plan, policy=FAST)
    report = last_run_report()
    assert report.retries == 1
    assert not report.quarantined
    assert report.completed
    assert {key: s.to_state() for key, s in grid.items()} == baseline_grid


def test_grid_pool_rebuilt_after_worker_death(baseline_grid, monkeypatch):
    """A pool worker dying mid-cell (os._exit — BrokenProcessPool in
    the parent) triggers one pool rebuild; outstanding cells are
    resubmitted and the finished grid matches the baseline exactly."""
    monkeypatch.setenv("REPRO_JOBS", "2")
    clear_last_report()
    plan = ProcessFaultPlan(faults=(
        ProcFault(scope="cell", target=0, action="kill", attempt=0),
    ))
    grid = evaluation_grid(workloads=WORKLOADS, kinds=KINDS, scale=TINY,
                           store=None, faults=plan, policy=FAST)
    report = last_run_report()
    assert report.pool_rebuilds == 1
    assert report.degraded is None
    assert any(f.scope == "pool" and f.kind == "died"
               for f in report.failures)
    assert {key: s.to_state() for key, s in grid.items()} == baseline_grid


def test_parallel_poison_cell_quarantines_exactly_one(baseline_grid,
                                                      monkeypatch):
    """The acceptance scenario: a parallel sweep with one poison cell
    AND one killed worker finishes, quarantines exactly the poison
    cell, and reproduces every other sample bit for bit."""
    monkeypatch.setenv("REPRO_JOBS", "2")
    clear_last_report()
    plan = ProcessFaultPlan(faults=(
        ProcFault(scope="cell", target=POISON_INDEX, action="error",
                  attempt=None),
        ProcFault(scope="cell", target=3, action="kill", attempt=0),
    ))
    grid = evaluation_grid(workloads=WORKLOADS, kinds=KINDS, scale=TINY,
                           store=None, faults=plan, policy=FAST)
    report = last_run_report()
    assert [f.target for f in report.quarantined] == [POISON_LABEL]
    assert report.pool_rebuilds >= 1
    assert ("Data Serving", NocKind.IDEAL) not in grid
    for key, sample in grid.items():
        assert sample.to_state() == baseline_grid[key]


def test_faulted_sweeps_bypass_grid_cache(baseline_grid):
    """A fault-injected sweep must neither read nor seed the in-process
    grid cache: a clean sweep right after a poisoned one sees every
    cell again."""
    plan = ProcessFaultPlan(faults=(
        ProcFault(scope="cell", target=POISON_INDEX, action="error",
                  attempt=None),
    ))
    poisoned = evaluation_grid(workloads=WORKLOADS, kinds=KINDS, scale=TINY,
                               store=None, faults=plan, policy=FAST)
    assert len(poisoned) == len(baseline_grid) - 1
    clean = evaluation_grid(workloads=WORKLOADS, kinds=KINDS, scale=TINY,
                            store=None)
    assert {key: s.to_state() for key, s in clean.items()} == baseline_grid


def test_streaming_puts_survive_mid_sweep_crash(tmp_path, monkeypatch):
    """Finished cells stream into the store as they complete, so a
    crash mid-sweep (here: a KeyboardInterrupt after two cells) keeps
    the work already done."""
    from repro.checkpoint.store import CellStore

    store = CellStore(str(tmp_path / "cells"))
    real = runner._simulate_cell
    done = []

    def flaky(cell):
        if len(done) == 2:
            raise KeyboardInterrupt
        sample = real(cell)
        done.append(cell)
        return sample

    monkeypatch.setattr(runner, "_simulate_cell", flaky)
    scale = EvaluationScale("resilience-stream", warmup=20, measure=80,
                            num_seeds=1)
    with pytest.raises(KeyboardInterrupt):
        evaluation_grid(workloads=WORKLOADS, kinds=KINDS, scale=scale,
                        store=store, policy=FAST)
    assert len(store) == 2
    # The persisted cells resume a rerun: only the missing ones run.
    monkeypatch.setattr(runner, "_simulate_cell", real)
    grid = evaluation_grid(workloads=WORKLOADS, kinds=KINDS, scale=scale,
                           store=store, policy=FAST)
    assert len(grid) == len(WORKLOADS) * len(KINDS)
    assert len(store) == len(WORKLOADS) * len(KINDS)


# -- policy and plan validation ---------------------------------------------


def test_retry_policy_from_env(monkeypatch):
    for var in ("REPRO_MAX_RETRIES", "REPRO_QUARANTINE_AFTER",
                "REPRO_RETRY_BACKOFF"):
        monkeypatch.delenv(var, raising=False)
    assert RetryPolicy.from_env() == RetryPolicy()
    monkeypatch.setenv("REPRO_MAX_RETRIES", "5")
    monkeypatch.setenv("REPRO_QUARANTINE_AFTER", "1")
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
    policy = RetryPolicy.from_env()
    assert policy == RetryPolicy(max_retries=5, quarantine_after=1,
                                 backoff_base=0.0)


@pytest.mark.parametrize("var,raw,match", [
    ("REPRO_MAX_RETRIES", "-1", "REPRO_MAX_RETRIES must be"),
    ("REPRO_MAX_RETRIES", "two", "REPRO_MAX_RETRIES must be"),
    ("REPRO_QUARANTINE_AFTER", "0", "REPRO_QUARANTINE_AFTER must be"),
    ("REPRO_RETRY_BACKOFF", "-0.1", "REPRO_RETRY_BACKOFF must be"),
])
def test_retry_policy_env_validation(monkeypatch, var, raw, match):
    monkeypatch.setenv(var, raw)
    with pytest.raises(ValueError, match=match):
        RetryPolicy.from_env()


def test_retry_policy_backoff_and_barriers():
    policy = RetryPolicy(backoff_base=0.05)
    assert policy.backoff(1) == 0.05
    assert policy.backoff(3) == 0.2
    assert policy.backoff(0) == 0.0
    with pytest.raises(ValueError, match="max_retries"):
        RetryPolicy(max_retries=-1)


def test_proc_fault_validation():
    with pytest.raises(ValueError, match="scope must be"):
        ProcFault(scope="node", target=0, action="kill")
    with pytest.raises(ValueError, match="cell faults support"):
        ProcFault(scope="cell", target=0, action="hang")
    with pytest.raises(ValueError, match="target must be"):
        ProcFault(scope="cell", target=-1, action="kill")


def test_fault_plan_cell_lookup_and_random():
    plan = ProcessFaultPlan(faults=(
        ProcFault(scope="cell", target=2, action="error", attempt=None),
        ProcFault(scope="cell", target=3, action="kill", attempt=1),
    ))
    assert plan.cell_action(2, 0) == "error"
    assert plan.cell_action(2, 7) == "error"
    assert plan.cell_action(3, 1) == "kill"
    assert plan.cell_action(3, 0) is None
    assert plan.cell_action(0, 0) is None


# -- REPRO_WALL_LIMIT validation (satellite) --------------------------------


@pytest.mark.parametrize("raw", ["junk", "-1", "0"])
def test_wall_limit_rejects_junk(monkeypatch, raw):
    monkeypatch.setenv("REPRO_WALL_LIMIT", raw)
    with pytest.raises(ValueError, match="REPRO_WALL_LIMIT must be"):
        runner._wall_limit()


def test_wall_limit_unset_or_valid(monkeypatch):
    monkeypatch.delenv("REPRO_WALL_LIMIT", raising=False)
    assert runner._wall_limit() is None
    monkeypatch.setenv("REPRO_WALL_LIMIT", "")
    assert runner._wall_limit() is None
    monkeypatch.setenv("REPRO_WALL_LIMIT", "7.25")
    assert runner._wall_limit() == 7.25


def test_cli_exits_2_on_bad_wall_limit(monkeypatch, capsys):
    from repro.cli import main

    # Validation fails fast, before any simulation work starts.
    monkeypatch.setenv("REPRO_WALL_LIMIT", "fast")
    assert main(["bench", "--no-macro"]) == 2
    assert "REPRO_WALL_LIMIT must be" in capsys.readouterr().err
