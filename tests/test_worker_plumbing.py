"""Worker-pool plumbing: count validation and budget propagation.

Covers the worker-count validator behind ``REPRO_JOBS`` (bad values
must exit 2 with a clear message, like every other CLI parameter), the
resolved counts recorded in bench reports, and the deliberate
``_cell_wall_limit`` fallback for processes that never ran the pool
initializer.
"""

from __future__ import annotations

import pytest

from repro.harness import runner
from repro.harness.runner import parse_worker_count


def test_parse_worker_count_accepts_literals_and_auto():
    assert parse_worker_count("4", "REPRO_JOBS") == 4
    assert parse_worker_count("1", "REPRO_JOBS") == 1
    # 0 means one worker per CPU.
    assert parse_worker_count("0", "REPRO_JOBS") == (
        runner.os.cpu_count() or 1
    )


@pytest.mark.parametrize("raw", ["banana", "-1", "2.5", "", None])
def test_parse_worker_count_rejects_junk(raw):
    with pytest.raises(ValueError) as excinfo:
        parse_worker_count(raw, "REPRO_JOBS")
    # The message names the knob and echoes the offending value, the
    # same shape NocParams uses for CLI validation errors.
    assert "REPRO_JOBS must be a non-negative integer" in str(excinfo.value)
    assert repr(raw) in str(excinfo.value)


def test_cli_exits_2_on_bad_jobs_env(monkeypatch, capsys):
    from repro.cli import main

    monkeypatch.setenv("REPRO_JOBS", "lots")
    # The grid resolves its worker count before any simulation work,
    # so the bad value fails fast with the standard exit code.
    assert main(["figures", "--only", "fig6"]) == 2
    assert "REPRO_JOBS must be" in capsys.readouterr().err


def test_run_macro_records_resolved_jobs(monkeypatch):
    """The macro report must record the *resolved* worker count (an
    int), not the raw environment string — ``REPRO_JOBS=0`` used to be
    reported as the string ``"0"``."""
    from repro.bench.harness import run_macro
    from repro.harness.runner import EvaluationScale

    tiny = EvaluationScale("tiny", warmup=20, measure=80, num_seeds=1)
    monkeypatch.setenv("REPRO_JOBS", "1")
    macro = run_macro(tiny)
    assert macro["jobs"] == 1
    assert isinstance(macro["jobs"], int)


# -- _cell_wall_limit fallback ---------------------------------------------


@pytest.fixture
def reset_worker_wall_limit():
    original = runner._worker_wall_limit
    yield
    runner._worker_wall_limit = original


def test_wall_limit_initializer_wins(monkeypatch, reset_worker_wall_limit):
    """A budget installed by ``_init_worker`` overrides whatever the
    process environment says, including "no limit"."""
    monkeypatch.setenv("REPRO_WALL_LIMIT", "9.0")
    runner._init_worker(True, True, None, 3.5)
    assert runner._cell_wall_limit() == 3.5
    runner._init_worker(True, True, None, None)
    assert runner._cell_wall_limit() is None


def test_wall_limit_fallback_without_initializer(monkeypatch,
                                                 reset_worker_wall_limit):
    """A process that never ran the initializer (the parent, or a
    worker created outside ``_run_cells``) sees the ``_UNSET`` sentinel
    and deliberately falls back to reading ``REPRO_WALL_LIMIT`` from
    its own environment."""
    runner._worker_wall_limit = runner._UNSET
    monkeypatch.setenv("REPRO_WALL_LIMIT", "7.25")
    assert runner._cell_wall_limit() == 7.25
    monkeypatch.delenv("REPRO_WALL_LIMIT")
    assert runner._cell_wall_limit() is None
    # Junk and non-positive budgets fail loudly (the CLI validates the
    # variable up front, so a worker never gets this far with a bad
    # value; see tests/test_resilience.py for the exit-2 path).
    monkeypatch.setenv("REPRO_WALL_LIMIT", "junk")
    with pytest.raises(ValueError, match="REPRO_WALL_LIMIT must be"):
        runner._cell_wall_limit()
    monkeypatch.setenv("REPRO_WALL_LIMIT", "-1")
    with pytest.raises(ValueError, match="REPRO_WALL_LIMIT must be"):
        runner._cell_wall_limit()
