"""Tests for the self-measuring benchmark harness (`repro.bench`)."""

from __future__ import annotations

import json

import pytest

from repro.bench import compare_reports, run_bench, write_report
from repro.bench.harness import SCHEMA_VERSION
from repro.harness.runner import ALL_KINDS, EvaluationScale

#: A deliberately tiny scale so the suite times real simulations
#: without dominating the test run.
TINY = EvaluationScale("tiny", warmup=20, measure=80, num_seeds=1)


def _fake_report(cps_by_org, calibration=10.0):
    return {
        "schema": SCHEMA_VERSION,
        "stamp": "19700101T000000Z",
        "git_rev": "deadbee",
        "scale": "smoke",
        "machine": {"calibration_mips": calibration},
        "micro": {
            org: {"cycles": 1800, "wall_s": 1.0, "cycles_per_sec": cps}
            for org, cps in cps_by_org.items()
        },
        "total_wall_s": 1.0,
    }


def _write(tmp_path, name, report):
    path = tmp_path / name
    path.write_text(json.dumps(report))
    return str(path)


def test_run_bench_produces_complete_report(tmp_path):
    report = run_bench(TINY, repeat=1, include_macro=False)
    assert report["schema"] == SCHEMA_VERSION
    assert report["scale"] == "tiny"
    orgs = {k.value for k in ALL_KINDS}
    contested = {"mesh@contested", "smart@contested",
                 "mesh+pra@contested", "chiplet@contested"}
    assert set(report["micro"]) == (
        orgs | {f"{org}@low" for org in orgs} | contested
    )
    for key in contested:
        cell = report["micro"][key]
        assert cell["wall_s"] > 0
        assert cell["stepped_cycles_per_sec"] > 0
        assert len(cell["digest"]) == 64
    for org in orgs:
        cell = report["micro"][org]
        assert cell["cycles"] == TINY.warmup + TINY.measure
        assert cell["wall_s"] > 0
        assert cell["cycles_per_sec"] > 0
        assert cell["cycles_skipped"] >= 0
    for org in orgs:
        cell = report["micro"][f"{org}@low"]
        assert cell["wall_s"] > 0
        assert cell["cycles_per_sec"] > 0
        # The ping-pong scenario is mostly idle: the horizon must have
        # fast-forwarded real spans, and the digest pins the results.
        assert cell["cycles_skipped"] > 0
        assert len(cell["digest"]) == 64
    assert report["pools"]["packets_acquired"] > 0
    assert report["machine"]["calibration_mips"] > 0
    path = write_report(report, out=str(tmp_path / "BENCH_test.json"))
    assert json.loads(open(path).read()) == report


def test_compare_reports_computes_deltas(tmp_path):
    a = _write(tmp_path, "a.json", _fake_report({"mesh": 1000.0}))
    b = _write(tmp_path, "b.json", _fake_report({"mesh": 1500.0}))
    rows, failed = compare_reports(a, b)
    assert not failed
    assert len(rows) == 1
    assert rows[0]["org"] == "mesh"
    assert rows[0]["raw_delta"] == pytest.approx(0.5)
    assert rows[0]["norm_delta"] == pytest.approx(0.5)


def test_compare_flags_true_regression(tmp_path):
    a = _write(tmp_path, "a.json", _fake_report({"mesh": 1000.0}))
    b = _write(tmp_path, "b.json", _fake_report({"mesh": 500.0}))
    rows, failed = compare_reports(a, b, fail_threshold=0.30)
    assert failed and rows[0]["regressed"]


def test_compare_forgives_slower_machine(tmp_path):
    # Half the throughput on a machine with half the calibration score
    # is not a simulator regression.
    a = _write(tmp_path, "a.json",
               _fake_report({"mesh": 1000.0}, calibration=10.0))
    b = _write(tmp_path, "b.json",
               _fake_report({"mesh": 500.0}, calibration=5.0))
    rows, failed = compare_reports(a, b, fail_threshold=0.30)
    assert not failed
    assert rows[0]["raw_delta"] == pytest.approx(-0.5)
    assert rows[0]["norm_delta"] == pytest.approx(0.0)


def test_compare_forgives_calibration_noise(tmp_path):
    # Unchanged raw throughput with a noisy calibration reading must
    # not fail the gate either (the gate needs both deltas to regress).
    a = _write(tmp_path, "a.json",
               _fake_report({"mesh": 1000.0}, calibration=10.0))
    b = _write(tmp_path, "b.json",
               _fake_report({"mesh": 1000.0}, calibration=20.0))
    rows, failed = compare_reports(a, b, fail_threshold=0.30)
    assert not failed
    assert rows[0]["norm_delta"] == pytest.approx(-0.5)


def test_compare_rejects_unknown_schema(tmp_path):
    report = _fake_report({"mesh": 1000.0})
    report["schema"] = 999
    a = _write(tmp_path, "a.json", report)
    with pytest.raises(ValueError, match="unsupported bench schema"):
        compare_reports(a, a)


def test_num_jobs_env_handling(monkeypatch):
    from repro.harness import runner

    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert runner._num_jobs() == 1
    monkeypatch.setenv("REPRO_JOBS", "4")
    assert runner._num_jobs() == 4
    monkeypatch.setenv("REPRO_JOBS", "0")  # auto: one worker per CPU
    assert runner._num_jobs() == (runner.os.cpu_count() or 1)
    # Invalid values used to be swallowed into a silent default of 1;
    # they now fail loudly with the shared worker-count message (the
    # CLI turns this into exit 2, see tests/test_worker_plumbing.py).
    monkeypatch.setenv("REPRO_JOBS", "not-a-number")
    with pytest.raises(ValueError, match="REPRO_JOBS must be"):
        runner._num_jobs()


def test_cli_compare_exit_codes(tmp_path, capsys):
    from repro.cli import main

    a = _write(tmp_path, "a.json", _fake_report({"mesh": 1000.0}))
    b = _write(tmp_path, "b.json", _fake_report({"mesh": 400.0}))
    assert main(["bench", "--compare", a, b]) == 0  # no threshold: report only
    assert main(["bench", "--compare", a, b, "--fail-threshold", "0.3"]) == 1
    out = capsys.readouterr().out
    assert "REGRESSED" in out
