"""The benchmark suite: pinned workloads, reports, and comparisons.

Every measurement in a report is wall-clock based, so two reports are
only directly comparable on the same machine.  To keep cross-machine
comparisons (CI runners, laptops) meaningful, each report embeds a
*calibration score* — the throughput of a fixed pure-Python loop on the
measuring host — and :func:`compare_reports` scores regressions on
calibration-normalized throughput when both reports carry a score.
"""

from __future__ import annotations

import cProfile
import hashlib
import io
import json
import os
import platform
import pstats
import subprocess
import time
from typing import Dict, List, Optional, Tuple

from repro.harness.runner import (
    ALL_KINDS,
    EvaluationScale,
    _num_jobs,
    clear_grid_cache,
    evaluation_grid,
    get_scale,
    grid_stats,
)
from repro.noc.network import build_network
from repro.noc.packet import packet_pool, pool_summary, reset_packet_ids
from repro.params import MessageClass, NocKind, NocParams
from repro.perf.system import SystemSimulator

#: Report format version (bump on incompatible layout changes).
SCHEMA_VERSION = 1

#: The pinned micro-benchmark configuration.  Changing any of these
#: invalidates comparisons against older reports, so don't.
MICRO_WORKLOAD = "Web Search"
MICRO_SEED = 5

#: Iterations of the calibration loop (~0.1 s on a 2020s-era core).
_CALIBRATION_ITERS = 2_000_000


def calibrate(rounds: int = 5) -> float:
    """Millions of iterations/second of a fixed arithmetic loop.

    A crude single-core Python speed score: the loop exercises integer
    arithmetic and attribute-free name lookups, which is roughly what
    the simulator's hot path is made of.  Best-of-``rounds`` to shed
    scheduler noise.
    """
    best = 0.0
    for _ in range(rounds):
        acc = 0
        start = time.perf_counter()
        for i in range(_CALIBRATION_ITERS):
            acc += i & 7
        elapsed = time.perf_counter() - start
        best = max(best, _CALIBRATION_ITERS / elapsed / 1e6)
    return best


def machine_info() -> Dict[str, object]:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "calibration_mips": round(calibrate(), 2),
    }


def git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


# -- micro: cycles/second per organization --------------------------------


def _time_micro_cell(
    kind: NocKind, scale: EvaluationScale
) -> Tuple[int, float, int]:
    """(simulated cycles, wall seconds, cycles skipped) of one pinned
    full-system run."""
    sim = SystemSimulator(MICRO_WORKLOAD, kind, seed=MICRO_SEED)
    cycles = scale.warmup + scale.measure
    start = time.perf_counter()
    sim.run_sample(warmup=scale.warmup, measure=scale.measure)
    wall = time.perf_counter() - start
    return cycles, wall, sim.chip.network.cycles_skipped


#: Low-injection scenario: closed-loop ping-pong pairs on an 8x8
#: network.  Each delivery schedules the reply ``_LOW_GAP`` cycles
#: later, so the network sits idle for long deterministic spans — the
#: traffic shape the event-horizon skip (docs/performance.md) targets.
#: No RNG is involved anywhere, so the stats digest recorded in the
#: report doubles as a skip-equivalence oracle (CI runs the suite with
#: and without ``--no-time-skip`` and asserts the digests match).
#: Gap length matters: activity-based stepping already makes an idle
#: cycle cost ~0.2us, so short gaps leave nothing to win — the paper
#: case is a server NoC at a few percent utilization, i.e. long gaps.
_LOW_PAIRS = ((0, 63), (7, 56), (27, 36), (18, 45))
_LOW_GAP = 2000
_LOW_CYCLES = 60000


def _time_low_cell(kind: NocKind) -> dict:
    net = build_network(NocParams(kind=kind, mesh_width=8, mesh_height=8))

    def send(src: int, dst: int) -> None:
        net.send(packet_pool.acquire(src, dst, MessageClass.REQUEST,
                                     created=net.cycle))

    def on_delivery(packet, now: int) -> None:
        if now + _LOW_GAP < _LOW_CYCLES:
            net.schedule_call(now + _LOW_GAP, send, packet.dst, packet.src)

    net.on_delivery(on_delivery)
    for src, dst in _LOW_PAIRS:
        send(src, dst)
    start = time.perf_counter()
    net.run(_LOW_CYCLES)
    net.drain(max_cycles=20000)
    wall = time.perf_counter() - start
    digest = hashlib.sha256(
        json.dumps(net.stats.summary(), sort_keys=True).encode()
    ).hexdigest()
    return {
        "cycles": net.cycle,
        "wall_s": wall,
        "cycles_skipped": net.cycles_skipped,
        "digest": digest,
    }


#: Contested-load scenario (hot-path engine v3): open-loop uniform
#: random traffic at ~0.7 of XY saturation on an 8x8 network (the
#: chiplet cell runs a 2x2 grid of 4x4 chiplets at a matching relative
#: load).  Almost every cycle has work, so the event-horizon skip wins
#: nothing and the measurement isolates the stepped hot path: router
#: allocation, flit movement, and event dispatch —
#: ``stepped_cycles_per_sec`` is the number to watch.  The traffic is
#: seeded, so the recorded stats digest doubles as a fast-path
#: equivalence oracle: CI reruns these cells under
#: ``REPRO_NO_FASTPATH=1`` and asserts the digests match bit for bit.
_CONTESTED_RATE = 0.08
_CONTESTED_CHIPLET_RATE = 0.02
_CONTESTED_CYCLES = 3000
_CONTESTED_SEED = 11
_CONTESTED_DRAIN = 200_000
_CONTESTED_CELLS = (
    ("mesh@contested", NocKind.MESH, None),
    ("smart@contested", NocKind.SMART, None),
    ("mesh+pra@contested", NocKind.MESH_PRA, None),
    ("chiplet@contested", NocKind.MESH, "chiplet:2x2x4x4"),
)


def _time_contested_cell(kind: NocKind, topology: Optional[str]) -> dict:
    from repro.workloads.synthetic import SyntheticTraffic, TrafficPattern

    if topology is None:
        params = NocParams(kind=kind, mesh_width=8, mesh_height=8)
        rate = _CONTESTED_RATE
    else:
        params = NocParams(kind=kind, topology=topology)
        rate = _CONTESTED_CHIPLET_RATE
    reset_packet_ids()
    net = build_network(params)
    traffic = SyntheticTraffic(net, TrafficPattern.UNIFORM_RANDOM, rate,
                               seed=_CONTESTED_SEED)
    start = time.perf_counter()
    traffic.run(_CONTESTED_CYCLES)
    net.drain(max_cycles=_CONTESTED_DRAIN)
    wall = time.perf_counter() - start
    digest = hashlib.sha256(
        json.dumps(net.stats.summary(), sort_keys=True).encode()
    ).hexdigest()
    return {
        "cycles": net.cycle,
        "wall_s": wall,
        "cycles_skipped": net.cycles_skipped,
        "digest": digest,
    }


def _finish_cell(cell: dict) -> dict:
    """Derive the throughput metrics every micro cell reports.

    ``stepped_cycles_per_sec`` divides only the cycles that were
    actually stepped (not fast-forwarded by the event horizon) by the
    wall time — the honest hot-path number.  For the ``@low`` cells the
    raw ``cycles_per_sec`` stays the headline (skipping *is* the
    optimization being measured there); for the ``@contested`` cells
    the two are nearly equal by construction.
    """
    wall = cell["wall_s"]
    stepped = cell["cycles"] - cell.get("cycles_skipped", 0)
    cell["cycles_per_sec"] = round(cell["cycles"] / wall, 1)
    cell["stepped_cycles_per_sec"] = round(stepped / wall, 1)
    cell["wall_s"] = round(wall, 4)
    return cell


def run_micro(scale: EvaluationScale, repeat: int = 2) -> Dict[str, dict]:
    """Best-of-``repeat`` cycles/second for each organization.

    Three cells per organization: the pinned full-system run (keyed by
    the organization name, as in every historical report), the pinned
    low-injection ping-pong scenario (keyed ``<org>@low``), and — for
    the router-heavy organizations — the pinned contested-load scenario
    (keyed ``<org>@contested``).  ``compare_reports`` skips keys absent
    from either side, so reports predating a cell family remain
    comparable.
    """
    results: Dict[str, dict] = {}
    for kind in ALL_KINDS:
        best = None
        for _ in range(max(1, repeat)):
            cycles, wall, skipped = _time_micro_cell(kind, scale)
            if best is None or wall < best["wall_s"]:
                best = {"cycles": cycles, "wall_s": wall,
                        "cycles_skipped": skipped}
        results[kind.value] = _finish_cell(best)
    for kind in ALL_KINDS:
        best = None
        for _ in range(max(1, repeat)):
            cell = _time_low_cell(kind)
            if best is None or cell["wall_s"] < best["wall_s"]:
                best = cell
        results[f"{kind.value}@low"] = _finish_cell(best)
    for key, kind, topology in _CONTESTED_CELLS:
        best = None
        for _ in range(max(1, repeat)):
            cell = _time_contested_cell(kind, topology)
            if best is not None and cell["digest"] != best["digest"]:
                raise RuntimeError(
                    f"{key}: contested digest differs between repeats "
                    f"(the scenario must be deterministic)"
                )
            if best is None or cell["wall_s"] < best["wall_s"]:
                best = cell
        results[key] = _finish_cell(best)
    return results


def profile_micro(scale: EvaluationScale, top: int = 20) -> str:
    """cProfile the contested micro cells; return the top-``top`` lines
    by internal time (the profiling workflow in docs/performance.md).

    The contested cells are the profile target because they are the
    cells whose every cycle is stepped: the full-system cells spend
    most of their samples in workload bookkeeping and the ``@low``
    cells in provably idle spans, which buries the router hot path the
    profile exists to expose.  ``scale`` is accepted for CLI symmetry
    with the timing suite; the contested scenario is fixed-size.
    """
    del scale  # the contested scenario is pinned, not scaled
    profiler = cProfile.Profile()
    profiler.enable()
    for _key, kind, topology in _CONTESTED_CELLS:
        _time_contested_cell(kind, topology)
    profiler.disable()
    buf = io.StringIO()
    pstats.Stats(profiler, stream=buf).sort_stats("tottime").print_stats(top)
    return buf.getvalue()


# -- macro: evaluation-grid wall time -------------------------------------


def run_macro(scale: EvaluationScale) -> Dict[str, object]:
    """Wall time of the full {workload} x {organization} grid.

    The grid honors ``REPRO_CELL_STORE`` (an attached store lets an
    interrupted macro run resume), so the report records how many cells
    came from the store: a wall time with nonzero ``store_hits`` is a
    resumed sweep, not a measurement of simulation throughput.
    """
    clear_grid_cache()  # measure real work, not the process-level cache
    hits0 = grid_stats.grid_cache_hits
    misses0 = grid_stats.grid_cache_misses
    start = time.perf_counter()
    grid = evaluation_grid(scale=scale)
    wall = time.perf_counter() - start
    clear_grid_cache()
    macro = {
        "cells": len(grid),
        "wall_s": round(wall, 3),
        # The *resolved* worker count, not the raw environment string:
        # "REPRO_JOBS=0" means one worker per CPU, and recording "0"
        # made such reports unreadable (and unvalidated junk like
        # "REPRO_JOBS=banana" used to land in reports verbatim).
        "jobs": _num_jobs(),
        "store_hits": grid_stats.grid_cache_hits - hits0,
        "store_misses": grid_stats.grid_cache_misses - misses0,
    }
    # Resilience counters for the sweep just timed; absent keys mean a
    # clean run (a wall time with retries or pool rebuilds in it is a
    # survival story, not a throughput measurement).
    from repro.resilience import last_run_report

    report = last_run_report()
    if report is not None and not report.clean:
        macro["resilience"] = report.to_dict()
    return macro


# -- analytic: pruned-sweep speedup ---------------------------------------


def run_analytic(scale: EvaluationScale) -> Dict[str, object]:
    """The analytic fast path's win-meter: full vs. pruned sweep.

    Times the evaluation grid twice against no store — once with
    pruning forced off, once with ``analytic="prune"`` — and reports
    the speedup, how many cells the queueing model served, the model's
    worst relative error on the cells it pruned, and whether every
    *non*-pruned cell reproduced the full sweep bit-for-bit (it must:
    pruning only ever removes simulations, it never perturbs one).
    """
    from repro.analytic.validate import (
        IPC_ERROR_MARGIN,
        LATENCY_ERROR_MARGIN,
    )

    clear_grid_cache()
    start = time.perf_counter()
    full = evaluation_grid(scale=scale, store=None, analytic="off")
    wall_full = time.perf_counter() - start
    clear_grid_cache()
    pruned0 = grid_stats.analytic_cells
    start = time.perf_counter()
    pruned = evaluation_grid(scale=scale, store=None, analytic="prune")
    wall_pruned = time.perf_counter() - start
    clear_grid_cache()
    cells_pruned = grid_stats.analytic_cells - pruned0
    max_latency_error = 0.0
    max_ipc_error = 0.0
    non_pruned_identical = True
    for key, sample in pruned.items():
        reference = full.get(key)
        if reference is None:
            continue
        if sample.analytic:
            if reference.avg_network_latency:
                max_latency_error = max(
                    max_latency_error,
                    abs(sample.avg_network_latency
                        - reference.avg_network_latency)
                    / reference.avg_network_latency,
                )
            if reference.ipc:
                max_ipc_error = max(
                    max_ipc_error,
                    abs(sample.ipc - reference.ipc) / reference.ipc,
                )
        elif sample.to_state() != reference.to_state():
            non_pruned_identical = False
    return {
        "cells": len(pruned),
        "cells_pruned": cells_pruned,
        "wall_full_s": round(wall_full, 3),
        "wall_pruned_s": round(wall_pruned, 3),
        "speedup": round(wall_full / wall_pruned, 1) if wall_pruned else 0.0,
        "max_latency_error": round(max_latency_error, 4),
        "max_ipc_error": round(max_ipc_error, 4),
        "latency_margin": LATENCY_ERROR_MARGIN,
        "ipc_margin": IPC_ERROR_MARGIN,
        "non_pruned_identical": non_pruned_identical,
    }


# -- reports ---------------------------------------------------------------


def run_bench(
    scale: Optional[EvaluationScale] = None,
    repeat: int = 2,
    include_macro: bool = True,
) -> Dict[str, object]:
    scale = scale or get_scale()
    start = time.perf_counter()
    report: Dict[str, object] = {
        "schema": SCHEMA_VERSION,
        "stamp": time.strftime("%Y%m%dT%H%M%SZ", time.gmtime()),
        "git_rev": git_rev(),
        "scale": scale.name,
        "machine": machine_info(),
        "micro": run_micro(scale, repeat=repeat),
    }
    # Process-wide allocator counters as of the end of the micro suite
    # (reuse ratios near 1.0 mean the free lists are doing their job).
    report["pools"] = pool_summary()
    if include_macro:
        report["macro"] = run_macro(scale)
        report["analytic"] = run_analytic(scale)
    report["total_wall_s"] = round(time.perf_counter() - start, 3)
    return report


def write_report(report: Dict[str, object],
                 out: Optional[str] = None) -> str:
    path = out or f"BENCH_{report['stamp']}.json"
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return path


def render_report(report: Dict[str, object]) -> str:
    lines = [
        f"bench report {report['stamp']}  "
        f"(rev {report['git_rev']}, scale {report['scale']})",
        f"machine: {report['machine']['platform']}  "
        f"python {report['machine']['python']}  "
        f"calibration {report['machine']['calibration_mips']} Mips",
        "",
        f"{'organization':<18} {'cycles':>8} {'wall (s)':>10} "
        f"{'cycles/sec':>12} {'stepped c/s':>12} {'skipped':>9}",
    ]
    for org, cell in report["micro"].items():
        stepped = cell.get("stepped_cycles_per_sec",
                           cell["cycles_per_sec"])
        lines.append(
            f"{org:<18} {cell['cycles']:>8} {cell['wall_s']:>10.3f} "
            f"{cell['cycles_per_sec']:>12.0f} {stepped:>12.0f} "
            f"{cell.get('cycles_skipped', 0):>9}"
        )
    macro = report.get("macro")
    if macro:
        lines.append("")
        resumed = (
            f", {macro['store_hits']} cells from the store"
            if macro.get("store_hits") else ""
        )
        lines.append(
            f"evaluation grid: {macro['cells']} cells in "
            f"{macro['wall_s']:.2f} s (REPRO_JOBS={macro['jobs']}{resumed})"
        )
    analytic = report.get("analytic")
    if analytic:
        lines.append(
            f"analytic fast path: {analytic['cells_pruned']}/"
            f"{analytic['cells']} cells pruned, sweep "
            f"{analytic['wall_full_s']:.2f} s -> "
            f"{analytic['wall_pruned_s']:.2f} s "
            f"({analytic['speedup']:.1f}x); worst model error "
            f"{analytic['max_latency_error']:.1%} latency / "
            f"{analytic['max_ipc_error']:.1%} IPC; non-pruned cells "
            + ("bit-identical"
               if analytic["non_pruned_identical"] else "DIVERGED")
        )
    lines.append(f"total: {report['total_wall_s']:.2f} s")
    return "\n".join(lines)


# -- comparisons -----------------------------------------------------------


def _load(path: str) -> Dict[str, object]:
    with open(path) as fh:
        report = json.load(fh)
    if report.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported bench schema "
            f"{report.get('schema')!r} (expected {SCHEMA_VERSION})"
        )
    return report


def compare_reports(
    path_a: str, path_b: str, fail_threshold: Optional[float] = None
) -> Tuple[List[dict], bool]:
    """Per-organization throughput deltas of report B relative to A.

    When both reports carry a calibration score, a *normalized* delta
    (throughput divided by the host's calibration score) is reported
    next to the raw one, so a slower CI runner does not read as a
    simulator regression.  An organization counts as regressed only
    when **both** deltas are below ``-fail_threshold``: raw-only drops
    are machine-speed differences, normalized-only drops are
    calibration noise.  Returns (rows, failed).

    Cells carrying ``stepped_cycles_per_sec`` on both sides are gated
    on it (skip-adjusted throughput — a cell can't hide a slower hot
    path behind more aggressive time skipping); older reports fall back
    to raw ``cycles_per_sec``.  Each row records the metric used.
    """
    a, b = _load(path_a), _load(path_b)
    cal_a = a["machine"].get("calibration_mips")
    cal_b = b["machine"].get("calibration_mips")
    normalized = bool(cal_a and cal_b)
    rows: List[dict] = []
    failed = False
    for org in a["micro"]:
        if org not in b["micro"]:
            continue
        cell_a, cell_b = a["micro"][org], b["micro"][org]
        metric = "cycles_per_sec"
        if "stepped_cycles_per_sec" in cell_a \
                and "stepped_cycles_per_sec" in cell_b:
            metric = "stepped_cycles_per_sec"
        cps_a = cell_a[metric]
        cps_b = cell_b[metric]
        raw_delta = (cps_b - cps_a) / cps_a if cps_a else 0.0
        if normalized:
            norm_delta = ((cps_b / cal_b) - (cps_a / cal_a)) / (cps_a / cal_a)
        else:
            norm_delta = raw_delta
        regressed = (
            fail_threshold is not None
            and raw_delta < -fail_threshold
            and norm_delta < -fail_threshold
        )
        failed = failed or regressed
        rows.append({
            "org": org,
            "a": cps_a,
            "b": cps_b,
            "metric": metric,
            "raw_delta": raw_delta,
            "norm_delta": norm_delta,
            "regressed": regressed,
        })
    return rows, failed


def render_compare(rows: List[dict], path_a: str, path_b: str,
                   fail_threshold: Optional[float]) -> str:
    lines = [
        f"A: {path_a}",
        f"B: {path_b}",
        "",
        f"{'organization':<18} {'A cyc/s':>10} {'B cyc/s':>10} "
        f"{'raw':>8} {'normalized':>11}",
    ]
    for row in rows:
        flag = "  REGRESSED" if row["regressed"] else ""
        if row.get("metric") == "stepped_cycles_per_sec":
            flag = "  [stepped]" + flag
        lines.append(
            f"{row['org']:<18} {row['a']:>10.0f} {row['b']:>10.0f} "
            f"{row['raw_delta']:>+7.1%} {row['norm_delta']:>+10.1%}{flag}"
        )
    if fail_threshold is not None:
        lines.append("")
        lines.append(
            f"fail threshold: normalized regression beyond "
            f"{fail_threshold:.0%}"
        )
    return "\n".join(lines)
