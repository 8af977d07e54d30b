"""Rounds, checks and metrics of one benchmark invocation."""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from repro.harness import evaluation_grid
from repro.harness.runner import ALL_KINDS, clear_grid_cache
from repro.resilience import last_run_report

from perfbench import workloads as wl
from perfbench.measure import DigestBook, digest, geomean, percentile
from perfbench.measure import tail_percentile
from perfbench.reference import HostSpeed
from perfbench.spans import SpanRecorder, span_costs

#: Builds of each operation per round: the one that runs and
#: ``BUILDS - 1`` more, dropped unrun.  ``setup_s`` sums each
#: operation's median build time over the run, so its samples are
#: spread over the whole run rather than taken in one block.
BUILDS = 5
#: Wall-clock limit of one operation (its build, run and drain) or of
#: one grid before the operation counts as timed out.
OP_TIMEOUT_S = 120

KIND_ORG = {kind: org for org, kind in wl.ORGS.items()}


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"operation exceeded {OP_TIMEOUT_S} s")


class Run:
    """One invocation: its digests, failures and log."""

    def __init__(self, workload: wl.Workload, seed: int, host: HostSpeed):
        self.workload = workload
        self.seed = seed
        self.book = DigestBook()
        self.attempted = 0
        self.failed = 0
        self.host = host
        #: Build times per operation label, over the run.
        self.builds: Dict[str, List[float]] = {}

    def fail(self, label: str, reason: str) -> None:
        self.failed += 1
        print(f"FAIL {self.workload.name} {label}: {reason}", flush=True)

    def check(self, result: wl.OpResult, tag: str) -> bool:
        ok = True
        if not result.conserved:
            self.fail(result.label, "packets injected != ejected after drain")
            ok = False
        elif not self.book.check((result.label,), result.digest):
            self.fail(result.label, "digest differs from an earlier run of "
                      "the same operation and seed")
            ok = False
        elif (self.workload.name == "contested"
              and self.seed == wl.ANCHOR_SEED
              and result.org in wl.ANCHOR_DIGESTS
              and result.digest != wl.ANCHOR_DIGESTS[result.org]):
            self.fail(result.label, "digest differs from the committed "
                      "@contested bench digest")
            ok = False
        print(f"op {self.workload.name} {tag} {result.label} "
              f"cycles={result.cycles} skipped={result.skipped} "
              f"wall_s={result.run_s:.4f} digest={result.digest}",
              flush=True)
        return ok

    def round(self, tag: str, ops):
        """Run and check every operation of ``ops`` once, one after
        another, each to completion, as a user's run would.  Each
        operation is built ``BUILDS`` times right before it runs; all
        builds are timed."""
        results: List[wl.OpResult] = []
        for op in ops:
            result = self._operation(op, tag, None, BUILDS)
            if result is not None and self.check(result, tag):
                results.append(result)
        return results

    def paired_round(self, recorder: SpanRecorder):
        """Run every operation untraced and then traced, pair by pair,
        so that the two runs of an operation meet the same host; the
        traced run's digest must equal the untraced run's."""
        untraced: List[wl.OpResult] = []
        traced: List[wl.OpResult] = []
        for op in self.workload.ops(self.seed):
            for tag, results, spans in (("untraced", untraced, None),
                                        ("traced", traced, recorder)):
                result = self._operation(op, tag, spans)
                if result is not None and self.check(result, tag):
                    results.append(result)
        return untraced, traced

    def _operation(self, op, tag: str, recorder: Optional[SpanRecorder],
                   builds: int = 1) -> Optional[wl.OpResult]:
        """Build ``op`` (timed; ``builds`` times, the last one runs),
        then run it window by window (timed windows only).  Each build
        starts from a collected heap, so garbage left before it does not
        land in its time.  The host probe runs between windows.  None
        when the operation failed."""
        clock = time.perf_counter
        self.attempted += 1
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        try:
            times = self.builds.setdefault(op.label, [])
            for _ in range(builds):
                built = None
                gc.collect()
                start = clock()
                built = op.build()
                build_s = clock() - start
                times.append(build_s)
            if recorder is not None:
                op.instrument(built, recorder)
            steps = op.run(built)
            built = None
            run_s = 0.0
            while True:
                start = clock()
                try:
                    next(steps)
                except StopIteration as stop:
                    run_s += clock() - start
                    result = stop.value
                    break
                run_s += clock() - start
                self.host.maybe_sample()
        except Exception as exc:  # any failure is the operation's
            self.fail(op.label, f"{type(exc).__name__}: {exc}")
            return None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        result.build_s, result.run_s = build_s, run_s
        return result

    def grid(self, in_process: List[wl.OpResult]):
        """The evaluation grid on two workers; every cell must equal the
        same cell simulated in-process.  Returns (samples, wall s)."""
        sweep = wl.sweep_scale(self.seed)
        expected = {(result.group, result.org): result.sample_digest
                    for result in in_process}
        clear_grid_cache()
        self.host.sample()
        os.environ["REPRO_JOBS"] = str(wl.SWEEP_WORKERS)
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        try:
            start = time.perf_counter()
            grid = evaluation_grid(kinds=ALL_KINDS, scale=sweep, store=None,
                                   analytic="off")
            wall = time.perf_counter() - start
        except Exception as exc:  # every cell of the grid failed with it
            grid, wall = {}, None
            print(f"FAIL sweep grid: {type(exc).__name__}: {exc}", flush=True)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            del os.environ["REPRO_JOBS"]
            clear_grid_cache()
        self.host.sample()
        if wall is not None:
            print(f"grid wall_s={wall:.4f}", flush=True)
        report = last_run_report()
        retried = {record.target for record in report.failures} \
            if report is not None else set()
        samples = {}
        for profile in wl.WORKLOAD_NAMES:
            for kind in ALL_KINDS:
                org = KIND_ORG[kind]
                label = f"grid/{org}/{profile}"
                self.attempted += 1
                sample = grid.get((profile, kind))
                if sample is None:
                    self.fail(label, "cell missing from the grid")
                    continue
                cell_digest = digest(sample.to_dict())
                print(f"op sweep grid {label} digest={cell_digest}",
                      flush=True)
                if any(target.startswith(f"{profile}/{kind.value} ")
                       for target in retried):
                    self.fail(label, "cell failed and was retried")
                elif not self.book.check((label,), cell_digest):
                    self.fail(label, "digest differs from an earlier grid")
                elif expected.get((profile, org), cell_digest) \
                        != cell_digest:
                    self.fail(label, "grid sample differs from the same "
                              "cell simulated in-process")
                else:
                    samples[(profile, org)] = sample
        return samples, wall


def _peak_rss_mb() -> float:
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024


def _by_org(results: List[wl.OpResult]) -> Dict[str, List[wl.OpResult]]:
    groups: Dict[str, List[wl.OpResult]] = {}
    for result in results:
        groups.setdefault(result.org, []).append(result)
    return groups


def _kcycles_per_s(results: List[wl.OpResult]) -> float:
    return (sum(r.cycles for r in results)
            / sum(r.run_s for r in results) / 1000)


def _pra_gain(results: List[wl.OpResult], samples=None) -> float:
    """Geometric mean over groups of work(mesh_pra) / work(mesh); from
    the grid's samples when given (the sweep's own results)."""
    if samples:
        return geomean(samples[(profile, "mesh_pra")].ipc
                       / samples[(profile, "mesh")].ipc
                       for profile in wl.WORKLOAD_NAMES)
    work = {(r.group, r.org): r.work for r in results}
    groups = sorted({r.group for r in results})
    return geomean(work[(group, "mesh_pra")] / work[(group, "mesh")]
                   for group in groups)


def _window_percentiles(results: List[wl.OpResult]):
    """Window percentiles (ms) per organization, combined as a geometric
    mean over organizations.  Organizations differ several-fold in cost
    per window, so the pooled windows form one mode per organization and
    a pooled median jumps between modes from run to run."""
    windows = [[w * 1000 for r in group for w in r.windows]
               for group in _by_org(results).values()]
    return (geomean(percentile(ms, 0.5) for ms in windows),
            geomean(tail_percentile(ms, 0.95) for ms in windows))


def end_to_end(results, setup_s, grids, sweep=None) -> Dict[str, tuple]:
    """The end-to-end metrics of an untraced run: (value, unit).

    ``setup_s`` is the summed median build time; ``grids`` holds
    (samples, wall s) per grid, run on the ``sweep`` scale, and the
    sweep's ``kcycles_per_s`` is that of the median grid.  Times come
    in raw or already scaled to the nominal host.
    """
    metrics = {"setup_s": (setup_s, "s")}
    if grids:
        # The median grid: one grid held up by the host moves it less
        # than it moves a total over all grids.
        cells = len(wl.WORKLOAD_NAMES) * len(ALL_KINDS)
        cycles = cells * (sweep.warmup + sweep.measure)
        metrics["kcycles_per_s"] = (
            statistics.median(cycles / wall for _, wall in grids) / 1000,
            "kcycles/s")
    else:
        metrics["kcycles_per_s"] = (_kcycles_per_s(results), "kcycles/s")
    by_org = _by_org(results)
    for org in wl.ORGS:
        metrics[f"kcycles_per_s.{org}"] = (_kcycles_per_s(by_org[org]),
                                           "kcycles/s")
    p50, p95 = _window_percentiles(results)
    metrics["window_ms.p50"] = (p50, "ms")
    metrics["window_ms.p95"] = (p95, "ms")
    metrics["peak_rss_mb"] = (_peak_rss_mb(), "MB")
    # Repeats of an operation are digest-identical, so every round
    # gives the same simulated values.
    metrics["sim.pra_ipc_gain"] = (
        _pra_gain(results, grids[0][0] if grids else None), "ratio")
    pra = [r for r in results if r.org == "mesh_pra"]
    metrics["sim.pra_latency_p50_cycles"] = (
        statistics.fmean(r.latency_p50 for r in pra), "cycles")
    metrics["sim.pra_latency_p99_cycles"] = (
        statistics.fmean(r.latency_p99 for r in pra), "cycles")
    return metrics


def per_layer(untraced, traced, recorder, grid_wall, costs=(0.0, 0.0),
              scale=1.0) -> Dict[str, tuple]:
    """The per-layer metrics of a traced run: (value, unit).

    ``costs`` is the tracer's cost per span outside and inside the
    span's own interval (:func:`_span_costs`); the first is taken off
    each parent for each child, the second off every span.  Times are divided by ``scale``, as the end-to-end metrics are.
    Shares are put over the *untraced* wall time of the same
    operations, each run right before its traced twin, so a share
    estimates the layer's part of an untraced run.  A layer the workload never calls
    reports 0.  A layer whose self time comes out negative is reported
    with a warning: the subtracted span cost was too large for it.
    """
    wall_ns = sum(r.run_s for r in untraced) * 1e9 / scale
    traced_wall_ns = sum(r.run_s for r in traced) * 1e9 / scale
    raw_ns, calls = recorder.layer_times(*costs)
    self_ns = {name: value / scale for name, value in raw_ns.items()}
    for name, value in self_ns.items():
        if value < 0:
            print(f"warn: layer {name} self time {value:.0f} ns is "
                  f"negative", flush=True)
    cycles = sum(r.cycles for r in traced)

    def ns(*names):
        return sum(self_ns.get(name, 0.0) for name in names)

    def count(*names):
        return sum(calls.get(name, 0) for name in names)

    def per(total, n):
        return total / n if n else 0.0

    metrics: Dict[str, tuple] = {}
    for org in wl.ROUTER_ORGS:
        router = f"noc.router.{org}"
        metrics[f"noc.router.ns_per_step.{org}"] = (
            per(ns(router), count(router)), "ns")
        metrics[f"noc.router.steps_per_cycle.{org}"] = (
            per(count(router), count(f"noc.network.{org}")), "1/cycle")
        metrics[f"noc.router.share.{org}"] = (ns(router) / wall_ns,
                                              "fraction")
    networks = [name for name in self_ns if name.startswith("noc.network.")]
    stepped = count(*networks)
    metrics["noc.network.self_ns_per_cycle"] = (per(ns(*networks), stepped),
                                                "ns")
    metrics["noc.network.share"] = (ns(*networks) / wall_ns, "fraction")
    metrics["noc.interface.ns_per_step"] = (
        per(ns("noc.interface"), count("noc.interface")), "ns")
    metrics["noc.interface.steps_per_cycle"] = (
        per(count("noc.interface"), stepped), "1/cycle")
    metrics["noc.interface.share"] = (ns("noc.interface") / wall_ns,
                                      "fraction")
    metrics["noc.skip.skipped_frac"] = (
        sum(r.skipped for r in traced) / cycles, "fraction")
    metrics["noc.skip.ns_per_probe"] = (
        per(ns("noc.skip"), count("noc.skip")), "ns")
    metrics["noc.skip.share"] = (ns("noc.skip") / wall_ns, "fraction")
    core = ("core.announce", "core.control.inject", "core.control.purge")
    pra = [r for r in traced if r.org == "mesh_pra"]
    metrics["core.control.ns_per_inject"] = (
        per(ns("core.control.inject"), count("core.control.inject")), "ns")
    metrics["core.control.injects_per_kcycle"] = (
        per(count("core.control.inject"),
            sum(r.cycles for r in pra) / 1000), "1/kcycle")
    metrics["core.control.planned_frac"] = (
        per(sum(r.planned for r in pra),
            sum(r.control_injected for r in pra)), "fraction")
    metrics["core.share"] = (ns(*core) / wall_ns, "fraction")
    tile = ("tile.chip", "tile.llc", "tile.memory")
    metrics["tile.share"] = (ns(*tile) / wall_ns, "fraction")
    metrics["tile.llc.ns_per_request"] = (
        per(ns("tile.llc"), count("tile.llc")), "ns")
    metrics["tile.llc.requests_per_kcycle"] = (
        count("tile.llc") / (cycles / 1000), "1/kcycle")
    metrics["perf.core.share"] = (ns("perf.core") / wall_ns, "fraction")
    metrics["perf.core.ns_per_completion"] = (
        per(ns("perf.core"), count("perf.core")), "ns")
    metrics["workloads.tracegen.ns_per_access"] = (
        per(ns("workloads.tracegen"), count("workloads.tracegen")), "ns")
    metrics["workloads.synthetic.ns_per_cycle"] = (
        per(ns("workloads.synthetic"), count("workloads.synthetic")), "ns")
    metrics["workloads.share"] = (
        ns("workloads.tracegen", "workloads.synthetic") / wall_ns,
        "fraction")
    if grid_wall is not None:
        # Serial cell time: what the two workers do between them (the
        # in-process runs also drain after measuring; the grid does not).
        serial = sum(r.build_s + r.run_s - r.drain_s for r in untraced)
        efficiency = serial / (wl.SWEEP_WORKERS * grid_wall)
        overhead = grid_wall - serial / wl.SWEEP_WORKERS
    else:
        efficiency = overhead = 0.0
    metrics["harness.parallel_efficiency"] = (efficiency, "fraction")
    metrics["harness.overhead_s"] = (overhead, "s")
    metrics["noc.stats.latencies_held"] = (
        max(r.latencies_held for r in untraced), "count")
    chiplet = _by_org(untraced).get("chiplet")
    metrics["kcycles_per_s.chiplet"] = (
        _kcycles_per_s(chiplet) * scale if chiplet else 0.0,
        "kcycles/s")
    metrics["noc.router.steps"] = (
        count(*(f"noc.router.{org}" for org in wl.ROUTER_ORGS)), "count")
    metrics["noc.interface.steps"] = (count("noc.interface"), "count")
    metrics["noc.skip.probes"] = (count("noc.skip"), "count")
    metrics["noc.skip.cycles_skipped"] = (sum(r.skipped for r in traced),
                                          "count")
    metrics["core.control.injects"] = (count("core.control.inject"),
                                       "count")
    metrics["tile.llc.requests"] = (count("tile.llc"), "count")
    metrics["bench.client.share"] = (ns("bench.client") / wall_ns,
                                     "fraction")
    metrics["bench.span_cost_ns"] = (sum(costs) / scale, "ns")
    metrics["bench.tracing_overhead"] = (traced_wall_ns / wall_ns - 1,
                                         "fraction")
    unattributed = 1 - sum(self_ns.values()) / wall_ns
    if unattributed < 0:
        print(f"warn: layers' self time exceeds the untraced wall time "
              f"by {-unattributed:.1%}", flush=True)
    metrics["bench.unattributed_share"] = (unattributed, "fraction")
    return metrics


def _environment(seed: int, scrubbed, root: str) -> dict:
    rev = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                                 cwd=root, capture_output=True, text=True,
                                 timeout=10)
            if out.returncode == 0:
                rev = out.stdout.strip()
        except OSError:
            pass
    return {"git_rev": rev, "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": seed,
            "scrubbed_env": list(scrubbed)}


def _traced(bench: Run, root: str) -> Dict[str, tuple]:
    """Each operation untraced and then traced; the per-layer metrics.
    Times are scaled by the probes taken during the run."""
    workload, host = bench.workload, bench.host
    host.sample()
    recorder = SpanRecorder()
    untraced, traced = bench.paired_round(recorder)
    grid_wall = None
    if workload.grid:
        _, grid_wall = bench.grid(untraced)
    host.sample()
    scale = host.scale() ** workload.host_sensitivity
    print(f"host {len(host.probes)} probes, {host.scale():.4f} x nominal "
          f"probe time, scale {scale:.4f}", flush=True)
    missing = [span for span in workload.expected_spans
               if span not in recorder.names]
    if missing:
        bench.fail("tracing", f"no calls recorded for {missing}")
    spans_file = recorder.write(os.path.join(root, ".perfbench"),
                                f"spans-{workload.name}-seed{bench.seed}")
    print(f"spans {len(recorder)} written to {spans_file}", flush=True)
    if bench.failed:
        return {}
    return per_layer(untraced, traced, recorder, grid_wall,
                     _span_costs(untraced, traced, recorder), scale)


def _span_costs(untraced, traced, recorder) -> tuple:
    """The tracer's cost per span outside and inside its own interval.

    A no-op calibration (:func:`perfbench.spans.span_costs`) runs hot in
    the caches and so underestimates what a span costs inside a real
    run.  The total cost per span is therefore the traced runs' extra
    wall time over their untraced twins, run right before each, per
    span; the calibration only splits it into its two parts.
    """
    outside, inside = span_costs()
    extra_ns = (sum(r.run_s for r in traced)
                - sum(r.run_s for r in untraced)) * 1e9
    total = max(0.0, extra_ns / max(1, len(recorder)))
    print(f"span cost {total:.0f} ns per span in the run, "
          f"{outside + inside:.0f} ns calibrated", flush=True)
    share = outside / (outside + inside) if outside + inside else 1.0
    return total * share, total * (1 - share)


def _timed(bench: Run, seconds: float) -> Dict[str, tuple]:
    """Rounds of the workload for ``seconds``; the end-to-end metrics,
    scaled to the nominal host.  The raw values are printed too."""
    workload, seed, host = bench.workload, bench.seed, bench.host
    results: List[wl.OpResult] = []
    grids = []
    start = time.perf_counter()
    rounds = 0
    while True:
        batch = bench.round(f"round{rounds}",
                            (workload.timed_ops or workload.ops)(seed))
        results += batch
        if workload.grid:
            grids.append(bench.grid(batch))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            break
    host.sample()
    scale = host.scale() ** workload.host_sensitivity
    print(f"host {len(host.probes)} probes, {host.scale():.4f} x nominal "
          f"probe time, scale {scale:.4f}", flush=True)
    if bench.failed:
        return {}
    setup_s = sum(statistics.median(times) for times in bench.builds.values())
    sweep = wl.sweep_scale(seed)
    raw = end_to_end(results, setup_s, grids, sweep)
    for key, (value, unit) in raw.items():
        print(f"raw {key} {value} {unit}", flush=True)
    scaled = [dataclasses.replace(r, run_s=r.run_s / scale,
                                  windows=[w / scale for w in r.windows])
              for r in results]
    # Set-up is allocation, which follows the probe fully on every
    # workload (slope about 1 to 1.5 over ten seeds).
    return end_to_end(scaled, setup_s / host.scale(),
                      [(samples, wall / scale) for samples, wall in grids],
                      sweep)


def run(name: str, seed: int, seconds: float, trace: bool, scrubbed=(),
        root: str = ".") -> int:
    workload = wl.WORKLOADS.get(name)
    if workload is None:
        print(f"perfbench: unknown workload {name!r}; choose from "
              f"{sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)
    print("env " + json.dumps(_environment(seed, scrubbed, root)),
          flush=True)
    with HostSpeed() as host:
        bench = Run(workload, seed, host)
        if trace:
            metrics = _traced(bench, root)
        else:
            metrics = _timed(bench, seconds)
    for key, (value, unit) in metrics.items():
        print(f"metric {key} {value} {unit}", flush=True)
    correct = bench.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1
