"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py --workloads contested lowload --seeds 1 2 3 4 5

For every end-to-end metric it prints the median over the seeds and the
spread (interquartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles) next to the
bound in ``BENCHMARK.json``; a spread must stay below its bound, and
should stay below a third of it.  Runs are sequential, so they never
compete with each other for the host.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.measure import spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{out.stdout}")
    return {name: metric["value"]
            for name, metric in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workloads:
        runs = [run_once(workload, seed, spec["run_seconds"])
                for seed in args.seeds]
        print(f"{workload} ({len(runs)} seeds)")
        for name, bound in bounds.items():
            values = [run[name] for run in runs]
            share = spread(values)
            worst = max(worst, share / bound)
            print(f"  {name:32s} median {statistics.median(values):12.5g}  "
                  f"spread {share:7.4f}  bound {bound}  values "
                  + " ".join(f"{value:.4g}" for value in values))
    print(f"worst spread / bound: {worst:.3f} (should stay below 0.333)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
