"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload contested --seed 11 --seconds 30 --trace 0

``--trace 0`` repeats rounds of the workload's operations for
``--seconds`` and prints the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced round and prints the per-layer metrics.  The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 when every operation passed its checks, 1 when any
failed, and 2 when the simulator's sources are not next to this
directory.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Only defaults are measured: drop every inherited REPRO_* knob before
# the simulator reads them at import time.
SCRUBBED = sorted(key for key in os.environ if key.startswith("REPRO_"))
for _key in SCRUBBED:
    del os.environ[_key]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench.rounds import run

    return run(args.workload, args.seed, args.seconds, bool(args.trace),
               scrubbed=SCRUBBED, root=ROOT)


if __name__ == "__main__":
    sys.exit(main())
