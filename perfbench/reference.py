"""A fixed reference load that tracks how fast the host is right now.

The shared host this benchmark runs on changes speed by tens of percent
over minutes (other tenants on the same cores and caches).  A tight
arithmetic loop does not follow those changes, but object churn does:
allocating small objects, appending to and popping from lists, and
updating dicts at random over a working set of a few megabytes, which
is what the simulator's hot paths do too.  The benchmark runs this
probe every half second of simulation and scales its host metrics to a
host on which one probe takes ``NOMINAL_S`` seconds.

The probe runs in a helper process of its own, started before the
simulator is built, while the benchmark waits for it: its heap never
holds the simulator's objects, so a change to the simulator's memory
footprint does not reach the probe's allocator.  For each probe the
helper moves to the CPU the benchmark last ran on, so that it measures
that CPU and not an idle one next to it.  Run as a script, this file is
that helper: for every line on standard input (a CPU number, or -1 for
any CPU) it runs one probe and prints its time.
"""

from __future__ import annotations

import ctypes
import gc
import os
import random
import subprocess
import sys
import time
from typing import List

#: Probe time, in seconds, of the host the metrics are scaled to (about
#: the probe's time on the 2-CPU host the benchmark was built on).
NOMINAL_S = 0.04
#: Host seconds of simulation between two probes.
EVERY_S = 0.5

_OBJECTS = 10_000
_STEPS = 30_000


class _Item:
    __slots__ = ("key", "history", "table")

    def __init__(self, key: int):
        self.key = key
        self.history = [key]
        self.table = {}


def probe() -> float:
    """Seconds one fixed round of object churn takes now.  The cyclic
    garbage collector is off meanwhile, so the probe does not depend on
    how many objects the simulation holds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        rng = random.Random(1)
        items = [_Item(key) for key in range(_OBJECTS)]
        index = {}
        for step in range(_STEPS):
            item = items[rng.randrange(_OBJECTS)]
            index[item.key & 4095] = item
            item.history.append(step)
            item.table[step & 7] = item.history
            if len(item.history) > 4:
                item.history.pop(0)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


try:
    _SCHED_GETCPU = ctypes.CDLL(None).sched_getcpu
except (AttributeError, OSError):
    _SCHED_GETCPU = None


def _current_cpu():
    """The CPU this process runs on, or None where that is unknown."""
    cpu = _SCHED_GETCPU() if _SCHED_GETCPU is not None else -1
    return cpu if cpu >= 0 else None


class HostSpeed:
    """Probes taken over one run by the helper process; ``scale`` is how
    much slower than nominal the host was on average (above 1 when
    slower).  Use as a context manager, which stops the helper."""

    def __init__(self) -> None:
        self.probes: List[float] = []
        self._helper = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self._last = time.perf_counter()

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._helper.poll() is None:
            self._helper.stdin.close()
            try:
                self._helper.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._helper.kill()
                self._helper.wait()

    def probe(self) -> float:
        """One probe's time, taken by the helper on the CPU this process
        last ran on, while this process waits."""
        cpu = _current_cpu()
        self._helper.stdin.write(f"{-1 if cpu is None else cpu}\n")
        self._helper.stdin.flush()
        reply = self._helper.stdout.readline()
        if not reply:
            raise RuntimeError("host-speed helper exited")
        return float(reply)

    def sample(self) -> None:
        self.probes.append(self.probe())
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        """Probe when ``EVERY_S`` seconds have passed since the last."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def scale(self, first: int = 0) -> float:
        """Mean time of the probes from index ``first`` on, over the
        nominal probe time."""
        probes = self.probes[first:]
        return sum(probes) / len(probes) / NOMINAL_S


def serve() -> None:
    """The helper: one probe per input line, until input closes.  A
    first probe, not reported, grows the helper's heap to its size."""
    probe()
    for line in sys.stdin:
        cpu = int(line)
        if cpu >= 0 and hasattr(os, "sched_setaffinity"):
            try:
                os.sched_setaffinity(0, {cpu})
            except OSError:
                pass
        print(repr(probe()), flush=True)


if __name__ == "__main__":
    serve()
