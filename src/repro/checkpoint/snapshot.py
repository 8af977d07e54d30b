"""Versioned snapshot files: save/restore whole simulations.

A snapshot captures everything needed to continue a run bit-for-bit in a
fresh process: the immutable parameters (to rebuild the object tree),
the mutable ``state_dict`` of every component, the live-object
registries (packets, plans, control runs, transactions), and the global
id counters.  ``tests/test_golden_determinism.py`` pins the resulting
digests, so "restore + continue" and "straight run" are enforced to be
indistinguishable.

File formats, chosen by extension:

* ``.json`` — plain JSON (the canonical format);
* ``.json.gz`` — gzip-compressed JSON;
* ``.npz`` — JSON metadata plus large integer arrays hoisted into numpy
  arrays (smaller and faster for big event queues; requires numpy).
"""

from __future__ import annotations

import dataclasses
import gzip
import hashlib
import json
import typing
from enum import Enum
from typing import Any, Optional, Tuple

from repro.checkpoint.codec import (
    CODE_VERSION,
    RestoreContext,
    SaveContext,
)
from repro.noc.network import Network, build_network
from repro.noc.packet import peek_next_pid, set_next_pid
from repro.params import ChipParams, NocParams
from repro.tile.llc import peek_next_tid, set_next_tid
from repro.workloads.synthetic import SyntheticTraffic

FORMAT = "repro-checkpoint"
FORMAT_VERSION = 1

#: Integer lists at least this long are hoisted into ``.npz`` arrays.
_NPZ_MIN_LEN = 64


# -- parameter (de)serialization ------------------------------------------

def params_state(params: Any) -> dict:
    """Generic frozen-dataclass encoder (enums by value, recursion for
    nested dataclasses)."""
    state = {}
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        if dataclasses.is_dataclass(value):
            value = params_state(value)
        elif isinstance(value, Enum):
            value = value.value
        state[f.name] = value
    return state


def params_from_state(cls: type, state: dict) -> Any:
    """Inverse of :func:`params_state`.

    ``typing.get_type_hints`` resolves the stringified annotations that
    ``from __future__ import annotations`` leaves on the dataclasses.
    """
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for f in dataclasses.fields(cls):
        value = state[f.name]
        hint = hints[f.name]
        origin = typing.get_origin(hint)
        if origin is typing.Union:  # Optional[...]
            args = [a for a in typing.get_args(hint) if a is not type(None)]
            hint = args[0] if len(args) == 1 else hint
        if value is None:
            pass
        elif dataclasses.is_dataclass(hint):
            value = params_from_state(hint, value)
        elif isinstance(hint, type) and issubclass(hint, Enum):
            value = hint(value)
        kwargs[f.name] = value
    return cls(**kwargs)


# -- owner registration ----------------------------------------------------

def _register_network_owners(ctx, network: Network) -> None:
    """Both contexts must register the same owner keys — callbacks in
    the event queue serialize as (owner key, method name)."""
    ctx.register_owner(("net",), network)
    control = getattr(network, "control", None)
    if control is not None:
        ctx.register_owner(("control",), control)


def _register_system_owners(ctx, sim) -> None:
    _register_network_owners(ctx, sim.chip.network)
    ctx.register_owner(("chip",), sim.chip)
    ctx.register_owner(("sim",), sim)
    for core in sim.cores:
        ctx.register_owner(("core", core.node), core)
    for llc in sim.chip.slices:
        ctx.register_owner(("slice", llc.node), llc)


def _network_class(network: Network) -> str:
    """Label recorded for humans inspecting snapshots; restore goes
    through ``build_network``, which dispatches on the saved params
    (``kind`` plus the ``topology`` spec) alone."""
    topo = network.params.topology
    if topo == "mesh":
        return network.params.kind.value
    return f"{network.params.kind.value}@{topo.split(':', 1)[0]}"


# -- network snapshots -----------------------------------------------------

def snapshot_network(
    network: Network, traffic: Optional[SyntheticTraffic] = None
) -> dict:
    """Snapshot a bare network (plus an optional synthetic workload)."""
    ctx = SaveContext()
    _register_network_owners(ctx, network)
    body = network.state_dict(ctx)
    snap = {
        "format": FORMAT,
        "version": FORMAT_VERSION,
        "code_version": CODE_VERSION,
        "kind": "network",
        "network_class": _network_class(network),
        "params": params_state(network.params),
        "network": body,
        "registries": ctx.finalize(),
        "counters": {
            "next_pid": peek_next_pid(),
            "next_tid": peek_next_tid(),
        },
    }
    if traffic is not None:
        snap["traffic"] = traffic.state_dict()
    return snap


def _check_header(snap: dict, expected_kind: str) -> None:
    if snap.get("format") != FORMAT:
        raise ValueError("not a repro checkpoint file")
    if snap.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported snapshot version {snap.get('version')!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    if snap.get("code_version") != CODE_VERSION:
        raise ValueError(
            f"snapshot was written by code version "
            f"{snap.get('code_version')!r}, this build is {CODE_VERSION!r}"
        )
    if snap.get("kind") != expected_kind:
        raise ValueError(
            f"expected a {expected_kind!r} snapshot, got {snap.get('kind')!r}"
        )


def restore_network(snap: dict) -> Tuple[Network, Optional[SyntheticTraffic]]:
    """Rebuild a network (and its workload, if snapshotted) from a
    snapshot produced by :func:`snapshot_network`."""
    _check_header(snap, "network")
    params = params_from_state(NocParams, snap["params"])
    network = build_network(params)
    ctx = RestoreContext(network, snap["registries"])
    _register_network_owners(ctx, network)
    ctx.materialize()
    network.load_state(snap["network"], ctx)
    counters = snap["counters"]
    set_next_pid(counters["next_pid"])
    set_next_tid(counters["next_tid"])
    traffic = None
    if "traffic" in snap:
        traffic = SyntheticTraffic.from_state(network, snap["traffic"])
    return network, traffic


# -- system snapshots ------------------------------------------------------

def snapshot_system(sim) -> dict:
    """Snapshot a full :class:`~repro.perf.system.SystemSimulator`."""
    ctx = SaveContext()
    _register_system_owners(ctx, sim)
    body = sim.state_dict(ctx)
    return {
        "format": FORMAT,
        "version": FORMAT_VERSION,
        "code_version": CODE_VERSION,
        "kind": "system",
        "network_class": _network_class(sim.chip.network),
        "workload": sim.profile.name,
        "noc": sim.noc_kind.value,
        "detailed_llc": sim.chip.slices[0].cache is not None,
        "chip_params": params_state(sim.params),
        "system": body,
        "registries": ctx.finalize(),
        "counters": {
            "next_pid": peek_next_pid(),
            "next_tid": peek_next_tid(),
        },
    }


def restore_system(snap: dict):
    """Rebuild a :class:`~repro.perf.system.SystemSimulator`."""
    from repro.params import NocKind
    from repro.perf.system import SystemSimulator

    _check_header(snap, "system")
    sim = SystemSimulator(
        snap["workload"],
        NocKind(snap["noc"]),
        chip_params=params_from_state(ChipParams, snap["chip_params"]),
        detailed_llc=snap["detailed_llc"],
    )
    ctx = RestoreContext(sim.chip.network, snap["registries"])
    _register_system_owners(ctx, sim)
    ctx.materialize()
    sim.load_state(snap["system"], ctx)
    counters = snap["counters"]
    set_next_pid(counters["next_pid"])
    set_next_tid(counters["next_tid"])
    return sim


# -- digests ---------------------------------------------------------------

def run_digest(sample, stats_summary: dict) -> str:
    """The golden-determinism digest of one system run (matches the form
    pinned in ``tests/test_golden_determinism.py``)."""
    payload = {"sample": sample.to_dict(), "stats": stats_summary}
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=repr).encode()
    ).hexdigest()


# -- file I/O --------------------------------------------------------------

def write_snapshot(snap: dict, path: str) -> None:
    """Write ``snap`` to ``path``; the extension selects the format."""
    if path.endswith(".npz"):
        _write_npz(snap, path)
    elif path.endswith(".json.gz") or path.endswith(".gz"):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(snap, fh)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(snap, fh)


def read_snapshot(path: str) -> dict:
    if path.endswith(".npz"):
        return _read_npz(path)
    if path.endswith(".json.gz") or path.endswith(".gz"):
        with gzip.open(path, "rt", encoding="utf-8") as fh:
            return json.load(fh)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _require_numpy():
    try:
        import numpy
    except ImportError as exc:  # pragma: no cover - env without numpy
        raise RuntimeError(
            "the .npz snapshot format requires numpy; "
            "use a .json or .json.gz path instead"
        ) from exc
    return numpy


def _hoist_arrays(value: Any, arrays: dict, np) -> Any:
    """Replace long all-int lists with ``{"__npz__": key}`` markers."""
    if isinstance(value, dict):
        return {k: _hoist_arrays(v, arrays, np) for k, v in value.items()}
    if isinstance(value, list):
        if len(value) >= _NPZ_MIN_LEN and all(
            type(item) is int for item in value
        ):
            key = f"a{len(arrays)}"
            arrays[key] = np.asarray(value, dtype=np.int64)
            return {"__npz__": key}
        return [_hoist_arrays(item, arrays, np) for item in value]
    return value


def _lower_arrays(value: Any, arrays) -> Any:
    if isinstance(value, dict):
        if set(value) == {"__npz__"}:
            return [int(x) for x in arrays[value["__npz__"]]]
        return {k: _lower_arrays(v, arrays) for k, v in value.items()}
    if isinstance(value, list):
        return [_lower_arrays(item, arrays) for item in value]
    return value


def _write_npz(snap: dict, path: str) -> None:
    np = _require_numpy()
    arrays: dict = {}
    meta = _hoist_arrays(snap, arrays, np)
    arrays["__meta__"] = np.array(json.dumps(meta))
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **arrays)


def _read_npz(path: str) -> dict:
    np = _require_numpy()
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["__meta__"][()]))
        arrays = {key: data[key] for key in data.files if key != "__meta__"}
    return _lower_arrays(meta, arrays)
