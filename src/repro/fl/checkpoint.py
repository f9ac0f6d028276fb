"""Checkpointing: persist and resume a federated campaign.

Long campaigns (the `paper` scale runs for days in NumPy) need restart
safety. Both run loops checkpoint one :class:`RunState` through one
writer and read it back through one loader.

*Asynchronous* (`EventLog`) runs capture the virtual clock, the scheduler
and per-client RNG streams, the pending event queue (in-flight rounds as
re-dispatchable descriptors), the FedBuff buffer and the event log. A
*synchronous* run is the simplest case of the same state: every client
idle, nothing pending, no snapshots or buffer, the participation-sampling
stream in the scheduler slot and the round records in the journal.
:func:`resume_sync_federated_training` and
:func:`resume_async_federated_training` share one restore step, and a
resumed run replays the *bitwise-identical* records, accuracies and final
weights of an uninterrupted one, under every execution backend.

The on-disk format is **log-structured** so periodic saves stay O(new
records + changed head) instead of growing with run length: records
live in an append-only JSONL journal (``async_events-<g>.jsonl``) whose
committed prefix is pinned by the manifest; pending-dispatch broadcast
snapshots are delta-encoded against the server state (only keys whose
bytes differ are stored — the frozen ϕ, the bulk of the model, is
inherited); and the server state itself is written as one full *base*
generation plus per-save deltas of the keys whose content digests changed
— after round 0 that is just θ, so a tight-cadence save rewrites the
manifest, the changed head and the (bounded) FedBuff buffer, strictly
below O(model). A slab-backed server state (see :mod:`repro.fl.slab`)
digests and delta-encodes the whole θ block as the *single*
``theta_slab`` array instead of per-key npz entries; the manifest records
the packing so load expands it back to named arrays. A torn trailing
journal line from a crash mid-append sits beyond the committed byte
offset and is ignored on load and truncated on the next save;
:func:`compact_async_checkpoint` rewrites the directory from scratch.

Manifests are stamped format 5 and the loader reads nothing else:
checkpoints are run-scoped scratch, not an interchange format. See
DESIGN.md ("Checkpoint format").
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.fl.client import Client
from repro.fl.rounds import (
    RoundRecord,
    TrainingHistory,
    run_federated_training,
)
from repro.fl.sampling import ParticipationModel
from repro.fl.server import Server
from repro.fl.slab import SlabLayout
from repro.fl.timing import TimingModel
from repro.nn.serialization import load_state, save_state
from repro.obs import tracing
from repro.obs.metrics import export_group
from repro.utils import commit_staged, fsync_path

#: checkpoint runtime counters (module-level: saves happen inside the
#: run loops, far from any session object; the registry picks the
#: group up through the exported-groups source)
STATS = export_group(
    "checkpoint",
    {
        "saves": 0,
        "journal_appends": 0,
        "journal_rewrites": 0,
        "journal_bytes": 0,
        "payload_bytes": 0,
        "compactions": 0,
        "loads": 0,
    },
)

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle:
    # repro.fl's package init imports this module, and the engine modules
    # import repro.fl submodules; engine imports here stay function-local)
    from repro.engine.aggregators import AsyncAggregator
    from repro.engine.availability import AvailabilityModel
    from repro.engine.backends import ExecutionBackend
    from repro.engine.records import EventLog, EventRecord


@dataclass
class RunState:
    """Everything needed to continue a run to the identical records —
    backend-invariant by construction.

    Async runs store in-flight rounds as *pending dispatches* (client id,
    event time/seq, dispatch version, dispatch-time RNG state) plus the
    broadcast snapshot of each dispatched-from model version; resuming
    re-submits them. Idle clients' RNG streams are stored directly — for a
    client with a round in flight the parent-side stream position depends
    on the backend (serial advances at submit, process at collection), so
    only the dispatch-time state is recorded for those.

    A sync run, checkpointed between rounds, is the simplest case (see
    :func:`sync_run_state`): every client is idle, nothing is pending,
    there are no snapshots or buffer, and the participation-sampling
    stream sits in the scheduler slot. ``meta["loop"]`` says which loop
    wrote the state.
    """

    clock_now: float
    scheduler_rng_state: dict
    #: client id -> current RNG state, idle clients only (see above)
    idle_rng_states: dict[int, dict]
    #: serialized pending events: time, seq, client_id, dispatch_version,
    #: duration, kind, rng_state — for updates the dispatch-time client
    #: RNG state (resume re-runs the round from it), for drops the
    #: client's current stream state (no round runs, but the stream must
    #: survive the resume; the client is absent from the idle map)
    pending: list[dict]
    next_seq: int
    #: dispatch_version -> broadcast state the version's rounds started from
    snapshots: dict[int, dict[str, np.ndarray]]
    #: FedBuff's buffered (delta, weight) pairs; empty for FedAsync
    aggregator_state: list[tuple[dict[str, np.ndarray], float]]
    #: ``EventRecord``s (async) or ``RoundRecord``s (sync)
    records: list
    last_accuracy: float
    cumulative_seconds: float
    server_round_index: int
    server_state: dict[str, np.ndarray]
    #: run configuration echoed for validation and resume defaults; its
    #: ``"loop"`` entry is ``"sync"`` or ``"async"``
    meta: dict


def sync_run_state(
    server: Server,
    history: TrainingHistory,
    clients: list[Client],
    sampling_rng: np.random.Generator,
    meta: dict,
) -> RunState:
    """The sync loop's state after a completed round, as a :class:`RunState`.

    ``sampling_rng`` is the loop's participation stream and ``meta`` its
    parameters (total rounds, eval cadence, seed, pool size). The records
    list is copied and RNG ``.state`` reads are fresh dicts, so the state
    stays valid while the loop runs on; the server state is referenced,
    which is safe because aggregation is double-buffered: the next round
    writes into the buffers of the version before this one, never into
    this one.
    """
    return RunState(
        clock_now=0.0,
        scheduler_rng_state=sampling_rng.bit_generator.state,
        idle_rng_states={
            cid: client.rng.bit_generator.state
            for cid, client in enumerate(clients)
        },
        pending=[],
        next_seq=0,
        snapshots={},
        aggregator_state=[],
        records=list(history.records),
        last_accuracy=history.final_accuracy,
        cumulative_seconds=history.total_client_seconds,
        server_round_index=server.round_index,
        server_state=server.global_state,
        meta={**meta, "loop": "sync"},
    )


#: the manifest's format stamp; the loader reads this format only
_FORMAT = 5
#: the manifest (its name predates sync runs sharing the format)
_STATE_FILE = "async_state.json"
#: journal rewrites use fresh generation-suffixed names (incremental saves
#: append to the file the committed manifest names), mirroring the npz
#: payloads: the previously committed journal is never clobbered.
_JOURNAL_PREFIX = "async_events"
#: npz key separator; parameter names are dotted paths and never contain it
_SEP = "::"
#: delta-npz entry holding a slab-backed server state's whole θ block as
#: one flat array; dotted parameter paths can never collide
_THETA_SLAB_KEY = "__theta_slab__"
#: payload files are generation-suffixed: async_<payload>-<generation>.npz
_PAYLOADS = ("server", "snapshots", "buffer")


def _jsonable(obj):
    """Make RNG-state dicts and numpy scalars JSON-round-trippable.

    PCG64 states are plain (big-)int dicts; bit generators with array state
    (Philox, SFC64) are wrapped with an explicit dtype marker so the round
    trip is exact.
    """
    if isinstance(obj, dict):
        return {key: _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(value) for value in obj]
    if isinstance(obj, np.ndarray):
        return {"__ndarray__": obj.tolist(), "dtype": str(obj.dtype)}
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def _unjsonable(obj):
    if isinstance(obj, dict):
        if "__ndarray__" in obj:
            return np.array(obj["__ndarray__"], dtype=obj["dtype"])
        return {key: _unjsonable(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_unjsonable(value) for value in obj]
    return obj


#: flush a written file (or directory) to stable storage — shared with the
#: artifact store's commit path (repro.utils)
_fsync_file = fsync_path


def _current_generation(path: str, manifest: dict | None) -> int:
    """Generation of the committed checkpoint in ``path`` (0 if none).

    ``manifest`` is the committed manifest as :func:`_read_manifest`
    parsed it, so a save reads and parses the manifest once.
    """
    if manifest is not None:
        try:
            return int(manifest["generation"])
        except (ValueError, KeyError):
            pass
    # No committed manifest (or a torn one): derive from the payload files
    # present so new writes never reuse their names.
    generation = 0
    for name in os.listdir(path) if os.path.isdir(path) else []:
        stem, _, suffix = name.rpartition("-")
        if stem.startswith("async_") and suffix.endswith(".npz"):
            try:
                generation = max(generation, int(suffix[:-4]))
            except ValueError:
                pass
    return generation


def _record_line(record) -> bytes:
    """One journal line for a run record; stable across saves.

    Event and round records hold only scalars (and a round's participant
    tuple), so their fields are read directly: the bytes equal
    ``json.dumps(asdict(record))`` without ``asdict``'s recursive deep
    copy.
    """
    payload = (
        record
        if isinstance(record, dict)
        else {f.name: getattr(record, f.name) for f in fields(record)}
    )
    return (json.dumps(payload) + "\n").encode()


def _read_manifest(path: str) -> dict | None:
    """The committed manifest in ``path``, or None (absent or torn)."""
    try:
        with open(os.path.join(path, _STATE_FILE)) as handle:
            return json.load(handle)
    except (FileNotFoundError, json.JSONDecodeError):
        return None


def _write_journal(
    path: str,
    state: RunState,
    previous: dict | None,
    full: bool,
    generation: int,
) -> dict:
    """Bring the record journal up to date; return its manifest entry.

    Incremental path: the previous manifest pins the committed prefix of
    the journal file it names (line count, byte offset, running CRC,
    first-line CRC). New records are appended after truncating any
    uncommitted tail a crashed save left behind. The rewrite path (first
    save, compaction, or a directory whose journal belongs to a different
    run — detected by the first-line CRC) serialises everything into a
    *fresh* generation-suffixed file, never touching the journal the
    committed manifest references — a crash before the manifest swap
    leaves the previous checkpoint fully loadable even across run reuse
    of one directory. The superseded journal is garbage-collected after
    the swap.
    """
    records = state.records
    head_crc = zlib.crc32(_record_line(records[0])) if records else 0
    committed = (previous or {}).get("journal")
    journal_path = (
        os.path.join(path, committed["file"]) if committed else None
    )
    incremental = (
        not full
        and committed is not None
        and committed.get("count", 0) <= len(records)
        and (committed.get("count", 0) == 0 or committed.get("head_crc") == head_crc)
        and os.path.exists(journal_path)
        and os.path.getsize(journal_path) >= committed.get("bytes", 0)
    )
    if incremental:
        journal_file = committed["file"]
        offset = int(committed["bytes"])
        crc = int(committed["crc"])
        fresh = records[int(committed["count"]):]
        with open(journal_path, "r+b") as handle:
            handle.truncate(offset)  # drop any uncommitted/torn tail
            handle.seek(offset)
            for record in fresh:
                line = _record_line(record)
                handle.write(line)
                crc = zlib.crc32(line, crc)
                offset += len(line)
            handle.flush()
            os.fsync(handle.fileno())
        STATS["journal_appends"] += len(fresh)
        STATS["journal_bytes"] += offset - int(committed["bytes"])
    else:
        journal_file = f"{_JOURNAL_PREFIX}-{generation}.jsonl"
        offset = 0
        crc = 0
        with open(os.path.join(path, journal_file), "wb") as handle:
            for record in records:
                line = _record_line(record)
                handle.write(line)
                crc = zlib.crc32(line, crc)
                offset += len(line)
            handle.flush()
            os.fsync(handle.fileno())
        STATS["journal_rewrites"] += 1
        STATS["journal_bytes"] += offset
    return {
        "file": journal_file,
        "count": len(records),
        "bytes": offset,
        "crc": crc,
        "head_crc": head_crc,
    }


def _array_digest(value: np.ndarray) -> str:
    """Content fingerprint of one array (dtype, shape and exact bytes)."""
    contiguous = np.ascontiguousarray(value)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(contiguous.dtype).encode())
    digest.update(repr(contiguous.shape).encode())
    digest.update(contiguous.data)
    return digest.hexdigest()


def _encode_server(
    path: str,
    state: RunState,
    previous: dict | None,
    full: bool,
    generation: int,
) -> tuple[dict, str, list[str]]:
    """Write the server payload as a base + per-generation delta.

    The *base* is a full state-dict npz written once (first save, or
    compaction) whose per-key content digests live in the manifest; every
    subsequent save writes only the keys whose digests changed — after
    round 0 that is just θ, so tight-cadence saves shrink from O(model) to
    O(changed head). Returns the base manifest entry, the delta file name
    and the keys inherited from the base.

    The base is only reused when its file still exists and the manifest
    chain is intact; anything else (deleted file, torn manifest) falls
    back to a fresh full base — a self-contained two-file encoding, never
    a generation chain, so load needs exactly one base + one delta.

    Per-save *CPU* deliberately stays content-based: change detection
    re-digests the current bytes because the aggregation paths recycle θ
    buffers in place (``Server._theta_scratch``,
    ``AsyncAggregator.recycle``), so an array object's identity says
    nothing about its bytes and an identity-memoized digest would
    silently inherit stale values. A slab-backed server state digests —
    and, when changed, writes — the whole θ block as the one
    ``theta_slab`` array: one pass over the same bytes instead of a
    per-key walk, and one npz entry instead of one per parameter. What
    the encoding shrinks either way is the fsync'd *write* path (bytes +
    durability), which dominates a save.
    """
    delta_file = f"async_server-{generation}.npz"
    server_state = state.server_state
    slab = getattr(server_state, "theta_slab", None)
    layout = server_state.layout if slab is not None else None
    base_entry = None if full else (previous or {}).get("server_base")
    if base_entry is not None and not os.path.exists(
        os.path.join(path, base_entry["file"])
    ):
        base_entry = None
    if base_entry is None:
        base_file = f"async_server_base-{generation}.npz"
        digests = {
            key: _array_digest(value) for key, value in server_state.items()
        }
        if slab is not None:
            # The base keeps per-key digests too (a later save may carry a
            # plain-dict state, e.g. after an in-process resume), but the
            # slab digest is what every slab-era save compares against.
            digests[_THETA_SLAB_KEY] = _array_digest(slab)
        base_entry = {"file": base_file, "digests": digests}
        save_state(os.path.join(path, base_file), server_state)
        _fsync_file(os.path.join(path, base_file))
        delta: dict[str, np.ndarray] = {}
        inherited = list(server_state)
    else:
        digests = base_entry["digests"]
        delta = {}
        inherited = []
        slab_keys = (
            frozenset(layout.keys)
            if slab is not None and _THETA_SLAB_KEY in digests
            else frozenset()
        )
        if slab_keys:
            if digests[_THETA_SLAB_KEY] == _array_digest(slab):
                inherited.extend(layout.keys)
            else:
                delta[_THETA_SLAB_KEY] = slab
        for key, value in server_state.items():
            if key in slab_keys:
                continue
            if digests.get(key) == _array_digest(value):
                inherited.append(key)
            else:
                delta[key] = value
    np.savez(os.path.join(path, delta_file), **delta)
    return base_entry, delta_file, inherited


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff the arrays carry identical bytes (not just equal values).

    Value equality would conflate ``-0.0`` with ``+0.0`` and break the
    exact-round-trip contract; comparing the raw byte views does not.
    """
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a is b:
        return True
    return (
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


def _encode_snapshots(
    state: RunState,
) -> tuple[dict[str, np.ndarray], dict[str, list[str]]]:
    """Delta-encode pending snapshots against the server state.

    Returns the npz payload (only arrays whose bytes differ from the
    server's — per version, keyed ``version::param``) and the per-version
    list of *inherited* keys (bytewise equal to the server state, so load
    reconstructs them from the server payload of the same generation).
    Inheritance requires identical dtype, shape and bytes, so the round
    trip is exact; the frozen ϕ — the bulk of the model — always inherits.
    """
    arrays: dict[str, np.ndarray] = {}
    inherits: dict[str, list[str]] = {}
    server = state.server_state
    for version, snapshot in state.snapshots.items():
        inherited: list[str] = []
        for key, value in snapshot.items():
            reference = server.get(key)
            if reference is not None and _bitwise_equal(reference, value):
                inherited.append(key)
            else:
                arrays[f"{version}{_SEP}{key}"] = value
        inherits[str(version)] = inherited
    return arrays, inherits


def save_checkpoint(
    path: str,
    server: Server,
    history: TrainingHistory,
    clients: list[Client],
    sampling_rng: np.random.Generator,
    meta: dict,
) -> None:
    """Write a sync run's state under ``path`` (a directory), atomically.

    ``run_federated_training`` calls this every ``checkpoint_every``
    rounds with its own participation stream and parameters; the state is
    :func:`sync_run_state` and goes through the writer
    :func:`save_async_checkpoint` uses, so after the first save only the
    new round records, the changed θ and the manifest are written.
    :func:`resume_sync_federated_training` continues it bitwise-exactly.
    """
    with tracing.span("checkpoint.save"):
        _write_checkpoint(
            path,
            sync_run_state(server, history, clients, sampling_rng, meta),
            False,
        )


def save_async_checkpoint(
    path: str, state: RunState, full: bool = False
) -> None:
    """Write a run state under ``path`` (a directory), atomically.

    The state is backend-invariant (see :class:`RunState`), so a run
    checkpointed under one execution backend can resume under another.

    Incremental cost — the format is log-structured (module docstring):
    per save, only the new records are appended to the journal, only
    snapshot keys that differ from the server state are written, and the
    server payload is a delta against its base generation (only keys whose
    digests changed — after round 0 just θ) plus the manifest and the
    bounded FedBuff buffer — O(new records + changed head), independent of
    run length and strictly below O(model) at tight cadences. ``full=True``
    forces a from-scratch rewrite of the journal and the server base
    (compaction).

    Crash safety — checkpoints exist precisely to survive the process
    dying at an arbitrary instruction, including mid-save: journal bytes
    past the previously committed offset are uncommitted until the
    manifest advances, the weight payloads are written under fresh
    generation-suffixed names (never clobbering the committed set), and
    the JSON manifest referencing both is swapped in with an atomic
    ``os.replace``. A crash at any point leaves the previous complete
    checkpoint loadable; superseded payload files are garbage-collected on
    the next successful save.
    """
    with tracing.span("checkpoint.save"):
        _write_checkpoint(path, state, full)


def _write_checkpoint(path: str, state: RunState, full: bool) -> None:
    os.makedirs(path, exist_ok=True)
    previous = _read_manifest(path)
    generation = _current_generation(path, previous) + 1
    files = {
        payload: f"async_{payload}-{generation}.npz" for payload in _PAYLOADS
    }
    journal = _write_journal(path, state, previous, full, generation)
    snapshot_arrays, snapshot_inherits = _encode_snapshots(state)
    server_base, server_delta, server_inherits = _encode_server(
        path, state, previous, full, generation
    )
    files["server"] = server_delta
    np.savez(os.path.join(path, files["snapshots"]), **snapshot_arrays)
    np.savez(
        os.path.join(path, files["buffer"]),
        **{
            f"{index}{_SEP}{key}": value
            for index, (delta, _) in enumerate(state.aggregator_state)
            for key, value in delta.items()
        },
    )
    payload = {
        "format": _FORMAT,
        "generation": generation,
        "files": files,
        "journal": journal,
        "snapshot_inherits": snapshot_inherits,
        "server_base": server_base,
        "server_inherits": server_inherits,
        "server_keys": list(state.server_state),
        # θ packing of a slab-backed server state: load needs it to expand
        # a __theta_slab__ delta back into named arrays.
        "server_slab": (
            [
                [key, list(shape)]
                for key, shape in state.server_state.layout.signature
            ]
            if getattr(state.server_state, "theta_slab", None) is not None
            else None
        ),
        "clock_now": state.clock_now,
        "scheduler_rng_state": _jsonable(state.scheduler_rng_state),
        "idle_rng_states": {
            str(cid): _jsonable(rng_state)
            for cid, rng_state in state.idle_rng_states.items()
        },
        "pending": [
            {**pending, "rng_state": _jsonable(pending["rng_state"])}
            for pending in state.pending
        ],
        "next_seq": state.next_seq,
        "buffer_weights": [
            weight for _, weight in state.aggregator_state
        ],
        "last_accuracy": state.last_accuracy,
        "cumulative_seconds": state.cumulative_seconds,
        "server_round_index": state.server_round_index,
        "meta": state.meta,
    }
    # Order matters on disk, not just in the process: the journal and the
    # payloads must be durable before the manifest referencing them is — a
    # power loss with the manifest committed but a payload still in the
    # page cache would strand an unloadable checkpoint after the old
    # generation is GC'd. (The journal was fsynced as it was written.)
    for name in files.values():
        _fsync_file(os.path.join(path, name))
    STATS["saves"] += 1
    STATS["payload_bytes"] += sum(
        os.path.getsize(os.path.join(path, name)) for name in files.values()
    )
    manifest = os.path.join(path, _STATE_FILE)

    def write_manifest(staging: str) -> None:
        # json.dumps encodes in C; json.dump streams through the pure-Python
        # encoder — same bytes, several times slower on this payload.
        with open(staging, "w") as handle:
            handle.write(json.dumps(payload))

    # Chaos tear hook: die after the payloads are durable, before the
    # manifest commit — journal bytes past the committed offset and the
    # fresh-generation npz files are exactly what a real crash strands,
    # and the previous checkpoint must stay loadable (local import: the
    # fault layer lives in the engine package).
    from repro.engine.faults import FAULTS, active_chaos

    def tear() -> bool:
        plan = active_chaos()
        if plan is not None and plan.tear_save():
            FAULTS["chaos_torn_saves"] += 1
            return True
        return False

    def gc_superseded() -> None:
        keep = set(files.values()) | {server_base["file"]}
        for name in os.listdir(path):  # best-effort GC of superseded payloads
            superseded = (
                name.startswith("async_")
                and name.endswith(".npz")
                and name not in keep
            ) or (
                name.startswith(_JOURNAL_PREFIX)
                and name != journal["file"]
            )
            if superseded:
                try:
                    os.remove(os.path.join(path, name))
                except OSError:  # pragma: no cover - concurrent cleanup
                    pass

    commit_staged(manifest, write_manifest, abort=tear, gc=gc_superseded)


def _load_journal(path: str, journal: dict) -> list[dict]:
    """Read the committed journal prefix; torn tails beyond it are ignored.

    Only the first ``journal["bytes"]`` bytes are read — those were fsynced
    before the manifest committed, so a partial trailing line written by a
    crashed later save (or a crash mid-append) sits past the committed
    offset and never reaches the parser. The running CRC pins the prefix
    against directory mix-ups.
    """
    journal_path = os.path.join(path, journal["file"])
    expected_bytes = int(journal["bytes"])
    with open(journal_path, "rb") as handle:
        data = handle.read(expected_bytes)
    if len(data) < expected_bytes:
        raise ValueError(
            f"corrupt checkpoint: journal holds {len(data)} of the "
            f"{expected_bytes} committed bytes"
        )
    if zlib.crc32(data) != int(journal["crc"]):
        raise ValueError(
            "corrupt checkpoint: journal bytes do not match the manifest CRC"
        )
    records = [json.loads(line) for line in data.splitlines()]
    if len(records) != int(journal["count"]):
        raise ValueError(
            f"corrupt checkpoint: journal holds {len(records)} records, "
            f"manifest committed {journal['count']}"
        )
    return records


def load_async_checkpoint(path: str) -> RunState:
    """Read a run state written by either loop's checkpoint writer.

    ``meta["loop"]`` decides the record type: ``RoundRecord``s for a sync
    checkpoint, ``EventRecord``s for an async one. Only format-5
    manifests load; any other format raises ``ValueError``.
    """
    from repro.engine.records import EventRecord

    with open(os.path.join(path, _STATE_FILE)) as handle:
        payload = json.load(handle)
    if payload.get("format") != _FORMAT:
        raise ValueError(
            f"checkpoint at {path!r} has format {payload.get('format')!r}; "
            f"only format {_FORMAT} loads"
        )
    files = payload["files"]
    # Inherited keys come from the base generation's full payload, changed
    # keys from the delta; a slab delta carries the whole changed θ block
    # as one flat array, expanded here per the manifest's recorded packing.
    base = load_state(os.path.join(path, payload["server_base"]["file"]))
    delta = load_state(os.path.join(path, files["server"]))
    slab_flat = delta.pop(_THETA_SLAB_KEY, None)
    slab_views: dict[str, np.ndarray] = {}
    if slab_flat is not None:
        layout = SlabLayout(
            [
                (key, tuple(int(d) for d in shape))
                for key, shape in payload["server_slab"]
            ]
        )
        slab_views = layout.views(slab_flat)
    inherited = set(payload["server_inherits"])
    server_state = {
        key: (
            base[key]
            if key in inherited
            else delta[key] if key in delta else slab_views[key]
        )
        for key in payload["server_keys"]
    }
    # Delta-decoded snapshots: inherited keys come from the same
    # generation's server payload, stored keys from the snapshots payload.
    snapshots: dict[int, dict[str, np.ndarray]] = {
        int(version): {key: server_state[key].copy() for key in keys}
        for version, keys in payload["snapshot_inherits"].items()
    }
    with np.load(os.path.join(path, files["snapshots"])) as archive:
        for name in archive.files:
            version, key = name.split(_SEP, 1)
            snapshots.setdefault(int(version), {})[key] = archive[name].copy()
    deltas: dict[int, dict[str, np.ndarray]] = {}
    with np.load(os.path.join(path, files["buffer"])) as archive:
        for name in archive.files:
            index, key = name.split(_SEP, 1)
            deltas.setdefault(int(index), {})[key] = archive[name].copy()
    weights = [float(w) for w in payload["buffer_weights"]]
    if len(deltas) != len(weights):
        raise ValueError(
            f"corrupt checkpoint: {len(deltas)} buffered deltas vs "
            f"{len(weights)} weights"
        )
    records = _load_journal(path, payload["journal"])
    if payload["meta"]["loop"] == "sync":
        records = [
            RoundRecord(**{**r, "participants": tuple(r["participants"])})
            for r in records
        ]
    else:
        records = [EventRecord(**record) for record in records]
    STATS["loads"] += 1
    return RunState(
        clock_now=float(payload["clock_now"]),
        scheduler_rng_state=_unjsonable(payload["scheduler_rng_state"]),
        idle_rng_states={
            int(cid): _unjsonable(state)
            for cid, state in payload["idle_rng_states"].items()
        },
        pending=[
            {**pending, "rng_state": _unjsonable(pending["rng_state"])}
            for pending in payload["pending"]
        ],
        next_seq=int(payload["next_seq"]),
        snapshots=snapshots,
        aggregator_state=[
            (deltas[index], weights[index]) for index in sorted(deltas)
        ],
        records=records,
        last_accuracy=float(payload["last_accuracy"]),
        cumulative_seconds=float(payload["cumulative_seconds"]),
        server_round_index=int(payload["server_round_index"]),
        server_state=server_state,
        meta=payload["meta"],
    )


def compact_async_checkpoint(path: str) -> RunState:
    """Rewrite the checkpoint directory from its committed state.

    Compaction re-serialises everything — the journal from scratch (so any
    uncommitted torn tail is physically dropped, not just ignored), fresh
    payload generations, a fresh manifest — and garbage-collects the rest.
    Resume runs it before continuing to journal into the same directory.
    Returns the loaded state so callers can reuse it.
    """
    with tracing.span("checkpoint.compact"):
        state = load_async_checkpoint(path)
        save_async_checkpoint(path, state, full=True)
    STATS["compactions"] += 1
    return state


def _restore(
    path: str,
    loop: str,
    server: Server,
    clients: list[Client],
    checkpoint_path: str | None,
    checkpoint_every: int,
) -> RunState:
    """The restore step both resume entry points share.

    Loads ``path`` — compacting it first when the continuation checkpoints
    into the directory it resumes from, so the incremental appends start
    from a clean committed prefix — refuses the other loop's checkpoint
    and a different pool size, and installs the server state.
    """
    if checkpoint_path == path and checkpoint_every > 0:
        state = compact_async_checkpoint(path)
    else:
        state = load_async_checkpoint(path)
    if state.meta["loop"] != loop:
        raise ValueError(
            f"checkpoint at {path!r} was written by the "
            f"{state.meta['loop']} loop; resume_{loop}_federated_training "
            f"continues only the {loop} loop"
        )
    if state.meta["num_clients"] != len(clients):
        raise ValueError(
            f"checkpoint was written with {state.meta['num_clients']} "
            f"clients but {len(clients)} were provided"
        )
    server.set_global_state(state.server_state)
    server.model.load_state_dict(state.server_state)
    server.round_index = state.server_round_index
    return state


def resume_sync_federated_training(
    path: str,
    server: Server,
    clients: list[Client],
    participation: ParticipationModel | None = None,
    timing: TimingModel | None = None,
    backend: "ExecutionBackend | None" = None,
    verbose: bool = False,
    feature_runtime=None,
    checkpoint_path: str | None = None,
    checkpoint_every: int = 0,
    on_round=None,
    emergency_checkpoint: bool = False,
) -> TrainingHistory:
    """Continue a sync checkpoint **bitwise identically**.

    Restores the global model, the round records, the participation-
    sampling RNG stream and every client's RNG stream, then continues
    ``run_federated_training`` at the next absolute round with the
    original total-round count, evaluation cadence and seed from the
    checkpoint's metadata. A run killed between rounds and resumed this
    way reproduces the uninterrupted run's participant draws, selection
    scores, accuracies and final weights byte for byte.

    The caller rebuilds the federation (server, clients, participation,
    timing) from the same configuration as the original run; everything
    the loop *mutates* comes from the checkpoint. An async checkpoint is
    refused with ``ValueError``.
    """
    state = _restore(
        path, "sync", server, clients, checkpoint_path, checkpoint_every
    )
    return run_federated_training(
        server,
        clients,
        rounds=int(state.meta["rounds"]),
        seed=int(state.meta["seed"]),
        participation=participation,
        timing=timing,
        eval_every=int(state.meta["eval_every"]),
        backend=backend,
        verbose=verbose,
        feature_runtime=feature_runtime,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        on_round=on_round,
        emergency_checkpoint=emergency_checkpoint,
        resume=state,
    )


def resume_async_federated_training(
    path: str,
    server: Server,
    clients: list[Client],
    aggregator: "AsyncAggregator",
    timing: TimingModel | None = None,
    backend: "ExecutionBackend | None" = None,
    availability: "AvailabilityModel | None" = None,
    verbose: bool = False,
    checkpoint_path: str | None = None,
    checkpoint_every: int = 0,
    on_event: "Callable[[EventRecord], None] | None" = None,
    emergency_checkpoint: bool = False,
) -> "EventLog":
    """Continue a checkpointed async run to its original ``max_events``.

    The resumed run is **bitwise identical** to an uninterrupted one: the
    virtual clock, scheduler and client RNG streams, pending completions
    (re-run from their dispatch-time RNG state and broadcast snapshot) and
    the FedBuff buffer are all part of the checkpoint. The caller rebuilds
    the federation (server, clients, aggregator, timing, availability)
    from the same configuration as the original run — typically by
    re-running the same deterministic setup code; everything the run
    *mutates* comes from the checkpoint. ``max_events``, ``eval_every``,
    ``max_concurrency`` and the scheduler seed are taken from the
    checkpoint's metadata. A sync checkpoint is refused with
    ``ValueError``.
    """
    from repro.engine.runner import run_async_federated_training

    state = _restore(
        path, "async", server, clients, checkpoint_path, checkpoint_every
    )
    return run_async_federated_training(
        server,
        clients,
        aggregator,
        max_events=int(state.meta["max_events"]),
        seed=int(state.meta["seed"]),
        timing=timing,
        backend=backend,
        availability=availability,
        max_concurrency=int(state.meta["max_concurrency"]),
        eval_every=int(state.meta["eval_every"]),
        verbose=verbose,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        on_event=on_event,
        emergency_checkpoint=emergency_checkpoint,
        resume=state,
    )
