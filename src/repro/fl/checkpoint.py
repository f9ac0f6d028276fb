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
records + new model versions) instead of growing with run length:
records live in an append-only JSONL journal (``async_events-<g>.jsonl``)
whose committed prefix is pinned by the manifest. The server's first
state is written once as a full *base* (``async_server_base-<g>.npz``),
and each save writes one payload (``async_payload-<g>.npz``) holding the
FedBuff buffer and every model version the state needs — the server's
current version and the pending dispatches' versions — that no earlier
save of the run stored, each as its arrays that differ from the base:
after round 0 just θ, as the version's one ``theta_slab`` array (see
:mod:`repro.fl.slab`). The frozen ϕ, the bulk of the model, is inherited
from the base, and loading hands every version back slab-backed. A
version never changes once taken, so the manifest maps each needed
version to the payload file that stores it, and a later save refers to
that file instead of writing the version again; the current version is
the server state, and when it is also pending one entry serves both.
Garbage collection keeps exactly the files the manifest names. A torn
trailing journal line from a crash mid-append sits beyond the committed
byte offset and is ignored on load and truncated on the next save;
:func:`compact_async_checkpoint` rewrites the directory from scratch.

Manifests are stamped format 6 and the loader reads nothing else:
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
from repro.fl.slab import (
    SlabLayout,
    SlabState,
    make_slab_state,
    slab_successor,
)
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
    which is safe because model versions are write-once: the next round
    makes a new version and never writes this one.
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
_FORMAT = 6
#: the manifest (its name predates sync runs sharing the format)
_STATE_FILE = "async_state.json"
#: journal rewrites use fresh generation-suffixed names (incremental saves
#: append to the file the committed manifest names), mirroring the npz
#: payloads: the previously committed journal is never clobbered.
_JOURNAL_PREFIX = "async_events"
#: each save's one payload file: async_payload-<generation>.npz
_PAYLOAD_PREFIX = "async_payload"
#: npz key separator; parameter names are dotted paths and never contain it
_SEP = "::"
#: payload entry holding a slab-backed version's whole θ block as one flat
#: array; dotted parameter paths can never collide
_THETA_SLAB_KEY = "__theta_slab__"
#: payload entry prefix of the FedBuff buffer; model versions' entries are
#: prefixed with their version number
_BUFFER = "buffer"


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


#: bit generators whose ``bit_generator.state`` holds only ints and strings
_PLAIN_STATE_GENERATORS = frozenset({"PCG64", "PCG64DXSM"})


def _rng_jsonable(state):
    """An RNG state as the manifest stores it: a PCG64 state is plain ints
    and strings and goes in as it is; an array state goes through
    :func:`_jsonable`. Either way ``json.dumps`` writes the same bytes."""
    if (
        type(state) is dict
        and state.get("bit_generator") in _PLAIN_STATE_GENERATORS
    ):
        return state
    return _jsonable(state)


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
) -> tuple[dict, bool]:
    """Bring the record journal up to date.

    Returns its manifest entry and whether the save continued the
    committed journal (the same run, saved again), which is also what
    lets a save refer to model versions earlier saves stored.

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
    }, incremental


def _array_digest(value: np.ndarray) -> str:
    """Content fingerprint of one array (dtype, shape and exact bytes)."""
    contiguous = np.ascontiguousarray(value)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(contiguous.dtype).encode())
    digest.update(repr(contiguous.shape).encode())
    digest.update(contiguous.data)
    return digest.hexdigest()


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


def _server_base(
    path: str,
    state: RunState,
    previous: dict | None,
    full: bool,
    generation: int,
) -> tuple[dict, bool]:
    """The server base's manifest entry, and whether this save wrote it.

    The *base* is a full state-dict npz, written once (first save,
    compaction, or a base file gone missing), with per-key content digests
    in the manifest; every model version is stored as the arrays that
    differ from it. The digest of the whole θ slab is recorded too.
    """
    entry = None if full else (previous or {}).get("server_base")
    if entry is not None and os.path.exists(os.path.join(path, entry["file"])):
        return entry, False
    server_state = state.server_state
    base_file = f"async_server_base-{generation}.npz"
    digests = {key: _array_digest(value) for key, value in server_state.items()}
    digests[_THETA_SLAB_KEY] = _array_digest(server_state.theta_slab)
    save_state(os.path.join(path, base_file), server_state)
    _fsync_file(os.path.join(path, base_file))
    return {"file": base_file, "digests": digests}, True


def _server_delta(
    server_state: dict[str, np.ndarray], digests: dict[str, str]
) -> dict[str, np.ndarray]:
    """The current version's arrays whose content digests differ from the
    base's — after round 0 just θ, as the one ``theta_slab`` array.

    Change detection is content-based: the base's digests may have been
    written by an earlier process (a resumed run continuing its
    checkpoint), where no array of this process can be compared by
    identity. It runs once per model version, when the version is first
    stored.
    """
    delta: dict[str, np.ndarray] = {}
    slab = server_state.theta_slab
    if digests.get(_THETA_SLAB_KEY) != _array_digest(slab):
        delta[_THETA_SLAB_KEY] = slab
    slab_keys = server_state.layout.key_set
    for key, value in server_state.items():
        if key not in slab_keys and digests.get(key) != _array_digest(value):
            delta[key] = value
    return delta


def _snapshot_delta(
    snapshot: dict[str, np.ndarray],
    server_state: dict[str, np.ndarray],
    inherited: frozenset,
) -> dict[str, np.ndarray]:
    """A pending version's arrays that the base does not already hold.

    The snapshot's θ block is stored as one array. Every other key
    inherits from the base when the current version inherits it
    (``inherited``) and the snapshot holds the same bytes — the frozen ϕ,
    shared by reference between versions, always does.
    """
    if snapshot.keys() != server_state.keys():
        raise ValueError(
            "a pending model version's keys differ from the server state's"
        )
    delta: dict[str, np.ndarray] = {_THETA_SLAB_KEY: snapshot.theta_slab}
    for key, value in snapshot.items():
        if key in server_state.layout.key_set or (
            key in inherited and _bitwise_equal(server_state[key], value)
        ):
            continue
        delta[key] = value
    return delta


def _stored_versions(
    path: str,
    previous: dict | None,
    continued: bool,
    base_written: bool,
    server_slab: list,
    meta: dict,
) -> dict[str, dict]:
    """Version entries of the committed manifest this save may refer to.

    A model version never changes once taken, so a save refers to the
    file an earlier save stored it in — provided the earlier save belongs
    to this run (the journal continued and the metadata agree), stored it
    against the same base and slab packing, and its file still exists.
    Anything else writes the version again.
    """
    if (
        previous is None
        or previous.get("format") != _FORMAT
        or not continued
        or base_written
        or previous["meta"] != meta
        or previous["server_slab"] != server_slab
    ):
        return {}
    present: dict[str, bool] = {}
    stored = {}
    for version, entry in previous["versions"].items():
        name = entry["file"]
        if name not in present:
            present[name] = os.path.exists(os.path.join(path, name))
        if present[name]:
            stored[version] = entry
    return stored


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
    per save, only the new records are appended to the journal, and one
    payload file holds the FedBuff buffer plus each model version no
    earlier save of the run already stored — the server's current version
    and the pending dispatches' versions — as its arrays that differ from
    the base (after round 0 just θ). A version stored earlier is referred
    to by file, so a save costs O(new records + new versions), independent
    of run length and of how long a straggler's round stays in flight.
    ``full=True`` rewrites the journal, the base and every version from
    scratch (compaction).

    Crash safety — checkpoints exist precisely to survive the process
    dying at an arbitrary instruction, including mid-save: journal bytes
    past the previously committed offset are uncommitted until the
    manifest advances, the payload is written under a fresh
    generation-suffixed name (never clobbering the committed set), and
    the JSON manifest referencing both is swapped in with an atomic
    ``os.replace``. A crash at any point leaves the previous complete
    checkpoint loadable; files the new manifest no longer names are
    garbage-collected after the swap.
    """
    with tracing.span("checkpoint.save"):
        _write_checkpoint(path, state, full)


def _write_checkpoint(path: str, state: RunState, full: bool) -> None:
    os.makedirs(path, exist_ok=True)
    previous = _read_manifest(path)
    generation = _current_generation(path, previous) + 1
    payload_file = f"{_PAYLOAD_PREFIX}-{generation}.npz"
    journal, continued = _write_journal(
        path, state, previous, full, generation
    )
    server_state = state.server_state
    # θ packing of slab entries: load needs it to expand a __theta_slab__
    # array back into named arrays.
    server_slab = [
        [key, list(shape)] for key, shape in server_state.layout.signature
    ]
    server_base, base_written = _server_base(
        path, state, previous, full, generation
    )
    versions = _stored_versions(
        path, previous, continued, base_written, server_slab, state.meta
    )
    arrays: dict[str, np.ndarray] = {}

    def store(version: int, delta: dict[str, np.ndarray]) -> None:
        versions[str(version)] = {"file": payload_file, "stored": list(delta)}
        for name, value in delta.items():
            arrays[f"{version}{_SEP}{name}"] = value

    # The current version first: the pending versions' ϕ inherits from
    # the base through it, and when it is itself pending its snapshot is
    # this same entry, never a second copy.
    current = state.server_round_index
    if str(current) not in versions:
        store(
            current,
            {} if base_written else _server_delta(
                server_state, server_base["digests"]
            ),
        )
    stored = versions[str(current)]["stored"]
    covered = (
        server_state.layout.key_set
        if _THETA_SLAB_KEY in stored
        else frozenset()
    )
    inherited = frozenset(server_state) - covered - frozenset(stored)
    for version in sorted(state.snapshots):
        if str(version) not in versions:
            store(
                version,
                _snapshot_delta(
                    state.snapshots[version], server_state, inherited
                ),
            )
    # Exactly the versions this state needs: the current one and the
    # pending ones (older entries of the previous manifest drop out).
    needed = {str(current), *(str(v) for v in state.snapshots)}
    versions = {v: entry for v, entry in versions.items() if v in needed}
    for index, (delta, _) in enumerate(state.aggregator_state):
        for key, value in delta.items():
            arrays[f"{_BUFFER}{_SEP}{index}{_SEP}{key}"] = value
    np.savez(os.path.join(path, payload_file), **arrays)
    payload = {
        "format": _FORMAT,
        "generation": generation,
        "payload": payload_file,
        "journal": journal,
        "server_base": server_base,
        "server_keys": list(server_state),
        "server_slab": server_slab,
        # version -> the payload file storing it and the entries stored
        # there; every other key comes from the base
        "versions": versions,
        "snapshots": sorted(int(v) for v in state.snapshots),
        "clock_now": state.clock_now,
        "scheduler_rng_state": _rng_jsonable(state.scheduler_rng_state),
        "idle_rng_states": {
            str(cid): _rng_jsonable(rng_state)
            for cid, rng_state in state.idle_rng_states.items()
        },
        "pending": [
            {**pending, "rng_state": _rng_jsonable(pending["rng_state"])}
            for pending in state.pending
        ],
        "next_seq": state.next_seq,
        "buffer_weights": [
            weight for _, weight in state.aggregator_state
        ],
        "last_accuracy": state.last_accuracy,
        "cumulative_seconds": state.cumulative_seconds,
        "server_round_index": current,
        "meta": state.meta,
    }
    # Order matters on disk, not just in the process: the journal and the
    # payload must be durable before the manifest referencing them is — a
    # power loss with the manifest committed but a payload still in the
    # page cache would strand an unloadable checkpoint after the old
    # generation is GC'd. (The journal and a new base were fsynced as they
    # were written.)
    _fsync_file(os.path.join(path, payload_file))
    STATS["saves"] += 1
    STATS["payload_bytes"] += os.path.getsize(os.path.join(path, payload_file))
    manifest = os.path.join(path, _STATE_FILE)

    def write_manifest(staging: str) -> None:
        # json.dumps encodes in C; json.dump streams through the pure-Python
        # encoder — same bytes, several times slower on this payload.
        with open(staging, "w") as handle:
            handle.write(json.dumps(payload))

    # Chaos tear hook: die after the payload is durable, before the
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
        # Keep exactly what the manifest names: the base, this payload,
        # the payloads still holding a needed version, and the journal.
        keep = {payload_file, server_base["file"]}
        keep.update(entry["file"] for entry in versions.values())
        for name in os.listdir(path):  # best-effort GC of superseded files
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
    checkpoint, ``EventRecord``s for an async one. The server state, the
    pending snapshots and the FedBuff deltas come back as
    :class:`~repro.fl.slab.SlabState`s in the manifest's recorded
    ``server_slab`` packing, so a resumed run aggregates on the slab like
    an uninterrupted one. Only format-6 manifests load; any other format
    raises ``ValueError``, and so does a file the manifest names that is
    missing.
    """
    from repro.engine.records import EventRecord

    with open(os.path.join(path, _STATE_FILE)) as handle:
        payload = json.load(handle)
    if payload.get("format") != _FORMAT:
        raise ValueError(
            f"checkpoint at {path!r} has format {payload.get('format')!r}; "
            f"only format {_FORMAT} loads"
        )
    versions = payload["versions"]
    base_file = payload["server_base"]["file"]
    referenced = {payload["payload"], base_file, payload["journal"]["file"]}
    referenced.update(entry["file"] for entry in versions.values())
    for name in sorted(referenced):
        if not os.path.exists(os.path.join(path, name)):
            raise ValueError(
                f"corrupt checkpoint: {name!r}, named by the manifest in "
                f"{path!r}, is missing"
            )
    base = load_state(os.path.join(path, base_file))
    keys = payload["server_keys"]
    layout = SlabLayout(
        [
            (key, tuple(int(d) for d in shape))
            for key, shape in payload["server_slab"]
        ]
    )
    archives: dict = {}  # payload file name -> its open npz archive

    def archive(name: str):
        if name not in archives:
            archives[name] = np.load(os.path.join(path, name))
        return archives[name]

    def version_state(version: int) -> SlabState:
        # Stored entries come from the payload that holds the version
        # (each read is a fresh array); every other key comes from the
        # base, shared between versions like ϕ in a running server. θ is
        # the stored slab, or gathered from the base into a fresh one.
        entry = versions[str(version)]
        source = archive(entry["file"])
        stored = {
            name: source[f"{version}{_SEP}{name}"] for name in entry["stored"]
        }
        slab = stored.pop(_THETA_SLAB_KEY, None)
        state = {
            key: stored[key] if key in stored else base[key] for key in keys
        }
        if slab is None:
            return make_slab_state(state, layout)
        return slab_successor(state, slab, layout)

    try:
        server_state = version_state(payload["server_round_index"])
        snapshots = {
            int(version): version_state(version)
            for version in payload["snapshots"]
        }
        deltas: dict[int, dict[str, np.ndarray]] = {}
        source = archive(payload["payload"])
        for name in source.files:
            prefix, _, rest = name.partition(_SEP)
            if prefix == _BUFFER:
                index, key = rest.split(_SEP, 1)
                deltas.setdefault(int(index), {})[key] = source[name]
    finally:
        for opened in archives.values():
            opened.close()
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
            (make_slab_state(deltas[index], layout), weights[index])
            for index in sorted(deltas)
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
    dropout_probability: float = 0.0,
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
    the federation (server, clients, aggregator, timing, dropout
    probability) from the same configuration as the original run — typically by
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
        dropout_probability=dropout_probability,
        max_concurrency=int(state.meta["max_concurrency"]),
        eval_every=int(state.meta["eval_every"]),
        verbose=verbose,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        on_event=on_event,
        emergency_checkpoint=emergency_checkpoint,
        resume=state,
    )
