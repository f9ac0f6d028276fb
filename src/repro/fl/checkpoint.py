"""Checkpointing: persist and resume a federated campaign.

Long campaigns (the `paper` scale runs for days in NumPy) need restart
safety. A *synchronous* checkpoint captures the global model state, the
round index and the run history — and, when written from inside the loop
(format 2), the sync *runtime*: the participation-sampling RNG stream and
every client's RNG stream, in client order.
:func:`resume_sync_federated_training` restores those streams and
continues at the next absolute round, so the resumed run is **bitwise
identical** to an uninterrupted one — same participant draws, same
selection scores, same weights, same evaluation cadence. Checkpoints
without the runtime (format 1, or saved outside the loop) resume through
:func:`resume_federated_training`, which is statistically equivalent but
not bitwise identical.

*Asynchronous* (`EventLog`) runs checkpoint strictly stronger state: the
virtual clock, the scheduler and per-client RNG streams, the pending event
queue (in-flight rounds as re-dispatchable descriptors), the FedBuff
buffer and the event log itself — everything in
:class:`~repro.engine.runner.AsyncRunState`. A resumed async run replays
the *bitwise-identical* event sequence, accuracies and final weights of an
uninterrupted run, under every execution backend.

The on-disk format is **log-structured** so periodic saves stay O(new
events + changed head) instead of growing with run length: event records
live in an append-only JSONL journal (``async_events.jsonl``) whose
committed prefix is pinned by the manifest; pending-dispatch broadcast
snapshots are delta-encoded against the server state (only keys whose
bytes differ are stored — the frozen ϕ, the bulk of the model, is
inherited); and the server state itself is written as one full *base*
generation plus per-save deltas of the keys whose content digests changed
— after round 0 that is just θ, so a tight-cadence save rewrites the
manifest, the changed head and the (bounded) FedBuff buffer, strictly
below O(model). A slab-backed server state (format 4, see
:mod:`repro.fl.slab`) digests and delta-encodes the whole θ block as the
*single* ``theta_slab`` array instead of per-key npz entries; the
manifest records the packing so load expands it back to named arrays. A torn trailing journal line from a crash mid-append sits beyond
the committed byte offset and is ignored on load and truncated on the
next save; :func:`compact_async_checkpoint` rewrites the directory from
scratch. See DESIGN.md ("Async checkpoint format").
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from dataclasses import fields
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
from repro.utils import commit_staged, fsync_path, make_rng

#: checkpoint runtime counters (module-level: saves happen inside the
#: engine loop, far from any session object; the registry picks the
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
    from repro.engine.runner import AsyncRunState


def _encode_records(records) -> list[dict]:
    """JSON-encode round records for a sync checkpoint payload."""
    return [
        {
            "round_index": r.round_index,
            "test_accuracy": r.test_accuracy,
            "participants": list(r.participants),
            "selected_samples": r.selected_samples,
            "client_seconds": r.client_seconds,
            "cumulative_client_seconds": r.cumulative_client_seconds,
            "mean_local_loss": r.mean_local_loss,
            "evaluated": r.evaluated,
        }
        for r in records
    ]


def _sync_generation(path: str) -> int:
    """Highest committed sync state-file generation in ``path`` (0 if none)."""
    generation = 0
    for name in os.listdir(path) if os.path.isdir(path) else []:
        if name.startswith("global_state-") and name.endswith(".npz"):
            try:
                generation = max(
                    generation, int(name[len("global_state-"):-4])
                )
            except ValueError:
                pass
    return generation


def _write_sync_checkpoint(path: str, state, payload: dict) -> None:
    """Commit a sync checkpoint: fresh state generation, atomic history swap.

    The model state is written under a fresh generation-suffixed name
    (``global_state-<g>.npz``) that ``payload["state_file"]`` records, so
    the state file the committed ``history.json`` references is never
    clobbered by a later save — a crash (or an injected chaos tear) at any
    point mid-save leaves the *previous* checkpoint fully loadable.
    Superseded state files are garbage-collected only after the swap.
    """
    os.makedirs(path, exist_ok=True)
    state_file = f"global_state-{_sync_generation(path) + 1}.npz"
    payload["state_file"] = state_file
    save_state(os.path.join(path, state_file), state)
    history_path = os.path.join(path, "history.json")

    def write_history(staging: str) -> None:
        with open(staging, "w") as handle:
            json.dump(payload, handle)

    # Chaos tear hook: simulate the process dying after the payloads are
    # durable but before the commit point (local import: the fault layer
    # lives in the engine package, which imports fl submodules).
    from repro.engine.faults import FAULTS, active_chaos

    def tear() -> bool:
        plan = active_chaos()
        if plan is not None and plan.tear_save():
            FAULTS["chaos_torn_saves"] += 1
            return True
        return False

    def gc_superseded() -> None:
        for name in os.listdir(path):  # best-effort GC of superseded states
            superseded = name != state_file and (
                name == "global_state.npz"
                or (name.startswith("global_state-") and name.endswith(".npz"))
            )
            if superseded:
                try:
                    os.remove(os.path.join(path, name))
                except OSError:  # pragma: no cover - concurrent cleanup
                    pass

    commit_staged(history_path, write_history, abort=tear, gc=gc_superseded)


def save_checkpoint(
    path: str,
    server: Server,
    history: TrainingHistory,
    clients: list[Client] | None = None,
    sampling_rng: np.random.Generator | None = None,
    meta: dict | None = None,
) -> None:
    """Write the global model and run history under ``path`` (a directory).

    With ``clients`` and ``sampling_rng`` (the loop's own participation
    stream), the checkpoint additionally captures the synchronous runtime
    — every RNG stream a round consumes, in client order — which promotes
    the resume from statistically-equivalent to bitwise-exact (format 2;
    see :func:`resume_sync_federated_training`). ``meta`` carries the loop
    parameters the exact resume needs (total rounds, eval cadence, seed,
    client count); ``run_federated_training`` supplies all of this when
    saving from inside the loop. The state file is generation-suffixed and
    the history file swapped in with an atomic replace, so a crash at any
    point mid-save leaves the previous checkpoint loadable.
    """
    payload = {
        "format": 2,
        "round_index": server.round_index,
        "records": _encode_records(history.records),
    }
    if clients is not None and sampling_rng is not None:
        payload["sync_runtime"] = {
            "sampling_rng_state": _jsonable(sampling_rng.bit_generator.state),
            "client_rng_states": [
                _jsonable(client.rng.bit_generator.state) for client in clients
            ],
            # The loop's round counter, not ``server.round_index``: rounds
            # with an empty participant set advance the loop but not the
            # server's aggregation count.
            "rounds_completed": (
                history.records[-1].round_index if history.records else 0
            ),
            "meta": dict(meta or {}),
        }
    _write_sync_checkpoint(path, server.global_state, payload)


def save_emergency_sync_checkpoint(
    path: str, stash: dict, history: TrainingHistory
) -> None:
    """Write a format-2 checkpoint from an end-of-round *stash* on the way
    down.

    ``run_federated_training(emergency_checkpoint=True)`` snapshots, after
    every completed round, the references and RNG-state dicts a format-2
    checkpoint needs (global state, round indices, the sampling stream and
    every client stream). When a later round crashes mid-flight, this
    writes that stash — never the live, half-mutated server — so the
    emergency checkpoint is exactly what a periodic save at the end of the
    stashed round would have written, and
    :func:`resume_sync_federated_training` continues it bitwise-exactly.
    History records past the stashed round (a crash inside the periodic
    save can leave one) are truncated for consistency.
    """
    done = int(stash["rounds_completed"])
    records = [r for r in history.records if r.round_index <= done]
    payload = {
        "format": 2,
        "round_index": int(stash["round_index"]),
        "records": _encode_records(records),
        "sync_runtime": {
            "sampling_rng_state": _jsonable(stash["sampling_rng_state"]),
            "client_rng_states": [
                _jsonable(state) for state in stash["client_rng_states"]
            ],
            "rounds_completed": done,
            "meta": dict(stash["meta"]),
        },
    }
    _write_sync_checkpoint(path, stash["global_state"], payload)


def load_checkpoint(path: str, server: Server) -> TrainingHistory:
    """Restore the global model into ``server`` and return the history.

    The history file names the state generation it was committed with
    (``state_file``); legacy checkpoints fall back to the fixed
    ``global_state.npz`` name.
    """
    with open(os.path.join(path, "history.json")) as handle:
        payload = json.load(handle)
    state = load_state(
        os.path.join(path, payload.get("state_file", "global_state.npz"))
    )
    server.set_global_state(state)
    server.model.load_state_dict(state)
    server.round_index = int(payload["round_index"])
    history = TrainingHistory()
    for r in payload["records"]:
        history.append(
            RoundRecord(
                round_index=int(r["round_index"]),
                test_accuracy=float(r["test_accuracy"]),
                participants=tuple(int(p) for p in r["participants"]),
                selected_samples=int(r["selected_samples"]),
                client_seconds=float(r["client_seconds"]),
                cumulative_client_seconds=float(r["cumulative_client_seconds"]),
                mean_local_loss=float(r["mean_local_loss"]),
                # Checkpoints written before the flag existed evaluated
                # every round, so True is the faithful default.
                evaluated=bool(r.get("evaluated", True)),
            )
        )
    return history


def resume_federated_training(
    path: str,
    server: Server,
    clients: list[Client],
    total_rounds: int,
    seed: int = 0,
    participation: ParticipationModel | None = None,
    timing: TimingModel | None = None,
    eval_every: int = 1,
) -> TrainingHistory:
    """Continue a checkpointed campaign up to ``total_rounds``.

    The resumed run is statistically equivalent to the original (same
    global model, same remaining round count) but not bitwise identical:
    this path re-seeds fresh RNG streams instead of restoring the
    checkpointed ones. It works for any sync checkpoint, including legacy
    format-1 directories; for checkpoints written from inside the training
    loop, :func:`resume_sync_federated_training` is the bitwise-exact
    resume. Records from the checkpoint and the continuation are
    concatenated, with the continuation's round indices and cumulative
    times offset to follow on.
    """
    history = load_checkpoint(path, server)
    done = server.round_index
    if done >= total_rounds:
        return history
    continuation = run_federated_training(
        server,
        clients,
        rounds=total_rounds - done,
        seed=seed + done,
        participation=participation,
        timing=timing,
        eval_every=eval_every,
    )
    offset_seconds = history.total_client_seconds
    for record in continuation.records:
        history.append(
            RoundRecord(
                round_index=record.round_index + done,
                test_accuracy=record.test_accuracy,
                participants=record.participants,
                selected_samples=record.selected_samples,
                client_seconds=record.client_seconds,
                cumulative_client_seconds=(
                    record.cumulative_client_seconds + offset_seconds
                ),
                mean_local_loss=record.mean_local_loss,
                evaluated=record.evaluated,
            )
        )
    server.round_index = total_rounds
    return history


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
    """Continue a format-2 sync checkpoint **bitwise identically**.

    Restores the global model, the run history, the participation-sampling
    RNG stream and every client's RNG stream from the checkpoint, then
    continues ``run_federated_training`` at the next absolute round with
    the original total-round count and evaluation cadence from the
    checkpoint's metadata. A run killed between rounds and resumed this
    way reproduces the uninterrupted run's participant draws, selection
    scores, accuracies and final weights byte for byte.

    The caller rebuilds the federation (server, clients, participation,
    timing) from the same configuration as the original run; everything
    the loop *mutates* comes from the checkpoint. Raises ``ValueError``
    for checkpoints without the sync runtime (saved by format-1 code or
    outside the loop) — those resume through
    :func:`resume_federated_training` instead.
    """
    with open(os.path.join(path, "history.json")) as handle:
        payload = json.load(handle)
    runtime = payload.get("sync_runtime")
    if runtime is None:
        raise ValueError(
            "checkpoint has no sync runtime (format 1, or saved outside "
            "the training loop); use resume_federated_training for a "
            "statistical resume"
        )
    if len(runtime["client_rng_states"]) != len(clients):
        raise ValueError(
            f"checkpoint was written with "
            f"{len(runtime['client_rng_states'])} clients but "
            f"{len(clients)} were provided"
        )
    history = load_checkpoint(path, server)
    for client, rng_state in zip(clients, runtime["client_rng_states"]):
        client.rng.bit_generator.state = _unjsonable(rng_state)
    sampling_rng = make_rng(0)
    sampling_rng.bit_generator.state = _unjsonable(
        runtime["sampling_rng_state"]
    )
    meta = runtime.get("meta") or {}
    rounds = int(meta["rounds"])
    done = int(runtime["rounds_completed"])
    if done >= rounds:
        return history
    return run_federated_training(
        server,
        clients,
        rounds=rounds,
        seed=int(meta.get("seed", 0)),
        participation=participation,
        timing=timing,
        eval_every=int(meta.get("eval_every", 1)),
        backend=backend,
        verbose=verbose,
        feature_runtime=feature_runtime,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        on_round=on_round,
        emergency_checkpoint=emergency_checkpoint,
        history=history,
        start_round=done,
        sampling_rng=sampling_rng,
    )


# ---------------------------------------------------------------------------
# Asynchronous (EventLog) checkpoints
# ---------------------------------------------------------------------------

_ASYNC_STATE_FILE = "async_state.json"
#: journal rewrites use fresh generation-suffixed names (incremental saves
#: append to the file the committed manifest names), mirroring the npz
#: payloads: the previously committed journal is never clobbered.
_ASYNC_JOURNAL_PREFIX = "async_events"
#: npz key separator; parameter names are dotted paths and never contain it
_SEP = "::"
#: delta-npz entry holding a slab-backed server state's whole θ block as
#: one flat array (format 4); dotted parameter paths can never collide
_THETA_SLAB_KEY = "__theta_slab__"
#: payload files are generation-suffixed: async_<payload>-<generation>.npz
_ASYNC_PAYLOADS = ("server", "snapshots", "buffer")


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
    # No committed manifest (or a legacy/torn one): derive from the
    # payload files present so new writes never reuse their names.
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
    """One journal line for an event record; stable across saves.

    Event records hold only scalars, so their fields are read directly:
    the bytes equal ``json.dumps(asdict(record))`` without ``asdict``'s
    recursive deep copy.
    """
    payload = (
        record
        if isinstance(record, dict)
        else {f.name: getattr(record, f.name) for f in fields(record)}
    )
    return (json.dumps(payload) + "\n").encode()


def _read_manifest(path: str) -> dict | None:
    """The committed manifest in ``path``, or None (absent/legacy/torn)."""
    try:
        with open(os.path.join(path, _ASYNC_STATE_FILE)) as handle:
            return json.load(handle)
    except (FileNotFoundError, json.JSONDecodeError):
        return None


def _write_journal(
    path: str,
    state: "AsyncRunState",
    previous: dict | None,
    full: bool,
    generation: int,
) -> dict:
    """Bring the event journal up to date; return its manifest entry.

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
        journal_file = f"{_ASYNC_JOURNAL_PREFIX}-{generation}.jsonl"
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
    state: "AsyncRunState",
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
    chain is intact; anything else (legacy directory, deleted file)
    falls back to a fresh full base — a self-contained two-file encoding,
    never a generation chain, so load needs exactly one base + one delta.

    Per-save *CPU* deliberately stays content-based: change detection
    re-digests the current bytes because the aggregation paths recycle θ
    buffers in place (``Server._theta_scratch``,
    ``AsyncAggregator.recycle``), so an array object's identity says
    nothing about its bytes and an identity-memoized digest would
    silently inherit stale values. A slab-backed server state (format 4)
    digests — and, when changed, writes — the whole θ block as the one
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
    state: "AsyncRunState",
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


def save_async_checkpoint(
    path: str, state: "AsyncRunState", full: bool = False
) -> None:
    """Write an async run state under ``path`` (a directory), atomically.

    The state is backend-invariant (see
    :class:`~repro.engine.runner.AsyncRunState`), so a run checkpointed
    under one execution backend can resume under another.

    Incremental cost — the format is log-structured (module docstring):
    per save, only the new event records are appended to the journal, only
    snapshot keys that differ from the server state are written, and the
    server payload is a delta against its base generation (only keys whose
    digests changed — after round 0 just θ) plus the manifest and the
    bounded FedBuff buffer — O(new events + changed head), independent of
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
        _save_async_checkpoint(path, state, full)


def _save_async_checkpoint(
    path: str, state: "AsyncRunState", full: bool
) -> None:
    os.makedirs(path, exist_ok=True)
    previous = _read_manifest(path)
    generation = _current_generation(path, previous) + 1
    files = {
        payload: f"async_{payload}-{generation}.npz"
        for payload in _ASYNC_PAYLOADS
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
        "format": 4,
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
    manifest = os.path.join(path, _ASYNC_STATE_FILE)

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
                name.startswith(_ASYNC_JOURNAL_PREFIX)
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


def load_async_checkpoint(path: str) -> "AsyncRunState":
    """Read an async run state written by :func:`save_async_checkpoint`.

    Both the log-structured format and the legacy inline-records format
    (pre-journal manifests with full snapshot payloads) load transparently.
    """
    from repro.engine.records import EventRecord
    from repro.engine.runner import AsyncRunState

    with open(os.path.join(path, _ASYNC_STATE_FILE)) as handle:
        payload = json.load(handle)
    files = payload["files"]
    if "server_base" in payload:
        # Base + delta encoding (format 3+): inherited keys come from the
        # base generation's full payload, changed keys from the delta. A
        # format-4 slab delta carries the whole changed θ block as one
        # flat array, expanded here per the manifest's recorded packing.
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
        order = payload.get("server_keys") or (
            payload["server_inherits"] + sorted(delta) + sorted(slab_views)
        )
        server_state = {
            key: (
                base[key]
                if key in inherited
                else delta[key] if key in delta else slab_views[key]
            )
            for key in order
        }
    else:  # legacy format: the server payload is the full state dict
        server_state = load_state(os.path.join(path, files["server"]))
    snapshots: dict[int, dict[str, np.ndarray]] = {}
    # Delta-decoded snapshots: inherited keys come from the same
    # generation's server payload, stored keys from the snapshots payload.
    for version, inherited in payload.get("snapshot_inherits", {}).items():
        snapshots[int(version)] = {
            key: server_state[key].copy() for key in inherited
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
    if "journal" in payload:
        records = _load_journal(path, payload["journal"])
    else:  # legacy format: the full event list lives in the manifest
        records = payload["records"]
    STATS["loads"] += 1
    return AsyncRunState(
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
        records=[EventRecord(**record) for record in records],
        last_accuracy=float(payload["last_accuracy"]),
        cumulative_seconds=float(payload["cumulative_seconds"]),
        server_round_index=int(payload["server_round_index"]),
        server_state=server_state,
        meta=payload["meta"],
    )


def compact_async_checkpoint(path: str) -> "AsyncRunState":
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

    Unlike the synchronous :func:`resume_federated_training`, the resumed
    run is **bitwise identical** to an uninterrupted one: the virtual
    clock, scheduler and client RNG streams, pending completions (re-run
    from their dispatch-time RNG state and broadcast snapshot) and the
    FedBuff buffer are all part of the checkpoint. The caller rebuilds the
    federation (server, clients, aggregator, timing, availability) from
    the same configuration as the original run — typically by re-running
    the same deterministic setup code; everything the run *mutates* comes
    from the checkpoint. ``max_events``, ``eval_every``,
    ``max_concurrency`` and the scheduler seed are taken from the
    checkpoint's metadata.

    When the continuation checkpoints into the *same* directory it resumed
    from, the directory is compacted first (full journal rewrite, fresh
    payload generation) so the incremental appends start from a clean
    committed prefix.
    """
    from repro.engine.runner import run_async_federated_training

    if checkpoint_path == path and checkpoint_every > 0:
        state = compact_async_checkpoint(path)
    else:
        state = load_async_checkpoint(path)
    if state.meta["num_clients"] != len(clients):
        raise ValueError(
            f"checkpoint was written with {state.meta['num_clients']} "
            f"clients but {len(clients)} were provided"
        )
    server.set_global_state(state.server_state)
    server.model.load_state_dict(state.server_state)
    server.round_index = state.server_round_index
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
