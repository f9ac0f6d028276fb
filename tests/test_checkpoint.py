"""Checkpoint/resume of federated campaigns (sync and async)."""

import json
import os

import numpy as np
import pytest

from repro.engine.aggregators import FedAsyncAggregator, FedBuffAggregator
from repro.engine.backends import ProcessPoolBackend
from repro.engine.runner import run_async_federated_training
from repro.fl.checkpoint import (
    STATS,
    load_async_checkpoint,
    resume_async_federated_training,
    resume_sync_federated_training,
    save_checkpoint,
)
from repro.fl.rounds import run_federated_training
from repro.fl.timing import TimingModel
from repro.testbed import tiny_federation

RNG = np.random.default_rng


def make_federation(seed=0, num_clients=3):
    return tiny_federation(seed=seed, num_clients=num_clients)


def test_checkpoint_roundtrip(tmp_path):
    """A sync save loads back as the simplest run state: records, server
    state and every RNG stream, nothing pending."""
    server, clients = make_federation()
    history = run_federated_training(
        server, clients, rounds=3, seed=0, timing=TimingModel()
    )
    path = os.path.join(tmp_path, "ckpt")
    sampling_rng = RNG(7)
    meta = {"rounds": 3, "eval_every": 1, "seed": 0, "num_clients": 3}
    save_checkpoint(path, server, history, clients, sampling_rng, meta)

    state = load_async_checkpoint(path)
    assert state.meta == {**meta, "loop": "sync"}
    assert state.server_round_index == 3
    assert state.records == history.records
    assert state.scheduler_rng_state == sampling_rng.bit_generator.state
    assert state.idle_rng_states == {
        cid: client.rng.bit_generator.state
        for cid, client in enumerate(clients)
    }
    assert not state.pending and not state.snapshots
    assert not state.aggregator_state
    assert _states_identical(state.server_state, server.global_state)


def _killed_sync_run(path, rounds, kill_at, seed=0, **kwargs):
    """Run ``rounds`` sync rounds checkpointing into ``path`` (every round
    unless ``checkpoint_every`` says otherwise); die after round
    ``kill_at``."""

    def bomb(record):
        if record.round_index == kill_at:
            raise _Killed

    kwargs.setdefault("checkpoint_every", 1)
    server, clients = make_federation(seed=seed)
    with pytest.raises(_Killed):
        run_federated_training(
            server, clients, rounds=rounds, seed=0, timing=TimingModel(),
            checkpoint_path=path, on_round=bomb, **kwargs,
        )


def test_resume_continues_round_numbering(tmp_path):
    path = os.path.join(tmp_path, "ckpt")
    _killed_sync_run(path, rounds=5, kill_at=2)

    resumed_server, resumed_clients = make_federation()
    full_history = resume_sync_federated_training(
        path, resumed_server, resumed_clients, timing=TimingModel()
    )
    assert len(full_history.records) == 5
    assert [r.round_index for r in full_history.records] == [1, 2, 3, 4, 5]
    cums = [r.cumulative_client_seconds for r in full_history.records]
    assert cums == sorted(cums)
    assert resumed_server.round_index == 5


def test_resume_noop_when_complete(tmp_path):
    server, clients = make_federation()
    path = os.path.join(tmp_path, "ckpt")
    run_federated_training(
        server, clients, rounds=4, seed=0, checkpoint_path=path,
        checkpoint_every=4,
    )
    resumed_server, resumed_clients = make_federation(seed=3)
    result = resume_sync_federated_training(
        path, resumed_server, resumed_clients
    )
    assert len(result.records) == 4  # nothing new ran
    assert resumed_server.round_index == server.round_index


def test_resumed_model_keeps_learning(tmp_path):
    path = os.path.join(tmp_path, "ckpt")
    _killed_sync_run(path, rounds=8, kill_at=2, seed=4)
    before = load_async_checkpoint(path).records
    resumed_server, resumed_clients = make_federation(seed=4)
    full = resume_sync_federated_training(
        path, resumed_server, resumed_clients, timing=TimingModel()
    )
    # continuation should not collapse the model
    best = max(r.test_accuracy for r in before)
    assert full.records[-1].test_accuracy >= best - 0.2


def _files_written(path, sizes):
    """Bytes created or grown in ``path`` since ``sizes`` (updated)."""
    written = 0
    for name in os.listdir(path):
        size = os.path.getsize(os.path.join(path, name))
        written += max(0, size - sizes.get(name, 0))
        sizes[name] = size
    return written


def test_sync_save_after_the_first_writes_only_what_changed(tmp_path):
    """FedFT-EDS freezes ϕ, so after the first save (the full base) a sync
    save writes the changed θ, the new round record and the manifest."""
    from repro.experiments.common import STANDARD_METHODS
    from repro.testbed import smoke_harness

    path = os.path.join(tmp_path, "ckpt")
    sizes = {}
    per_save = []
    saves = []

    def measure(record):
        per_save.append(_files_written(path, sizes))
        saves.append(STATS["saves"])

    with smoke_harness(seed=0) as harness:
        server, clients, run_seed = harness.build_federation(
            "cifar10", STANDARD_METHODS["fedft_eds"], 0.1, 4
        )
        before = STATS["saves"]
        run_federated_training(
            server, clients, rounds=4, seed=run_seed, timing=harness.timing,
            checkpoint_path=path, checkpoint_every=1, on_round=measure,
        )
    assert saves == [before + 1, before + 2, before + 3, before + 4]
    first, *later = per_save
    assert all(written < first / 2 for written in later), per_save


def test_sync_resume_into_same_directory_continues_journal(tmp_path):
    """Crash with an emergency checkpoint, resume while checkpointing into
    the same directory: bitwise-identical to the uninterrupted run, and the
    final journal holds every round exactly once."""
    server, clients = make_federation(seed=6)
    full = run_federated_training(
        server, clients, rounds=6, seed=0, timing=TimingModel()
    )
    path = os.path.join(tmp_path, "ckpt")
    # cadence-2 saves: round 3 on disk comes from the emergency stash
    _killed_sync_run(
        path, rounds=6, kill_at=3, seed=6, checkpoint_every=2,
        emergency_checkpoint=True,
    )
    assert load_async_checkpoint(path).records[-1].round_index == 3

    resumed_server, resumed_clients = make_federation(seed=6)
    resumed = resume_sync_federated_training(
        path, resumed_server, resumed_clients, timing=TimingModel(),
        checkpoint_path=path, checkpoint_every=1,
    )
    assert resumed.accuracies.tolist() == full.accuracies.tolist()
    assert resumed.records == full.records
    assert _states_identical(server.global_state, resumed_server.global_state)
    with open(_journal_path(path)) as fh:
        journaled = [json.loads(line)["round_index"] for line in fh]
    assert journaled == [1, 2, 3, 4, 5, 6]
    assert load_async_checkpoint(path).records == full.records


def test_fedft_eds_sync_run_checkpoints_through_the_config(tmp_path):
    """``FedFTEDSConfig``'s checkpoint options reach the sync loop: every
    round is saved in the one checkpoint format, and the records on disk
    are the returned history's."""
    from repro.core.fedft_eds import FedFTEDSConfig, run_fedft_eds
    from repro.testbed import ENGINE_SMOKE

    path = os.path.join(tmp_path, "ckpt")
    result = run_fedft_eds(
        FedFTEDSConfig(
            seed=0, checkpoint_path=path, checkpoint_every=1, **ENGINE_SMOKE
        )
    )
    state = load_async_checkpoint(path)
    assert state.meta["loop"] == "sync"
    assert len(state.records) == ENGINE_SMOKE["rounds"]
    assert state.records == result.history.records


# ---------------------------------------------------------------------------
# Asynchronous (EventLog) checkpoint/resume
# ---------------------------------------------------------------------------

MAX_EVENTS = 14
STRAGGLED = TimingModel(speed_multipliers={0: 6.0})


class _Killed(Exception):
    """Stands in for the process dying mid-run."""


def _aggregator(kind):
    if kind == "fedasync":
        return FedAsyncAggregator(mixing=0.4, staleness_exponent=0.0)
    # K chosen so the run ends with updates stranded in a partial buffer —
    # the aggregator state the checkpoint must carry.
    return FedBuffAggregator(buffer_size=3, staleness_exponent=0.0)


def _run_uninterrupted(kind, **kwargs):
    server, clients = make_federation()
    log = run_async_federated_training(
        server,
        clients,
        _aggregator(kind),
        max_events=MAX_EVENTS,
        seed=11,
        timing=STRAGGLED,
        **kwargs,
    )
    return server, log


def _run_killed_then_resume(kind, kill_at, run_kwargs=None, resume_kwargs=None):
    """Checkpoint every event, die at ``kill_at``, resume from disk."""

    def bomb(record):
        if record.event_index == kill_at:
            raise _Killed

    server, clients = make_federation()
    import tempfile

    path = tempfile.mkdtemp()
    with pytest.raises(_Killed):
        run_async_federated_training(
            server,
            clients,
            _aggregator(kind),
            max_events=MAX_EVENTS,
            seed=11,
            timing=STRAGGLED,
            checkpoint_path=path,
            checkpoint_every=1,
            on_event=bomb,
            **(run_kwargs or {}),
        )
    # A crashed process rebuilds the federation from the same config …
    server2, clients2 = make_federation()
    # … and everything the run mutated comes back from the checkpoint.
    log = resume_async_federated_training(
        path,
        server2,
        clients2,
        _aggregator(kind),
        timing=STRAGGLED,
        **(resume_kwargs or {}),
    )
    return server2, log


def _logs_identical(a, b):
    return [
        (
            r.event_index,
            r.kind,
            r.virtual_time,
            r.client_id,
            r.staleness,
            r.model_version,
            r.test_accuracy,
            r.evaluated,
            r.num_selected,
            r.client_seconds,
            r.cumulative_client_seconds,
            r.mean_local_loss,
        )
        for r in a.records
    ] == [
        (
            r.event_index,
            r.kind,
            r.virtual_time,
            r.client_id,
            r.staleness,
            r.model_version,
            r.test_accuracy,
            r.evaluated,
            r.num_selected,
            r.client_seconds,
            r.cumulative_client_seconds,
            r.mean_local_loss,
        )
        for r in b.records
    ]


def _states_identical(a, b):
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


@pytest.mark.parametrize("kind", ["fedasync", "fedbuff"])
@pytest.mark.parametrize("kill_at", [0, 5, MAX_EVENTS - 1])
def test_async_resume_is_bitwise_identical(kind, kill_at):
    """Kill mid-stream, resume: EventLog and weights match exactly.

    ``kill_at`` covers the first event (everything still in flight), the
    middle (straggler round spanning the cut), and the final event (only
    the FedBuff end-of-run flush and forced evaluation remain).
    """
    full_server, full_log = _run_uninterrupted(kind)
    resumed_server, resumed_log = _run_killed_then_resume(kind, kill_at)
    assert _logs_identical(full_log, resumed_log)
    assert _states_identical(
        full_server.global_state, resumed_server.global_state
    )


def test_async_resume_under_different_backend():
    """Checkpoints are backend-invariant: serial run, process resume."""
    full_server, full_log = _run_uninterrupted("fedbuff")
    with ProcessPoolBackend(max_workers=2) as backend:
        resumed_server, resumed_log = _run_killed_then_resume(
            "fedbuff", kill_at=4, resume_kwargs={"backend": backend}
        )
    assert _logs_identical(full_log, resumed_log)
    assert _states_identical(
        full_server.global_state, resumed_server.global_state
    )


@pytest.mark.parametrize("backend_kind", ["serial", "process"])
def test_resumed_fedbuff_run_stays_on_the_slab(backend_kind, tmp_path):
    """A resumed FedBuff run aggregates on the slab like an uninterrupted
    one: the checkpoint hands back slab-backed versions and deltas, every
    version the run installs is a SlabState, every buffered delta is
    slab-backed, and the process backend republishes versions as θ
    memcpys. The run still ends bitwise equal to the uninterrupted one."""
    from repro.fl.slab import SlabState

    full_server, full_log = _run_uninterrupted("fedbuff")
    path = str(tmp_path / "ckpt")

    def bomb(record):
        if record.event_index == 4:
            raise _Killed

    server, clients = make_federation()
    with pytest.raises(_Killed):
        run_async_federated_training(
            server, clients, _aggregator("fedbuff"), max_events=MAX_EVENTS,
            seed=11, timing=STRAGGLED, checkpoint_path=path,
            checkpoint_every=1, on_event=bomb,
        )
    state = load_async_checkpoint(path)
    assert state.aggregator_state and state.snapshots
    restored = [state.server_state, *state.snapshots.values()]
    restored += [delta for delta, _ in state.aggregator_state]
    assert all(type(s) is SlabState for s in restored)

    server, clients = make_federation()
    aggregator = _aggregator("fedbuff")
    installed, buffered = [], []

    def watch(record):
        installed.append(type(server.global_state))
        buffered.extend(type(delta) for delta, _ in aggregator._buffer)

    backend = ProcessPoolBackend(max_workers=2) if backend_kind == "process" else None
    try:
        log = resume_async_federated_training(
            path, server, clients, aggregator, timing=STRAGGLED,
            backend=backend, on_event=watch,
        )
    finally:
        if backend is not None:
            backend.shutdown()
    installed.append(type(server.global_state))
    assert set(installed) == {SlabState}
    assert buffered and set(buffered) == {SlabState}
    if backend is not None:
        assert backend.stats["state_slab_memcpys"] > 0
    assert _logs_identical(full_log, log)
    assert set(server.global_state) == set(full_server.global_state)
    assert all(
        server.global_state[k].tobytes() == full_server.global_state[k].tobytes()
        for k in server.global_state
    )


@pytest.mark.parametrize("kill_at", range(1, 8))
def test_async_resume_with_dropouts(kill_at):
    """Drop-pending clients keep their advanced RNG streams across resume.

    Every kill point in the window is exercised: a drop carries no backend
    handle, but the dropped client's stream (advanced by earlier rounds)
    must survive — resetting it diverges only *later* in the run, which a
    single lucky kill point would miss.
    """
    full_server, full_log = _run_uninterrupted(
        "fedasync", dropout_probability=0.4
    )
    assert [r for r in full_log.records if r.kind == "drop"], (
        "scenario must exercise drops"
    )
    resumed_server, resumed_log = _run_killed_then_resume(
        "fedasync",
        kill_at=kill_at,
        run_kwargs={"dropout_probability": 0.4},
        resume_kwargs={"dropout_probability": 0.4},
    )
    assert _logs_identical(full_log, resumed_log)
    assert _states_identical(
        full_server.global_state, resumed_server.global_state
    )


def test_async_checkpoint_roundtrip_structure(tmp_path):
    """load(save(state)) preserves clocks, queues, buffers and the log."""
    path = os.path.join(tmp_path, "ckpt")

    def snap(record):
        if record.event_index == 6:
            raise _Killed

    server, clients = make_federation()
    with pytest.raises(_Killed):
        run_async_federated_training(
            server,
            clients,
            _aggregator("fedbuff"),
            max_events=MAX_EVENTS,
            seed=11,
            timing=STRAGGLED,
            checkpoint_path=path,
            checkpoint_every=1,
            on_event=snap,
        )
    state = load_async_checkpoint(path)
    assert len(state.records) == 7
    assert state.meta["max_events"] == MAX_EVENTS
    assert state.meta["num_clients"] == len(clients)
    assert state.clock_now == state.records[-1].virtual_time
    # every pending event carries the client's RNG state (updates for
    # re-dispatch, drops to preserve the stream); updates also a snapshot
    for pending in state.pending:
        assert pending["rng_state"] is not None
        if pending["kind"] == "update":
            assert int(pending["dispatch_version"]) in state.snapshots
    # pending clients' streams are deliberately absent from the idle map
    pending_ids = {int(p["client_id"]) for p in state.pending}
    assert pending_ids.isdisjoint(state.idle_rng_states)
    # FedBuff K=3: the buffer between flushes holds 0-2 deltas
    assert 0 <= len(state.aggregator_state) < 3


def test_async_checkpoint_survives_torn_save(tmp_path):
    """A crash mid-save must leave the previous checkpoint loadable.

    Simulates dying at the worst instruction: new-generation payload files
    are half-written and the manifest swap never happened. The committed
    manifest still references the old generation's intact files, and the
    next successful save garbage-collects the wreckage.
    """
    path = os.path.join(tmp_path, "ckpt")
    server, clients = make_federation()

    def bomb(record):
        if record.event_index == 5:
            raise _Killed

    with pytest.raises(_Killed):
        run_async_federated_training(
            server,
            clients,
            _aggregator("fedbuff"),
            max_events=MAX_EVENTS,
            seed=11,
            timing=STRAGGLED,
            checkpoint_path=path,
            checkpoint_every=1,
            on_event=bomb,
        )
    before = load_async_checkpoint(path)
    generation = _manifest(path)["generation"]
    # a torn next-generation payload + an abandoned manifest staging file
    torn = generation + 1
    with open(os.path.join(path, f"async_payload-{torn}.npz"), "wb") as fh:
        fh.write(b"\x00garbage")
    with open(os.path.join(path, "async_state.json.tmp"), "w") as fh:
        fh.write('{"generation": %d, "payload"' % torn)  # truncated JSON
    after = load_async_checkpoint(path)
    assert after.records == before.records
    assert after.clock_now == before.clock_now
    assert _states_identical(after.server_state, before.server_state)
    # a new save commits a fresh generation (fully rewriting any torn
    # same-numbered files before the manifest swap) and clears the rest
    from repro.fl.checkpoint import save_async_checkpoint

    save_async_checkpoint(path, before)
    reloaded = load_async_checkpoint(path)
    assert _states_identical(reloaded.server_state, before.server_state)
    committed = _referenced_payloads(_manifest(path))
    leftovers = [
        name
        for name in os.listdir(path)
        if name.endswith(".npz") and name not in committed
    ]
    assert not leftovers, f"superseded payloads not collected: {leftovers}"


def test_async_resume_rejects_wrong_pool_size(tmp_path):
    path = os.path.join(tmp_path, "ckpt")
    server, clients = make_federation()

    def bomb(record):
        raise _Killed

    with pytest.raises(_Killed):
        run_async_federated_training(
            server,
            clients,
            _aggregator("fedasync"),
            max_events=MAX_EVENTS,
            seed=11,
            checkpoint_path=path,
            checkpoint_every=1,
            on_event=bomb,
        )
    other_server, other_clients = make_federation(num_clients=5)
    with pytest.raises(ValueError, match="clients"):
        resume_async_federated_training(
            path, other_server, other_clients, _aggregator("fedasync")
        )


def test_checkpoint_every_requires_path():
    server, clients = make_federation()
    with pytest.raises(ValueError, match="checkpoint_path"):
        run_async_federated_training(
            server,
            clients,
            _aggregator("fedasync"),
            max_events=2,
            checkpoint_every=1,
        )


# ---------------------------------------------------------------------------
# Incremental (log-structured) checkpoint format
# ---------------------------------------------------------------------------


def _run_with_checkpoints(path, kind="fedbuff", every=1, max_events=MAX_EVENTS):
    server, clients = make_federation()
    log = run_async_federated_training(
        server,
        clients,
        _aggregator(kind),
        max_events=max_events,
        seed=11,
        timing=STRAGGLED,
        checkpoint_path=path,
        checkpoint_every=every,
    )
    return server, log


def _states_of(path):
    return load_async_checkpoint(path)


def _journal_path(path):
    """The journal file the committed manifest references."""
    return os.path.join(path, _manifest(path)["journal"]["file"])


def _manifest(path):
    with open(os.path.join(path, "async_state.json")) as fh:
        return json.load(fh)


def _referenced_payloads(manifest):
    """The npz files a manifest names: the server base, this save's
    payload and the payloads holding the versions it needs."""
    names = {manifest["payload"], manifest["server_base"]["file"]}
    names.update(entry["file"] for entry in manifest["versions"].values())
    return names


def _generation_of(name):
    return int(name.rsplit("-", 1)[1][: -len(".npz")])


def _payloads_on_disk(path):
    return {name for name in os.listdir(path) if name.endswith(".npz")}


def test_incremental_append_equals_full_rewrite(tmp_path):
    """A journal grown by per-event appends loads identically to a
    from-scratch rewrite of the same state (compaction equivalence)."""
    from repro.fl.checkpoint import save_async_checkpoint

    appended = os.path.join(tmp_path, "appended")
    _run_with_checkpoints(appended, every=1)
    state = load_async_checkpoint(appended)

    rewritten = os.path.join(tmp_path, "rewritten")
    save_async_checkpoint(rewritten, state, full=True)
    other = load_async_checkpoint(rewritten)
    assert other.records == state.records
    assert other.pending == state.pending
    assert other.clock_now == state.clock_now
    assert _states_identical(other.server_state, state.server_state)
    assert set(other.snapshots) == set(state.snapshots)
    for version in state.snapshots:
        assert _states_identical(
            other.snapshots[version], state.snapshots[version]
        )
    # the journals themselves are byte-identical: appends and rewrites
    # serialise the same committed prefix
    with open(_journal_path(appended), "rb") as fh:
        a = fh.read()
    with open(_journal_path(rewritten), "rb") as fh:
        b = fh.read()
    assert a == b
    with open(os.path.join(appended, "async_state.json")) as fh:
        manifest = json.load(fh)
    assert manifest["journal"]["count"] == len(state.records)
    assert manifest["journal"]["bytes"] == len(a)


def test_checkpoint_bytes_equal_the_reference_encoders(tmp_path):
    """A FedBuff run's journal lines are ``json.dumps(asdict(record))`` and
    its manifest is the ``json.dump`` encoding of the same payload."""
    import io
    from dataclasses import asdict

    path = os.path.join(tmp_path, "ckpt")
    _, log = _run_with_checkpoints(path, every=1)
    with open(os.path.join(path, "async_state.json")) as fh:
        manifest_text = fh.read()
    manifest = json.loads(manifest_text)
    count = manifest["journal"]["count"]
    assert count > 0
    with open(_journal_path(path), "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    assert lines == [
        (json.dumps(asdict(record)) + "\n").encode()
        for record in log.records[:count]
    ]
    reference = io.StringIO()
    json.dump(manifest, reference)
    assert manifest_text == reference.getvalue()


def test_plain_rng_states_keep_every_manifest_byte(tmp_path, monkeypatch):
    """RNG states are written as they are when they hold only ints and
    strings (PCG64), and through ``_jsonable`` when they hold arrays: with
    a Philox client in the pool, every save's manifest is byte for byte
    what encoding every state through ``_jsonable`` writes, and the array
    states load back exactly."""
    from repro.fl import checkpoint

    written = checkpoint._rng_jsonable

    def manifests(path, encode):
        monkeypatch.setattr(checkpoint, "_rng_jsonable", encode)
        seen = []

        def watch(record):
            with open(os.path.join(path, "async_state.json")) as fh:
                seen.append(fh.read())

        server, clients = make_federation()
        clients[0].rng = np.random.Generator(np.random.Philox(3))
        run_async_federated_training(
            server, clients, _aggregator("fedbuff"), max_events=MAX_EVENTS,
            seed=11, timing=STRAGGLED, checkpoint_path=path,
            checkpoint_every=1, on_event=watch,
        )
        return seen, clients

    reference, _ = manifests(str(tmp_path / "reference"), checkpoint._jsonable)
    path = str(tmp_path / "ckpt")
    saved, clients = manifests(path, written)
    assert len(saved) == MAX_EVENTS
    assert saved == reference
    assert '"__ndarray__"' in saved[-1]
    state = load_async_checkpoint(path)
    assert not state.pending
    assert state.idle_rng_states[0]["bit_generator"] == "Philox"
    for cid, rng_state in state.idle_rng_states.items():
        assert checkpoint._jsonable(rng_state) == checkpoint._jsonable(
            clients[cid].rng.bit_generator.state
        )


def test_per_save_manifest_stays_flat_in_event_count(tmp_path):
    """The rewritten-per-save portion (the manifest) must not grow with the
    journal — the O(1)-per-write property of the log-structured format."""
    sizes = {}

    def watch(record):
        manifest = os.path.join(tmp_path, "ckpt", "async_state.json")
        if os.path.exists(manifest):
            sizes[record.event_index] = os.path.getsize(manifest)

    server, clients = make_federation()
    run_async_federated_training(
        server,
        clients,
        _aggregator("fedasync"),
        max_events=MAX_EVENTS,
        seed=11,
        timing=STRAGGLED,
        checkpoint_path=os.path.join(tmp_path, "ckpt"),
        checkpoint_every=1,
        on_event=watch,
    )
    early = sizes[min(sizes)]
    late = sizes[max(sizes)]
    # pending/RNG content varies a little; a linear record list would more
    # than double the manifest over MAX_EVENTS events
    assert late < early * 1.5, (early, late)


def test_resume_ignores_torn_trailing_journal_line(tmp_path):
    """A crash mid-append leaves a partial line past the committed offset;
    load skips it and resume stays bitwise-identical."""
    path = os.path.join(tmp_path, "ckpt")
    full_server, full_log = _run_uninterrupted("fedbuff")

    server, clients = make_federation()

    def bomb(record):
        if record.event_index == 6:
            raise _Killed

    with pytest.raises(_Killed):
        run_async_federated_training(
            server,
            clients,
            _aggregator("fedbuff"),
            max_events=MAX_EVENTS,
            seed=11,
            timing=STRAGGLED,
            checkpoint_path=path,
            checkpoint_every=1,
            on_event=bomb,
        )
    before = load_async_checkpoint(path)
    with open(_journal_path(path), "ab") as fh:
        fh.write(b'{"event_index": 99, "kind": "upd')  # torn write
    after = load_async_checkpoint(path)
    assert after.records == before.records

    server2, clients2 = make_federation()
    resumed_log = resume_async_federated_training(
        path, server2, clients2, _aggregator("fedbuff"), timing=STRAGGLED
    )
    assert _logs_identical(full_log, resumed_log)
    assert _states_identical(full_server.global_state, server2.global_state)


def test_compaction_roundtrip_drops_torn_tail(tmp_path):
    from repro.fl.checkpoint import compact_async_checkpoint

    path = os.path.join(tmp_path, "ckpt")
    _run_with_checkpoints(path, every=2)
    before = load_async_checkpoint(path)
    torn_journal = _journal_path(path)
    with open(torn_journal, "ab") as fh:
        fh.write(b"garbage-tail-without-newline")
    compacted = compact_async_checkpoint(path)
    assert compacted.records == before.records
    assert _states_identical(compacted.server_state, before.server_state)
    # compaction rewrote into a fresh generation and collected the torn file
    assert _journal_path(path) != torn_journal
    assert not os.path.exists(torn_journal)
    with open(_journal_path(path), "rb") as fh:
        data = fh.read()
    assert b"garbage" not in data
    reloaded = load_async_checkpoint(path)
    assert reloaded.records == before.records


def test_resume_into_same_directory_continues_journal(tmp_path):
    """Kill, resume while checkpointing into the same directory (compaction
    + further appends), under the process backend: still bitwise-identical,
    and the final checkpoint reflects the full run."""
    path = os.path.join(tmp_path, "ckpt")
    full_server, full_log = _run_uninterrupted("fedbuff")

    server, clients = make_federation()

    def bomb(record):
        if record.event_index == 5:
            raise _Killed

    with pytest.raises(_Killed):
        run_async_federated_training(
            server,
            clients,
            _aggregator("fedbuff"),
            max_events=MAX_EVENTS,
            seed=11,
            timing=STRAGGLED,
            checkpoint_path=path,
            checkpoint_every=1,
            on_event=bomb,
        )
    server2, clients2 = make_federation()
    with ProcessPoolBackend(max_workers=2) as backend:
        resumed_log = resume_async_federated_training(
            path,
            server2,
            clients2,
            _aggregator("fedbuff"),
            timing=STRAGGLED,
            backend=backend,
            checkpoint_path=path,
            checkpoint_every=1,
        )
    assert _logs_identical(full_log, resumed_log)
    assert _states_identical(full_server.global_state, server2.global_state)
    final = load_async_checkpoint(path)
    assert len(final.records) >= MAX_EVENTS - 1


def test_manifest_of_another_format_is_refused(tmp_path):
    """Only format-6 manifests load: an older stamp, or none at all (the
    pre-journal manifests), raises a ValueError naming what it found."""
    path = os.path.join(tmp_path, "ckpt")
    _run_with_checkpoints(path, every=4)
    assert load_async_checkpoint(path).records
    manifest_path = os.path.join(path, "async_state.json")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    for stamp in (5, None):
        manifest["format"] = stamp
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(ValueError, match=f"format {stamp}"):
            load_async_checkpoint(path)


# ---------------------------------------------------------------------------
# Format 6: each model version is written once
# ---------------------------------------------------------------------------


def _stored_versions_of(path, payload):
    """Model versions whose arrays a payload file holds."""
    with np.load(os.path.join(path, payload)) as archive:
        return {
            int(prefix)
            for prefix, _, _ in (name.partition("::") for name in archive.files)
            if prefix.isdigit()
        }


def _watched_fedbuff_run(path, watch):
    """The straggled FedBuff run, saving every event; ``watch(manifest)``
    runs after each save."""
    server, clients = make_federation()
    return run_async_federated_training(
        server,
        clients,
        _aggregator("fedbuff"),
        max_events=MAX_EVENTS,
        seed=11,
        timing=STRAGGLED,
        checkpoint_path=path,
        checkpoint_every=1,
        on_event=lambda record: watch(_manifest(path)),
    )


def test_each_version_is_written_by_one_save(tmp_path):
    """A version's θ lands in exactly one save's payload: later saves refer
    to that file while the version stays pending (the straggler's), and
    the current version shares the server's entry."""
    path = str(tmp_path / "ckpt")
    writes = {}
    named = set()
    referenced_earlier = []

    def watch(manifest):
        for version in _stored_versions_of(path, manifest["payload"]):
            writes[version] = writes.get(version, 0) + 1
        named.update(int(v) for v in manifest["versions"])
        referenced_earlier.extend(
            v for v, entry in manifest["versions"].items()
            if entry["file"] != manifest["payload"]
        )
        # the current version is the server state: one entry serves both
        current = str(manifest["server_round_index"])
        assert set(manifest["versions"]) == {
            current, *(str(v) for v in manifest["snapshots"])
        }

    _watched_fedbuff_run(path, watch)
    assert writes and set(writes.values()) == {1}, writes
    # versions never stored in a payload are the base's own content
    assert named - set(writes) <= {0}
    assert referenced_earlier, "no save referred to an earlier payload"


def test_payload_files_on_disk_are_the_ones_the_manifest_names(tmp_path):
    path = str(tmp_path / "ckpt")
    earlier = []

    def watch(manifest):
        referenced = _referenced_payloads(manifest)
        assert _payloads_on_disk(path) == referenced
        earlier.extend(
            name for name in referenced - {manifest["server_base"]["file"]}
            if _generation_of(name) < manifest["generation"]
        )

    _watched_fedbuff_run(path, watch)
    assert earlier, "no save kept an earlier generation's payload"


def _kill_when(predicate):
    """An ``on_event`` hook that dies once ``predicate(manifest)`` holds."""

    def hook(path):
        def on_event(record):
            if predicate(_manifest(path)):
                raise _Killed

        return on_event

    return hook


def _oldest_pending_payload(manifest):
    """The earliest-generation payload holding a pending version, or None
    when every pending version lives in this save's payload."""
    older = [
        manifest["versions"][str(v)]["file"]
        for v in manifest["snapshots"]
        if manifest["versions"][str(v)]["file"] != manifest["payload"]
    ]
    return min(older, key=_generation_of, default=None)


def test_resume_across_generations_is_bitwise(tmp_path):
    """Killed while a version written several saves earlier is still
    pending: the resume reads it from that save's payload, bitwise."""
    path = str(tmp_path / "ckpt")
    full_server, full_log = _run_uninterrupted("fedbuff")

    def several_saves_back(manifest):
        oldest = _oldest_pending_payload(manifest)
        return (
            oldest is not None
            and _generation_of(oldest) <= manifest["generation"] - 3
        )

    server, clients = make_federation()
    with pytest.raises(_Killed):
        run_async_federated_training(
            server, clients, _aggregator("fedbuff"),
            max_events=MAX_EVENTS, seed=11, timing=STRAGGLED,
            checkpoint_path=path, checkpoint_every=1,
            on_event=_kill_when(several_saves_back)(path),
        )
    server2, clients2 = make_federation()
    resumed_log = resume_async_federated_training(
        path, server2, clients2, _aggregator("fedbuff"), timing=STRAGGLED
    )
    assert _logs_identical(full_log, resumed_log)
    assert _states_identical(full_server.global_state, server2.global_state)


def test_missing_version_payload_is_named_then_rewritten(tmp_path):
    """Deleting a payload that holds a pending version makes the load fail
    naming it; the live run's next save stores the version again, and
    that checkpoint resumes bitwise."""
    path = str(tmp_path / "ckpt")
    full_server, full_log = _run_uninterrupted("fedbuff")
    deleted = []

    def on_event(record):
        manifest = _manifest(path)
        if deleted:
            # the save after the deletion wrote the versions again
            assert os.path.basename(deleted[0]) not in (
                _referenced_payloads(manifest)
            )
            raise _Killed
        oldest = _oldest_pending_payload(manifest)
        if oldest is not None:
            os.remove(os.path.join(path, oldest))
            deleted.append(oldest)
            with pytest.raises(ValueError, match=oldest):
                load_async_checkpoint(path)

    server, clients = make_federation()
    with pytest.raises(_Killed):
        run_async_federated_training(
            server, clients, _aggregator("fedbuff"),
            max_events=MAX_EVENTS, seed=11, timing=STRAGGLED,
            checkpoint_path=path, checkpoint_every=1, on_event=on_event,
        )
    assert deleted
    server2, clients2 = make_federation()
    resumed_log = resume_async_federated_training(
        path, server2, clients2, _aggregator("fedbuff"), timing=STRAGGLED
    )
    assert _logs_identical(full_log, resumed_log)
    assert _states_identical(full_server.global_state, server2.global_state)


def test_another_run_in_the_directory_stores_its_own_versions(tmp_path):
    """A run checkpointing into a directory another run left (same run
    metadata, other data) refers to none of that run's versions: its
    resume is bitwise its own uninterrupted run."""
    path = str(tmp_path / "ckpt")

    def killed_run(seed):
        server, clients = make_federation(seed=seed)
        with pytest.raises(_Killed):
            run_async_federated_training(
                server, clients, _aggregator("fedbuff"),
                max_events=MAX_EVENTS, seed=11, timing=STRAGGLED,
                checkpoint_path=path, checkpoint_every=1,
                on_event=_kill_when(
                    lambda m: _oldest_pending_payload(m) is not None
                )(path),
            )

    killed_run(seed=0)
    killed_run(seed=1)
    full_server, clients = make_federation(seed=1)
    full_log = run_async_federated_training(
        full_server, clients, _aggregator("fedbuff"),
        max_events=MAX_EVENTS, seed=11, timing=STRAGGLED,
    )
    server, clients = make_federation(seed=1)
    resumed_log = resume_async_federated_training(
        path, server, clients, _aggregator("fedbuff"), timing=STRAGGLED
    )
    assert _logs_identical(full_log, resumed_log)
    assert _states_identical(full_server.global_state, server.global_state)


def test_compaction_leaves_base_payload_journal_and_manifest(tmp_path):
    from repro.fl.checkpoint import compact_async_checkpoint

    path = str(tmp_path / "ckpt")
    server, clients = make_federation()
    with pytest.raises(_Killed):  # while an older payload is still named
        run_async_federated_training(
            server, clients, _aggregator("fedbuff"),
            max_events=MAX_EVENTS, seed=11, timing=STRAGGLED,
            checkpoint_path=path, checkpoint_every=1,
            on_event=_kill_when(
                lambda m: _oldest_pending_payload(m) is not None
            )(path),
        )
    before = load_async_checkpoint(path)
    assert len(_payloads_on_disk(path)) > 2
    compact_async_checkpoint(path)
    manifest = _manifest(path)
    assert sorted(os.listdir(path)) == sorted(
        [
            manifest["server_base"]["file"],
            manifest["payload"],
            manifest["journal"]["file"],
            "async_state.json",
        ]
    )
    after = load_async_checkpoint(path)
    assert set(after.snapshots) == set(before.snapshots)
    for version, snapshot in before.snapshots.items():
        assert _states_identical(after.snapshots[version], snapshot)
    assert _states_identical(after.server_state, before.server_state)


# ---------------------------------------------------------------------------
# Emergency checkpoints under chaos (repro.engine.faults)
# ---------------------------------------------------------------------------


def test_emergency_checkpoint_resumes_after_chaos_kill(tmp_path):
    """Worker killed mid-cohort-round, then the parent dies: the crash
    handler's emergency checkpoint alone (no periodic saves ever ran) must
    resume to the fault-free run's exact θ bytes, EventLog and accuracies.
    """
    from repro.engine.faults import FAULTS, ChaosPlan, FaultPolicy
    from repro.obs.metrics import reset_exported

    reset_exported()
    path = os.path.join(tmp_path, "ckpt")
    full_server, full_log = _run_uninterrupted("fedbuff")

    def bomb(record):
        if record.event_index == 8:
            raise _Killed

    server, clients = make_federation()
    # chaos kills a worker during the initial cohort dispatch; the fault
    # layer respawns the pool and redispatches the exact job blob, so the
    # run is still on the fault-free trajectory when the parent dies
    with ProcessPoolBackend(
        max_workers=2,
        fault_policy=FaultPolicy(max_retries=3, backoff_base=0.01),
        chaos=ChaosPlan.parse("kill@2", seed=0),
    ) as backend:
        with pytest.raises(_Killed):
            run_async_federated_training(
                server,
                clients,
                _aggregator("fedbuff"),
                max_events=MAX_EVENTS,
                seed=11,
                timing=STRAGGLED,
                backend=backend,
                checkpoint_path=path,
                emergency_checkpoint=True,
                on_event=bomb,
            )
    assert FAULTS["chaos_kills"] == 1
    assert FAULTS["respawns"] >= 1
    assert FAULTS["emergency_checkpoints"] == 1

    state = load_async_checkpoint(path)
    assert len(state.records) == 9  # events 0..8 survived the crash

    server2, clients2 = make_federation()
    resumed_log = resume_async_federated_training(
        path, server2, clients2, _aggregator("fedbuff"), timing=STRAGGLED
    )
    assert _logs_identical(full_log, resumed_log)
    assert _states_identical(full_server.global_state, server2.global_state)
    assert full_log.accuracies.tolist() == resumed_log.accuracies.tolist()


def test_sync_emergency_checkpoint_resumes_bitwise(tmp_path):
    """Sync variant: a crash between periodic saves restores from the
    emergency stash, not the stale round-aligned checkpoint."""
    from repro.engine.faults import FAULTS
    from repro.fl.checkpoint import resume_sync_federated_training
    from repro.obs.metrics import reset_exported

    reset_exported()
    path = os.path.join(tmp_path, "ckpt")
    server, clients = make_federation(seed=6)
    full = run_federated_training(server, clients, rounds=5, seed=2)
    full_theta = {k: v.copy() for k, v in server.global_state.items()}

    def bomb(record):
        if record.round_index == 3:
            raise _Killed

    server2, clients2 = make_federation(seed=6)
    with pytest.raises(_Killed):
        run_federated_training(
            server2, clients2, rounds=5, seed=2,
            checkpoint_path=path, checkpoint_every=2,
            emergency_checkpoint=True, on_round=bomb,
        )
    assert FAULTS["emergency_checkpoints"] == 1
    restored = load_async_checkpoint(path)
    # cadence-2 saves ran after round 2 only; round 3 being on disk proves
    # the crash handler's emergency stash, not the periodic writer
    assert restored.records[-1].round_index == 3

    server3, clients3 = make_federation(seed=6)
    resumed = resume_sync_federated_training(path, server3, clients3)
    assert resumed.accuracies.tolist() == full.accuracies.tolist()
    assert _states_identical(full_theta, server3.global_state)
