"""The process backend's shared-memory transport.

Each dispatch wave (and each pooled evaluation) publishes what its jobs
read and the pool lacks in one segment; a head-only member ships its
shard as labels only; client descriptors are pool entries; and a cohort
job's θ lanes come home through its rows of a reused result slot. Every
run here is bitwise the serial backend's.
"""

import os
import signal
import subprocess
import sys
import textwrap
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core.heterogeneous import CapabilityTier, TieredClient
from repro.core.partial import prepare_partial_model
from repro.data.dataset import ArrayDataset
from repro.engine import backends as B
from repro.engine.aggregators import FedBuffAggregator
from repro.engine.backends import (
    WORKER_STATS,
    PooledEvaluator,
    ProcessPoolBackend,
    SerialBackend,
)
from repro.engine.faults import FAULTS, ChaosPlan, FaultPolicy, install_chaos
from repro.engine.runner import run_async_federated_training
from repro.fl import fastpath
from repro.fl.client import Client
from repro.fl.features import FeatureRuntime, compute_features
from repro.fl.rounds import run_federated_training
from repro.fl.selection import EntropySelector
from repro.fl.server import Server
from repro.fl.slab import SlabLayout, make_slab_state
from repro.fl.strategies import LocalSolver
from repro.fl.timing import TimingModel
from repro.nn.mlp import MLP
from repro.nn.serialization import theta_keys
from repro.obs.metrics import reset_exported

RNG = np.random.default_rng
REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


@pytest.fixture(autouse=True)
def _clean_fault_state():
    reset_exported()
    install_chaos(None)
    yield
    install_chaos(None)


def _federation(num=12, tiers=(), keyed=True):
    """A slab server plus ``num`` cohortable head-only clients; ``tiers``
    holds the ids built as tiered clients, which bill themselves."""
    model = MLP(24, (16, 16, 16), 5, RNG(1))
    prepare_partial_model(model, "moderate")
    clients = []
    for cid in range(num):
        rng = RNG(100 + cid)
        args = (
            cid,
            ArrayDataset(rng.normal(size=(40, 24)), rng.integers(0, 5, 40)),
            EntropySelector(), LocalSolver(), 0.3, 2, RNG(500 + cid),
        )
        if cid in tiers:
            client = TieredClient(*args, CapabilityTier("medium", "moderate"))
        else:
            client = Client(*args)
        if keyed:
            client.shard_key = ("transport", cid)
        clients.append(client)
    state = model.state_dict()
    layout = SlabLayout([(k, state[k].shape) for k in theta_keys(model)])
    server = Server(
        model,
        ArrayDataset(RNG(7).normal(size=(64, 24)), RNG(8).integers(0, 5, 64)),
    )
    server.global_state = make_slab_state(state, layout)
    return server, clients


def _signature(server, clients, records):
    return (
        records,
        {k: server.global_state[k].tobytes() for k in theta_keys(server.model)},
        [client.rng.bit_generator.state for client in clients],
    )


def _sync(backend, rounds=3, evaluate=False, **build):
    """Run sync rounds on ``backend`` (left open); the run's signature."""
    server, clients = _federation(**build)
    if evaluate:
        server.evaluator = PooledEvaluator(
            backend, server.test_set, test_key=("transport-test",)
        )
    history = run_federated_training(
        server, clients, rounds=rounds, seed=3, timing=TimingModel(),
        backend=backend,
    )
    records = [
        (r.test_accuracy, r.selected_samples, r.client_seconds,
         r.mean_local_loss)
        for r in history.records
    ]
    return _signature(server, clients, records)


def _serial(features=True, **kwargs):
    runtime = FeatureRuntime() if features else None
    with SerialBackend(feature_runtime=runtime) as backend:
        return _sync(backend, **kwargs)


def _process(**kwargs):
    return ProcessPoolBackend(
        max_workers=2, feature_runtime=FeatureRuntime(), **kwargs
    )


# ---------------------------------------------------------------------------
# Publish batches, labels-only shards, descriptors once
# ---------------------------------------------------------------------------


def test_head_only_run_publishes_labels_in_one_segment_per_batch():
    """Three rounds of 12 head-only clients with pooled evaluation: one
    segment for the first wave's labels, features and descriptors, one
    for the test set, no raw input anywhere, worker attaches bounded by
    segments rather than clients, and one result slot reused by every
    round."""
    expected = _serial(evaluate=False)
    attaches = WORKER_STATS["attaches"]
    backend = _process()
    pool = backend.segment_pool
    try:
        got = _sync(backend, evaluate=True)
        assert pool.stats["batches"] == 2
        assert dict(pool.publishes_by_kind) == {
            "transport": 12, "client": 12, "feat": 12, "eval": 1,
        }
        labels = [e for e in pool._entries.values() if e.key[0] == "transport"]
        assert all(set(entry.layout) == {"y"} for entry in labels)
        assert len({entry.shm.name for entry in labels}) == 1
        stats = backend.stats
        assert stats["cohort_jobs"] >= 3 and stats["result_segments"] == 1
        segments = (
            pool.stats["batches"] + stats["state_segments"]
            + stats["result_segments"]
        )
        mapped = WORKER_STATS["attaches"] - attaches
        assert 0 < mapped <= backend.max_workers * segments < 12
    finally:
        backend.shutdown()
    # pooled evaluation scores what the serial server scores
    assert got == expected


def test_raw_inputs_are_published_only_where_a_member_reads_them():
    """A tiered client bills itself, so its shard ships raw beside its
    peers' labels; a run without features ships every shard raw."""
    expected = _serial(rounds=2, num=6, tiers={1})
    backend = _process()
    pool = backend.segment_pool
    try:
        assert _sync(backend, rounds=2, num=6, tiers={1}) == expected
        assert dict(pool.publishes_by_kind) == {
            "transport": 5, "raw": 1, "client": 6, "feat": 5,
        }
        (raw,) = [e for e in pool._entries.values() if e.key[0] == "raw"]
        assert raw.key == ("raw", "transport", 1)
        assert set(raw.layout) == {"x", "y"}
    finally:
        backend.shutdown()

    expected = _serial(features=False, rounds=2, num=6, keyed=False)
    backend = ProcessPoolBackend(max_workers=2)
    pool = backend.segment_pool
    try:
        assert _sync(backend, rounds=2, num=6, keyed=False) == expected
        assert dict(pool.publishes_by_kind) == {"run": 6, "client": 6}
        shards = [e for e in pool._entries.values() if e.key[0] == "run"]
        assert [e.key[1] for e in shards] == ["raw"] * 6
        assert all(set(e.layout) == {"x", "y"} for e in shards)
        # run-scoped and keyed entries went to separate segments
        assert pool.stats["batches"] == 2
    finally:
        backend.shutdown()


def test_descriptors_ship_once_so_job_bytes_do_not_carry_them():
    """A job names each member's descriptor by digest and entry location;
    the pickled descriptor itself is never in a job blob."""
    import pickle

    backend = _process()
    jobs = []
    real = backend._dispatch

    def spying(entry, job, segments):
        jobs.append(pickle.dumps(job))
        return real(entry, job, segments)

    backend._dispatch = spying
    try:
        server, clients = _federation(num=4)
        handles = backend.submit_many(
            clients, server.model, server.global_state
        )
        [backend.result(h) for h in handles]
        for client in clients:
            blob = backend._clients[id(client)].blob
            assert not any(blob in job for job in jobs)
    finally:
        backend.shutdown()


# ---------------------------------------------------------------------------
# The result slot
# ---------------------------------------------------------------------------


def test_overlapping_cohort_waves_hold_separate_slots_then_reuse_them():
    """A wave dispatched while another's cohort jobs are uncollected takes
    a second slot; a later wave reuses a free one. Each lane resolves to
    the bytes a serial wave gives."""

    def waves(backend):
        server, clients = _federation(num=12)
        args = (server.model, server.global_state)
        first = backend.submit_many(clients[:6], *args)
        second = backend.submit_many(clients[6:], *args)
        results = [backend.result(h) for h in first + second]
        third = backend.submit_many(clients[:6], *args)
        results += [backend.result(h) for h in third]
        return [
            {k: v.tobytes() for k, v in update.theta.items()}
            for update in results
        ], [c.rng.bit_generator.state for c in clients]

    with SerialBackend(feature_runtime=FeatureRuntime()) as backend:
        expected = waves(backend)
    backend = _process()
    try:
        assert waves(backend) == expected
        assert backend.stats["cohort_jobs"] == 3
        assert backend.stats["result_segments"] == 2
        assert all(slot.refs == 0 for slot in backend._result_slots)
    finally:
        backend.shutdown()


def test_fedbuff_process_run_with_cohorts_in_flight_is_bitwise(monkeypatch):
    """FedBuff's first wave splits into cohort chunks that stay in flight
    while later events dispatch and collect other rounds."""
    monkeypatch.setattr(B, "_COHORT_JOB_LANES", 3)

    def run(backend):
        server, clients = _federation(num=12)
        try:
            log = run_async_federated_training(
                server, clients, FedBuffAggregator(buffer_size=3),
                max_events=30, seed=5, timing=TimingModel(),
                backend=backend, max_concurrency=8,
            )
        finally:
            getattr(backend, "shutdown", backend.close)()
        records = [
            (r.kind, r.virtual_time, r.client_id, r.staleness,
             r.test_accuracy, r.num_selected, r.mean_local_loss)
            for r in log.records
        ]
        return _signature(server, clients, records)

    expected = run(SerialBackend(feature_runtime=FeatureRuntime()))
    backend = _process()
    assert run(backend) == expected
    assert backend.stats["cohort_jobs"] == 3  # chunks of 3, 3 and 2 lanes
    assert backend.stats["result_segments"] == 1


@pytest.mark.parametrize(
    "spec, policy",
    [
        ("kill@0", dict(max_retries=3, backoff_base=0.01)),
        ("delay@0:30", dict(job_deadline=0.5, max_retries=3, backoff_base=0.01)),
        ("corrupt@0", dict(max_retries=3, backoff_base=0.01)),
    ],
    ids=["kill", "delay", "corrupt"],
)
def test_chaos_on_cohort_jobs_rewrites_their_rows(spec, policy, monkeypatch):
    """Job 0 is a cohort job. Its rows are poisoned with NaN before every
    (re)dispatch, so bitwise-equal results show the attempt that succeeded
    wrote every row itself."""
    expected = _serial(num=8)
    attempts = []
    real_submit = ProcessPoolBackend._submit_job

    def poisoning(self, record):
        result = record.job.get("result")
        if result is not None:
            name, offset, shape = result
            (slot,) = [s for s in self._result_slots if s.shm.name == name]
            np.ndarray(
                shape, dtype=np.float64, buffer=slot.shm.buf, offset=offset
            )[...] = np.nan
            attempts.append((record.index, record.attempts))
        return real_submit(self, record)

    monkeypatch.setattr(ProcessPoolBackend, "_submit_job", poisoning)
    backend = _process(
        fault_policy=FaultPolicy(**policy),
        chaos=ChaosPlan.parse(spec, seed=0),
    )
    try:
        assert _sync(backend, num=8) == expected
    finally:
        backend.shutdown()
    assert (0, 0) in attempts
    assert any(index == 0 and attempt > 0 for index, attempt in attempts)
    assert FAULTS["retries"] >= 1


# ---------------------------------------------------------------------------
# Labels-only shards
# ---------------------------------------------------------------------------


def test_labels_only_shard_refuses_raw_reads():
    shard = B._LabelsOnlyShard(np.arange(4))
    assert len(shard) == 4
    assert shard.subset([1, 3]).labels.tolist() == [1, 3]
    with pytest.raises(RuntimeError, match="labels only"):
        shard.arrays()


def test_graph_head_trains_on_a_labels_only_shard():
    """A partly frozen Linear keeps the head on the layer graph; trained on
    cached features, it reads the selected labels only, and a labels-only
    shard gives the bytes the full shard gives."""
    rng = RNG(3)
    x = rng.normal(size=(30, 24))
    y = rng.integers(0, 5, 30)
    chosen = np.sort(rng.choice(30, size=12, replace=False))

    def train(dataset):
        model = MLP(24, (16, 16, 16), 5, RNG(1))
        prepare_partial_model(model, "moderate")
        model.head.layers[0].bias.requires_grad = False
        assert fastpath.head_lane(model, (16,)) is None
        features = compute_features(model, x)
        before = fastpath.STATS["graph_solves"]
        loss = LocalSolver(batch_size=8).run(
            model, dataset.subset(chosen), 2, RNG(5),
            features=features[chosen],
        )
        assert fastpath.STATS["graph_solves"] == before + 1
        return loss, {
            k: v.tobytes() for k, v in model.state_dict().items()
        }

    assert train(B._LabelsOnlyShard(y)) == train(ArrayDataset(x, y))


# ---------------------------------------------------------------------------
# Lifetimes: end_run, shutdown and the crash path
# ---------------------------------------------------------------------------


def _unlinked(name):
    try:
        shared_memory.SharedMemory(name=name).close()
    except FileNotFoundError:
        return True
    return False


def test_teardown_unlinks_result_slots_and_batch_segments():
    """``end_run`` unlinks the run-scoped batch and keeps the keyed batch
    and the result slot warm; ``shutdown`` unlinks both."""
    backend = _process(persistent=True)
    pool = backend.segment_pool
    try:
        server, clients = _federation(num=4, keyed=False)
        handles = backend.submit_many(
            clients, server.model, server.global_state
        )
        [backend.result(h) for h in handles]
        (slot,) = [s.shm.name for s in backend._result_slots]
        entries = pool._entries.values()
        scoped = {e.shm.name for e in entries if e.key[0] == "run"}
        keyed = {e.shm.name for e in entries if e.key[0] != "run"}
        assert len(scoped) == len(keyed) == 1 and scoped != keyed
        backend.end_run()
        assert _unlinked(*scoped)
        assert not _unlinked(*keyed) and not _unlinked(slot)
    finally:
        backend.shutdown()
    assert _unlinked(*keyed) and _unlinked(slot)


_CRASH_SCRIPT = textwrap.dedent(
    """
    import signal, sys
    from types import SimpleNamespace
    import numpy as np
    from repro.engine.backends import ProcessPoolBackend

    backend = ProcessPoolBackend(max_workers=1)
    keyed, scoped = backend.segment_pool.acquire_many([
        (("k", 0), lambda: {"x": np.zeros(8)}, False),
        (("run", 1), lambda: {"x": np.ones(8)}, False),
    ])
    (rows,) = backend._take_result_rows([([0, 1], SimpleNamespace(total=8))])
    for name in (keyed.shm.name, scoped.shm.name, rows[0].shm.name):
        print(name)
    sys.stdout.flush()
    if sys.argv[1] == "exit":
        sys.exit(0)          # dies without close(): atexit must unlink
    signal.pause()           # parent delivers SIGTERM: handler must unlink
    """
)


@pytest.mark.parametrize("mode", ["exit", "sigterm"])
def test_killed_process_leaves_no_batch_or_result_segment(mode):
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    child = subprocess.Popen(
        [sys.executable, "-c", _CRASH_SCRIPT, mode],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
    )
    names = [child.stdout.readline().strip() for _ in range(3)]
    assert all(names), "child failed to publish its segments"
    if mode == "sigterm":
        child.send_signal(signal.SIGTERM)
    child.wait(timeout=30)
    stderr = child.stderr.read()
    child.stdout.close()
    child.stderr.close()
    assert all(_unlinked(name) for name in names)
    assert "leaked shared_memory" not in stderr
