"""Cohort solver: block-stacked multi-client rounds, bitwise invariants.

The cohort solver (``repro.nn.fused.CohortPlan`` + the cohort layer of
``repro.fl.fastpath``) stacks compatible participants' local rounds into
one block solve over a shared feature workspace. Its contract: the
grouping is *bitwise invisible* — same losses, same θ trajectory, same
per-client RNG streams, same EventLog as N independent solves (fused or
layer-graph), across sync/async and serial/process backends, with
automatic per-client fallback whenever a participant cannot join. These
tests enforce that promise, plus plan-cache byte budgeting and
kill-and-resume straight through a cohort round.

The ungrouped reference is per-client dispatch (:class:`_PerClientSerial`:
every round through ``backend.submit``, in-process).
"""

import numpy as np
import pytest

from repro.core.heterogeneous import CapabilityTier, TieredClient
from repro.core.partial import prepare_partial_model
from repro.data.dataset import ArrayDataset
from repro.engine.aggregators import FedAsyncAggregator, FedBuffAggregator
from repro.engine.backends import ExecutionBackend, SerialBackend, make_backend
from repro.engine.runner import run_async_federated_training
from repro.fl import fastpath
from repro.fl.checkpoint import (
    resume_async_federated_training,
    resume_sync_federated_training,
)
from repro.fl.client import Client
from repro.fl.features import FeatureRuntime
from repro.fl.rounds import run_federated_training
from repro.fl.selection import EntropySelector, FullSelector, RandomSelector
from repro.fl.server import Server
from repro.fl.slab import SlabLayout, make_slab_state
from repro.fl.strategies import LocalSolver
from repro.fl.timing import TimingModel
from repro.nn.mlp import MLP
from repro.nn.segmented import SegmentedModel
from repro.nn.serialization import theta_keys
from repro.obs.report import TelemetrySession

RNG = np.random.default_rng


# ---------------------------------------------------------------------------
# Federation builder — partial MLP + entropy selection, the cohortable shape
# ---------------------------------------------------------------------------


def _make_model():
    model = MLP(24, (16, 16, 16), 5, RNG(1))
    prepare_partial_model(model, "moderate")
    return model


def _make_client(cid, n=40, selector=None, cls=Client, extra=(), fraction=0.3):
    rng = RNG(100 + cid)
    x = rng.normal(size=(n, 24))
    y = rng.integers(0, 5, size=n)
    return cls(
        cid,
        ArrayDataset(x, y),
        selector if selector is not None else EntropySelector(),
        LocalSolver(),
        fraction,
        2,
        RNG(500 + cid),
        *extra,
    )


class _CustomClient(Client):
    """Overrides ``run_round``, so it always runs per client."""

    def run_round(self, *args, **kwargs):
        return super().run_round(*args, **kwargs)


class _PerClientSerial(SerialBackend):
    """Ungrouped dispatch: the base ``submit_many`` runs every client
    through ``submit`` alone — the per-client fused path."""

    submit_many = ExecutionBackend.submit_many


def _build(
    num=8, n=40, sizes=None, tiers=(), custom=(), selector=None, fraction=0.3
):
    """A server (slab global state) plus ``num`` cohortable clients.

    ``sizes[cid]`` overrides the dataset size (ragged cohorts); ``tiers``
    is a set of client ids built as :class:`TieredClient` instead
    (heterogeneous federations — those always fall back per client), and
    ``custom`` a set built as :class:`_CustomClient`. ``selector`` makes
    each client's selector (default: entropy).
    """
    model = _make_model()
    clients = []
    if sizes is not None:
        num = len(sizes)
    for cid in range(num):
        size = n if sizes is None else sizes[cid]
        chosen = selector() if selector is not None else None
        if cid in tiers:
            clients.append(
                _make_client(cid, size, cls=TieredClient,
                             extra=(CapabilityTier("medium", "moderate"),))
            )
        elif cid in custom:
            clients.append(_make_client(cid, size, cls=_CustomClient))
        else:
            clients.append(
                _make_client(cid, size, selector=chosen, fraction=fraction)
            )
    state = model.state_dict()
    layout = SlabLayout([(k, state[k].shape) for k in theta_keys(model)])
    server = Server(
        model,
        ArrayDataset(RNG(7).normal(size=(64, 24)), RNG(8).integers(0, 5, 64)),
    )
    server.global_state = make_slab_state(state, layout)
    return server, clients


def _hist_sig(history):
    return [
        (r.test_accuracy, r.selected_samples, r.client_seconds,
         r.mean_local_loss)
        for r in history.records
    ]


def _log_sig(log):
    return [
        (r.kind, r.virtual_time, r.client_id, r.staleness, r.test_accuracy,
         r.num_selected, r.client_seconds, r.mean_local_loss)
        for r in log.records
    ]


def _theta_bytes(server):
    return {
        k: server.global_state[k].tobytes() for k in theta_keys(server.model)
    }


def _rng_states(clients):
    return [c.rng.bit_generator.state for c in clients]


def _run_sync(server, clients, backend=None, runtime=None, rounds=3, seed=3):
    return run_federated_training(
        server, clients, rounds=rounds, seed=seed, timing=TimingModel(),
        backend=backend, feature_runtime=runtime,
    )


#: grouping backends by name, each with its own feature runtime
_BACKENDS = {
    "serial": lambda: SerialBackend(feature_runtime=FeatureRuntime()),
    "process": lambda: make_backend(
        "process", max_workers=2, feature_runtime=FeatureRuntime()
    ),
}


def _sync_reference(**build_kwargs):
    """The per-client fused path (no cohorts) — the identity baseline."""
    server, clients = _build(**build_kwargs)
    with _PerClientSerial(feature_runtime=FeatureRuntime()) as backend:
        history = _run_sync(server, clients, backend)
    return _hist_sig(history), _theta_bytes(server), _rng_states(clients)


# ---------------------------------------------------------------------------
# Sync bitwise identity: serial / no backend / process
# ---------------------------------------------------------------------------


def test_sync_serial_cohort_bitwise_and_engaged():
    """Serial cohort run == per-client fused run; cohorts actually solve."""
    ref_hist, ref_theta, ref_rngs = _sync_reference()
    before = fastpath.COHORT_STATS["cohort_solves"]
    server, clients = _build()
    with SerialBackend(feature_runtime=FeatureRuntime()) as backend:
        history = _run_sync(server, clients, backend)
    assert fastpath.COHORT_STATS["cohort_solves"] > before
    assert _hist_sig(history) == ref_hist
    assert _theta_bytes(server) == ref_theta
    assert _rng_states(clients) == ref_rngs


def test_sync_inline_cohort_bitwise():
    """With no backend, the loop's own serial backend groups cohorts with
    the same results."""
    ref_hist, ref_theta, ref_rngs = _sync_reference()
    server, clients = _build()
    history = _run_sync(server, clients, runtime=FeatureRuntime())
    assert _hist_sig(history) == ref_hist
    assert _theta_bytes(server) == ref_theta
    assert _rng_states(clients) == ref_rngs


def test_sync_graph_path_bitwise():
    """Cohort solves match the full-forward layer-graph path (no
    FeatureRuntime), not just the fused one."""
    server, clients = _build()
    graph_hist = _hist_sig(_run_sync(server, clients))
    graph_theta = _theta_bytes(server)
    server, clients = _build()
    with SerialBackend(feature_runtime=FeatureRuntime()) as backend:
        cohort_hist = _hist_sig(_run_sync(server, clients, backend))
    assert cohort_hist == graph_hist
    assert _theta_bytes(server) == graph_theta


def test_sync_process_cohort_bitwise():
    """Process backend ships one job blob per cohort; results identical."""
    ref_hist, ref_theta, ref_rngs = _sync_reference()
    server, clients = _build()
    with make_backend(
        "process", max_workers=2, feature_runtime=FeatureRuntime()
    ) as backend:
        history = _run_sync(server, clients, backend)
        assert backend.stats["cohort_jobs"] > 0
    assert _hist_sig(history) == ref_hist
    assert _theta_bytes(server) == ref_theta
    assert _rng_states(clients) == ref_rngs


def _counting_walks(monkeypatch):
    """Record the input shape of every uncached FLOPs walk."""
    from repro.nn import profiling

    walks = []
    walk = profiling._walk

    def counting(model, shape):
        walks.append(shape)
        return walk(model, shape)

    monkeypatch.setattr(profiling, "_walk", counting)
    return walks


@pytest.mark.parametrize("backend_name", ["serial", "process"])
def test_cohort_lanes_are_priced_like_solo_rounds(backend_name):
    """A round whose lanes solve as one cohort bills exactly what
    per-client dispatch bills: the sum, in participant order, of every
    client's own ``planned_round_seconds``, speed multiplier and all."""

    def run(backend):
        server, clients = _build()
        timing = TimingModel(
            speed_multipliers={
                c.client_id: 1.0 + 0.37 * c.client_id for c in clients
            }
        )
        with backend:
            history = run_federated_training(
                server, clients, rounds=1, seed=3, timing=timing,
                backend=backend,
            )
        prices = [c.planned_round_seconds(server.model, timing) for c in clients]
        return history, prices

    solo, _ = run(_PerClientSerial(feature_runtime=FeatureRuntime()))
    before = fastpath.COHORT_STATS["cohort_solves"]
    history, prices = run(_BACKENDS[backend_name]())
    assert fastpath.COHORT_STATS["cohort_solves"] > before
    assert len(set(prices)) == len(prices)
    (record,) = history.records
    assert record.client_seconds == float(
        sum(prices[cid] for cid in record.participants)
    )
    assert record.client_seconds == solo.records[0].client_seconds


@pytest.mark.parametrize("backend_name", ["serial", "process"])
def test_sync_wave_prices_with_one_walk_per_round(backend_name, monkeypatch):
    """A sync round's cohort lanes and solo rounds are priced by the loop
    at dispatch, from the model's structure memo: the first round walks
    the model for its input shape and later rounds reuse that walk, no
    job ships a timing model, and every round bills the per-client
    prices."""
    sizes = [40, 40, 40, 26, 40, 33]  # k = 12 ×4 (cohort), 8 and 10 (solo)
    ref_hist, ref_theta, ref_rngs = _sync_reference(sizes=sizes)
    server, clients = _build(sizes=sizes)
    walks = _counting_walks(monkeypatch)
    before = dict(fastpath.COHORT_STATS)
    with _BACKENDS[backend_name]() as backend:
        shipped = []
        if backend_name == "process":
            dispatch = backend._dispatch

            def spying(entry, job, segments):
                shipped.append(job)
                return dispatch(entry, job, segments)

            backend._dispatch = spying
        history = _run_sync(server, clients, backend)
    stats = {k: v - before[k] for k, v in fastpath.COHORT_STATS.items()}
    assert stats["singletons"] == 6 and stats["cohort_solves"] == 3
    assert walks == [(24,)]
    assert not any("timing" in job for job in shipped)
    assert len(shipped) == (9 if backend_name == "process" else 0)
    timing = TimingModel()
    prices = [c.planned_round_seconds(server.model, timing) for c in clients]
    assert walks == [(24,)]
    assert [r.client_seconds for r in history.records] == [
        float(sum(prices[cid] for cid in r.participants))
        for r in history.records
    ]
    assert _hist_sig(history) == ref_hist
    assert _theta_bytes(server) == ref_theta
    assert _rng_states(clients) == ref_rngs


def test_cohort_pricing_walks_the_model_once_per_input_shape(monkeypatch):
    """Lanes sharing an input shape share one FLOPs walk; each distinct
    shape is walked once per run, and every price equals the solo one,
    taken on a fresh model that has walked nothing."""
    server, clients = _build(num=6)
    # same 24 inputs per sample, laid out as 2×12: a second input shape
    for client in clients[3:]:
        x, y = client.dataset.arrays()
        client.dataset = ArrayDataset(x.reshape(-1, 2, 12), y)
    timing = TimingModel(speed_multipliers={0: 2.0, 4: 3.5})
    solo = [c.planned_round_seconds(_make_model(), timing) for c in clients]
    walks = _counting_walks(monkeypatch)
    before = fastpath.COHORT_STATS["cohort_solves"]
    with SerialBackend(feature_runtime=FeatureRuntime()) as backend:
        history = run_federated_training(
            server, clients, rounds=2, seed=3, timing=timing, backend=backend
        )
    assert fastpath.COHORT_STATS["cohort_solves"] > before
    assert walks == [(24,), (2, 12)]
    assert [c.planned_round_seconds(server.model, timing) for c in clients] == solo
    assert walks == [(24,), (2, 12)]
    assert [r.client_seconds for r in history.records] == [
        float(sum(solo[cid] for cid in r.participants))
        for r in history.records
    ]


# ---------------------------------------------------------------------------
# Async bitwise identity: both aggregators × serial/process
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "make_aggregator",
    [lambda: FedAsyncAggregator(), lambda: FedBuffAggregator(buffer_size=3)],
    ids=["fedasync", "fedbuff"],
)
def test_async_cohort_bitwise_all_backends(make_aggregator):
    """Async cohort waves replay the per-client event log bit for bit."""
    results = {}
    for name, make in [
        ("reference", lambda: _PerClientSerial(
            feature_runtime=FeatureRuntime())),
        ("serial", lambda: SerialBackend(feature_runtime=FeatureRuntime())),
        ("process", lambda: make_backend(
            "process", max_workers=2, feature_runtime=FeatureRuntime())),
    ]:
        server, clients = _build()
        with make() as backend:
            log = run_async_federated_training(
                server, clients, make_aggregator(), max_events=24, seed=5,
                timing=TimingModel(), backend=backend,
            )
        results[name] = (_log_sig(log), _theta_bytes(server))
    reference = results.pop("reference")
    for name, got in results.items():
        assert got[0] == reference[0], f"{name} event log diverged"
        assert got[1] == reference[1], f"{name} theta diverged"


# ---------------------------------------------------------------------------
# Grouping: ragged cohorts, singleton fallback, fallback reasons
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "sizes",
    [[40, 40, 40, 28, 28, 28, 40, 28], [40, 40, 40, 28, 27, 28, 40, 27]],
    ids=["two_sizes", "sizes_sharing_k"],
)
def test_ragged_cohorts_group_by_selected_count(sizes):
    """Different selected counts → separate cohorts, same bits; sizes that
    share a selected count (27 and 28 samples keep 8 at 30%) share one."""
    ref_hist, ref_theta, _ = _sync_reference(sizes=sizes)
    before = dict(fastpath.COHORT_STATS)
    server, clients = _build(sizes=sizes)
    with SerialBackend(feature_runtime=FeatureRuntime()) as backend:
        history = _run_sync(server, clients, backend)
    # Each round forms one cohort per selected count (4 + 4 clients).
    assert fastpath.COHORT_STATS["cohorts"] - before["cohorts"] == 6
    assert fastpath.COHORT_STATS["cohort_clients"] - before["cohort_clients"] == 24
    assert _hist_sig(history) == ref_hist
    assert _theta_bytes(server) == ref_theta


# Shard sizes below, on and across the 32-row tile that all keep k = 3 at
# Pds 10%: one cohort whose lanes hold 26–34 rows.
_TILE_SIZES = [26, 31, 32, 33, 34, 29, 30, 27]


def _ragged_run(backend, mode, sizes, selector, fraction):
    """One 3-round sync run or one 24-event FedBuff run: (signature,
    θ bytes, client RNG states)."""
    server, clients = _build(sizes=sizes, selector=selector, fraction=fraction)
    with backend as b:
        if mode == "sync":
            sig = _hist_sig(_run_sync(server, clients, b))
        else:
            sig = _log_sig(run_async_federated_training(
                server, clients, FedBuffAggregator(buffer_size=3),
                max_events=24, seed=5, timing=TimingModel(), backend=b,
            ))
    return sig, _theta_bytes(server), _rng_states(clients)


@pytest.mark.parametrize("mode", ["sync", "fedbuff"])
@pytest.mark.parametrize("backend_name", ["serial", "process"])
@pytest.mark.parametrize(
    "selector", [EntropySelector, RandomSelector], ids=["eds", "rds"]
)
def test_ragged_rows_share_one_cohort_bitwise(selector, backend_name, mode):
    """Clients with equal k and different shard sizes — below, on and
    across the 32-row tile — solve as one cohort, bitwise equal to
    per-client dispatch: histories or event logs, θ bytes, RNG states."""
    args = (mode, _TILE_SIZES, selector, 0.1)
    reference = _ragged_run(
        _PerClientSerial(feature_runtime=FeatureRuntime()), *args
    )
    before = dict(fastpath.COHORT_STATS)
    got = _ragged_run(_BACKENDS[backend_name](), *args)
    stats = {k: v - before[k] for k, v in fastpath.COHORT_STATS.items()}
    if mode == "sync":
        # one cohort of every client per round, nothing solo
        assert stats["cohorts"] == 3 and stats["singletons"] == 0
        assert stats["cohort_clients"] == 3 * len(_TILE_SIZES)
    else:
        assert stats["cohorts"] > 0
    assert got == reference


@pytest.mark.parametrize("batch_size", [32, 20])
def test_ragged_entropy_scores_ignore_selection_chunking(batch_size):
    """With ``EntropySelector(batch_size=32)`` a solo client of ≤ 32 rows
    scores in one chunk and one of 33–34 in two; at 20, chunks do not
    even start on a tile. The cohort scores every lane in whole tiles of
    its padded stride, and every lane still selects — and ends — bitwise
    as its solo run."""
    def selector():
        return EntropySelector(batch_size=batch_size)

    reference = _ragged_run(
        _PerClientSerial(feature_runtime=FeatureRuntime()),
        "sync", _TILE_SIZES, selector, 0.1,
    )
    before = fastpath.COHORT_STATS["cohort_solves"]
    got = _ragged_run(
        SerialBackend(feature_runtime=FeatureRuntime()),
        "sync", _TILE_SIZES, selector, 0.1,
    )
    assert fastpath.COHORT_STATS["cohort_solves"] - before == 3
    assert got == reference


def test_entropy_chunk_size_does_not_split_cohorts():
    """``EntropySelector.batch_size`` only chunks the graph's scoring, and
    a cohort scores whole tiles, so EDS clients that differ in it alone
    share one cohort: one per round, bitwise equal to the full-forward
    graph (no FeatureRuntime)."""
    def build():
        chunks = iter([16, 256, 16, 256])
        return _build(num=4, selector=lambda: EntropySelector(batch_size=next(chunks)))

    server, clients = build()
    graph_hist = _hist_sig(_run_sync(server, clients))
    graph = (_theta_bytes(server), _rng_states(clients))
    before = dict(fastpath.COHORT_STATS)
    server, clients = build()
    with SerialBackend(feature_runtime=FeatureRuntime()) as backend:
        history = _run_sync(server, clients, backend)
    stats = {k: v - before[k] for k, v in fastpath.COHORT_STATS.items()}
    assert stats["cohorts"] == 3 and stats["cohort_clients"] == 12
    assert stats["singletons"] == 0
    assert _hist_sig(history) == graph_hist
    assert (_theta_bytes(server), _rng_states(clients)) == graph


def test_full_selector_still_splits_by_shard_size():
    """Without selection k = n, so the full selector's cohorts still group
    by shard size: sizes 30, 34 and 31 give two cohorts and one solo
    round per round, bitwise as per-client dispatch."""
    sizes = [30, 34, 30, 34, 31]
    args = ("sync", sizes, FullSelector, 1.0)
    reference = _ragged_run(
        _PerClientSerial(feature_runtime=FeatureRuntime()), *args
    )
    before = dict(fastpath.COHORT_STATS)
    got = _ragged_run(SerialBackend(feature_runtime=FeatureRuntime()), *args)
    stats = {k: v - before[k] for k, v in fastpath.COHORT_STATS.items()}
    assert stats["cohorts"] == 6 and stats["singletons"] == 3
    assert got == reference


def test_one_worker_plan_serves_every_cohort_shape():
    """One worker's plan solves, in a row, cohorts of two lane counts, two
    shard-row strides and two selected counts: built once, and every wave
    bitwise equal to per-client dispatch (θ, counts, losses and RNG
    states)."""
    model = _make_model()
    state = model.state_dict()
    layout = SlabLayout([(k, state[k].shape) for k in theta_keys(model)])
    global_state = make_slab_state(state, layout)
    # (lanes, largest shard, k) at 10%: (3, 34, 3), (5, 30, 3), (4, 64, 6)
    waves = [[26, 34, 30], [30, 28, 26, 27, 29], [60, 64, 55, 58]]

    def wave_updates(backend, sizes, first):
        clients = [
            _make_client(first + i, n, fraction=0.1)
            for i, n in enumerate(sizes)
        ]
        updates = backend.map_round(clients, model, global_state)
        return [
            (u.theta.theta_slab.tobytes(), u.num_selected, u.num_local,
             u.mean_loss)
            for u in updates
        ], _rng_states(clients)

    before = dict(fastpath.COHORT_STATS)
    built = fastpath.STATS["plans_built"]
    with make_backend(
        "process", max_workers=1, feature_runtime=FeatureRuntime()
    ) as backend:
        got = [wave_updates(backend, sizes, 10 * w)
               for w, sizes in enumerate(waves)]
        assert backend.stats["cohort_jobs"] == len(waves)
    stats = {k: v - before[k] for k, v in fastpath.COHORT_STATS.items()}
    assert stats["cohort_solves"] == len(waves)
    # the worker's plan, plus the dispatching process's, which lays the
    # lanes out
    assert fastpath.STATS["plans_built"] - built == 2
    with _PerClientSerial(feature_runtime=FeatureRuntime()) as backend:
        reference = [wave_updates(backend, sizes, 10 * w)
                     for w, sizes in enumerate(waves)]
    assert got == reference


def test_every_training_job_is_one_planned_unit(monkeypatch):
    """A mixed wave (a cohort split into two chunks, a singleton and a
    tiered client) and one ``submit`` reach the workers through one entry
    point: cohort chunks first, then one-member units in client order,
    and no job carries a timing model. Every member resolves bitwise
    equal to per-client dispatch: θ bytes, loss and RNG state."""
    from repro.engine import backends as B

    monkeypatch.setattr(B, "_COHORT_JOB_LANES", 3)
    # k = 12 at 40 samples, 8 at 26; client 1 is tiered, client 7 submitted
    sizes = [40, 40, 40, 26, 40, 40, 40, 40]

    def dispatch(backend):
        server, clients = _build(sizes=sizes, tiers={1})
        *wave, extra = clients
        args = (server.model, server.global_state)
        handles = backend.submit_many(wave, *args)
        handles.append(backend.submit(extra, *args))
        updates = [
            (
                {k: v.tobytes() for k, v in u.theta.items()},
                u.mean_loss,
            )
            for u in map(backend.result, handles)
        ]
        return clients, updates, _rng_states(clients)

    jobs = []
    with make_backend(
        "process", max_workers=2, feature_runtime=FeatureRuntime()
    ) as backend:
        real = backend._dispatch

        def spying(entry, job, fingerprints=None):
            jobs.append((entry, job))
            return real(entry, job, fingerprints)

        backend._dispatch = spying
        clients, got, rngs = dispatch(backend)
        records = [backend._clients[id(c)] for c in clients]
        # one shard entry per client: labels only, or raw for the tiered
        # client, which overrides run_round
        owner = {
            B._wire(shard)[:2]: c.client_id
            for c, record in zip(clients, records)
            for shard in (record.labels, record.raw)
            if shard is not None
        }
        digests = {
            record.digest: c.client_id for c, record in zip(clients, records)
        }
    assert len(owner) == len(digests) == len(clients)
    assert all(entry is B._shm_round for entry, _ in jobs)
    members = [job["members"] for _, job in jobs]
    expected = [[0, 2, 4], [5, 6], [1], [3], [7]]
    assert [[owner[m["shard"][:2]] for m in ms] for ms in members] == expected
    assert [[digests[m["client"][0]] for m in ms] for ms in members] == expected
    assert [["x" in m["shard"][2] for m in ms] for ms in members] == [
        [False] * 3, [False] * 2, [True], [False], [False]
    ]
    assert [job["result"] is not None for _, job in jobs] == [
        True, True, False, False, False
    ]
    assert not any("timing" in job for _, job in jobs)
    with _PerClientSerial(feature_runtime=FeatureRuntime()) as backend:
        _, expected, expected_rngs = dispatch(backend)
    assert got == expected
    assert rngs == expected_rngs


def _count_round_lookups(monkeypatch):
    """Count ϕ chain probes and feature lookups made by local solves;
    evaluation's own fingerprint probes are not counted."""
    counts = {"probes": 0, "lookups": 0}
    probe = SegmentedModel.phi_prefix_chain
    lookup = FeatureRuntime.features_for
    evaluate = Server.evaluate

    def counting_probe(self):
        counts["probes"] += 1
        return probe(self)

    def counting_lookup(self, *args, **kwargs):
        counts["lookups"] += 1
        return lookup(self, *args, **kwargs)

    def uncounted_evaluate(self, *args, **kwargs):
        saved = dict(counts)
        try:
            return evaluate(self, *args, **kwargs)
        finally:
            counts.update(saved)

    monkeypatch.setattr(SegmentedModel, "phi_prefix_chain", counting_probe)
    monkeypatch.setattr(FeatureRuntime, "features_for", counting_lookup)
    monkeypatch.setattr(Server, "evaluate", uncounted_evaluate)
    return counts


def test_singleton_falls_back_per_client(monkeypatch):
    """A size class of one never forms a cohort — counted, then solo, on
    the features the round already looked up: one ϕ chain probe per round
    and one lookup per participant, with or without an explicit backend
    (with none, the loop runs the same serial backend)."""
    sizes = [40, 40, 40, 26]
    ref_hist, ref_theta, _ = _sync_reference(sizes=sizes)
    counts = _count_round_lookups(monkeypatch)
    for with_backend in (True, False):
        counts.update(probes=0, lookups=0)
        before = fastpath.COHORT_STATS["singletons"]
        server, clients = _build(sizes=sizes)
        if with_backend:
            with SerialBackend(feature_runtime=FeatureRuntime()) as backend:
                history = _run_sync(server, clients, backend)
        else:
            history = _run_sync(server, clients, runtime=FeatureRuntime())
        rounds = len(history.records)
        # one singleton per round
        assert fastpath.COHORT_STATS["singletons"] - before == rounds
        assert counts == {"probes": rounds, "lookups": rounds * len(clients)}
        assert _hist_sig(history) == ref_hist
        assert _theta_bytes(server) == ref_theta


def test_cohort_units_fallback_reasons():
    """Each ineligible participant lands on its dedicated counter."""
    model = _make_model()
    state = model.state_dict()
    layout = SlabLayout([(k, state[k].shape) for k in theta_keys(model)])
    global_state = make_slab_state(state, layout)

    class _OddSelector(RandomSelector):
        pass

    clients = [
        _make_client(0),
        _make_client(1),
        _make_client(2),                      # no features published
        _make_client(3, cls=_CustomClient),   # overrides run_round
        _make_client(4, selector=_OddSelector()),  # unknown selector subtype
        _make_client(5, cls=TieredClient,     # takes no cached features
                     extra=(CapabilityTier("medium", "moderate"),)),
    ]
    shape = (16,)  # trailing feature shape of the moderate head's input
    shapes = [shape, shape, None, shape, shape, shape]
    before = dict(fastpath.COHORT_STATS)
    units = fastpath.cohort_units(clients, model, global_state, shapes)
    assert units is not None and len(units) == 1
    positions, _ = units[0]
    assert positions == [0, 1]
    stats = fastpath.COHORT_STATS
    assert stats["fallback_features"] - before["fallback_features"] == 2
    assert (
        stats["fallback_custom_client"] - before["fallback_custom_client"] == 1
    )
    assert stats["fallback_selector"] - before["fallback_selector"] == 1


def test_mixed_tiers_fall_back_bitwise():
    """Clients that override ``run_round`` run per client; homogeneous
    peers still cohort."""
    custom = {1, 4}
    ref_hist, ref_theta, _ = _sync_reference(custom=custom)
    before = fastpath.COHORT_STATS["cohort_solves"]
    fallbacks = fastpath.COHORT_STATS["fallback_custom_client"]
    server, clients = _build(custom=custom)
    with SerialBackend(feature_runtime=FeatureRuntime()) as backend:
        history = _run_sync(server, clients, backend)
    assert fastpath.COHORT_STATS["cohort_solves"] > before
    rounds = len(history.records)
    assert (
        fastpath.COHORT_STATS["fallback_custom_client"] - fallbacks
        == len(custom) * rounds
    )
    assert _hist_sig(history) == ref_hist
    assert _theta_bytes(server) == ref_theta


# ---------------------------------------------------------------------------
# Telemetry
# ---------------------------------------------------------------------------


def test_telemetry_does_not_perturb_cohorts(tmp_path):
    """Tracing on vs off: identical run, and cohort spans are recorded."""
    ref_hist, ref_theta, _ = _sync_reference()
    server, clients = _build()
    with TelemetrySession(directory=str(tmp_path), trace=True):
        with SerialBackend(feature_runtime=FeatureRuntime()) as backend:
            history = _run_sync(server, clients, backend)
    assert _hist_sig(history) == ref_hist
    assert _theta_bytes(server) == ref_theta


# ---------------------------------------------------------------------------
# Kill-and-resume through a cohort round
# ---------------------------------------------------------------------------


class _Killed(Exception):
    pass


def test_sync_kill_and_resume_through_cohort_round(tmp_path):
    """A sync checkpoint taken mid-run resumes bitwise under cohorts."""
    server, clients = _build()
    with _PerClientSerial(feature_runtime=FeatureRuntime()) as backend:
        history = _run_sync(server, clients, backend, rounds=5)
    ref_hist, ref_theta = _hist_sig(history), _theta_bytes(server)

    path = str(tmp_path / "sync_ckpt")

    def bomb(record):
        if record.round_index == 2:
            raise _Killed

    server, clients = _build()
    with pytest.raises(_Killed):
        with SerialBackend(feature_runtime=FeatureRuntime()) as backend:
            run_federated_training(
                server, clients, rounds=5, seed=3, timing=TimingModel(),
                backend=backend, checkpoint_path=path, checkpoint_every=1,
                on_round=bomb,
            )
    server, clients = _build()
    with SerialBackend(feature_runtime=FeatureRuntime()) as backend:
        history = resume_sync_federated_training(
            path, server, clients, timing=TimingModel(), backend=backend,
        )
    assert _hist_sig(history)[2:] == ref_hist[2:]
    assert _theta_bytes(server) == ref_theta


def test_async_kill_and_resume_through_cohort_round(tmp_path):
    """An async run killed mid-stream resumes bitwise under cohorts."""
    server, clients = _build()
    with _PerClientSerial(feature_runtime=FeatureRuntime()) as backend:
        log = run_async_federated_training(
            server, clients, FedBuffAggregator(buffer_size=3), max_events=20,
            seed=5, timing=TimingModel(), backend=backend,
        )
    ref_log, ref_theta = _log_sig(log), _theta_bytes(server)

    path = str(tmp_path / "async_ckpt")
    fired = []

    def bomb(record):
        fired.append(record)
        if len(fired) == 8:
            raise _Killed

    server, clients = _build()
    with pytest.raises(_Killed):
        with SerialBackend(feature_runtime=FeatureRuntime()) as backend:
            run_async_federated_training(
                server, clients, FedBuffAggregator(buffer_size=3),
                max_events=20, seed=5, timing=TimingModel(), backend=backend,
                checkpoint_path=path, checkpoint_every=1, on_event=bomb,
            )
    server, clients = _build()
    with SerialBackend(feature_runtime=FeatureRuntime()) as backend:
        log = resume_async_federated_training(
            path, server, clients, FedBuffAggregator(buffer_size=3),
            timing=TimingModel(), backend=backend,
        )
    assert _log_sig(log) == ref_log
    assert _theta_bytes(server) == ref_theta
