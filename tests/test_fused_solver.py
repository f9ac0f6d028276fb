"""Head-solver runtime: bitwise equivalence, fallbacks, lifecycle.

The head solver (``repro.nn.fused.CohortPlan`` + ``repro.fl.fastpath``)
promises that head-only rounds — a solo round as a one-lane solve —
reproduce the layer-graph path *exactly*: same losses, same θ trajectory,
same RNG stream, same EventLog, with the graph running every head the
plan cannot. These tests are that promise's enforcement, plus
prefix-chain feature keying, the plan cache's lifetime and memory, and
pooled evaluation for the synchronous serial path.

The layer-graph reference is reached by patching the module's plan seams
(:func:`_layer_graph`); patches do not reach process workers started with
spawn, so process-backend runs are compared against an in-process serial
reference.
"""

import contextlib
import gc
import weakref

import numpy as np
import pytest

from repro.core.fedft_eds import FedFTEDSConfig, run_fedft_eds
from repro.core.partial import prepare_partial_model
from repro.data.dataset import ArrayDataset
from repro.engine.backends import ProcessPoolBackend, SerialBackend
from repro.fl import fastpath
from repro.fl.client import Client
from repro.fl.features import FeatureRuntime, compute_features, derive_features
from repro.fl.selection import EntropySelector, RandomSelector, selected_count
from repro.fl.server import Server
from repro.fl.strategies import LocalSolver
from repro.nn.cnn import SmallConvNet
from repro.nn.fused import CohortPlan, head_ops
from repro.nn.linear import row_canonical_matmul, row_canonical_matmul_into
from repro.nn.mlp import MLP
from repro.testbed import ENGINE_SMOKE

RNG = np.random.default_rng


def _states_bitwise_equal(a, b):
    return set(a) == set(b) and all(
        a[k].tobytes() == b[k].tobytes() for k in a
    )


@contextlib.contextmanager
def _layer_graph():
    """The in-process layer-graph reference: no head plan binds and no
    cohort forms, so head-only rounds and evaluation run through the
    graph."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fastpath, "head_lane", lambda *args, **kw: None)
        patch.setattr(fastpath, "cohort_units", lambda *args, **kw: None)
        yield


# ---------------------------------------------------------------------------
# Kernel-level identities
# ---------------------------------------------------------------------------


def test_row_canonical_matmul_into_matches_allocating():
    """Same tiling, same bits — with and without caller-owned pad scratch."""
    w = RNG(0).normal(size=(19, 7))
    for n in (1, 3, 32, 33, 64, 70):
        x = RNG(n).normal(size=(n, 19))
        expected = row_canonical_matmul(x, w)
        out = np.empty((n, 7))
        row_canonical_matmul_into(x, w, out)
        assert out.tobytes() == expected.tobytes()
        out2 = np.empty((n, 7))
        row_canonical_matmul_into(
            x, w, out2, np.zeros((32, 19)), np.empty((32, 7))
        )
        assert out2.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# Fusibility extraction
# ---------------------------------------------------------------------------


def _mlp(level="moderate", hidden=(16, 16, 16), classes=5, in_features=48):
    model = MLP(in_features, hidden, classes, RNG(1))
    prepare_partial_model(model, level)
    return model


def test_head_ops_fusible_and_unfusible():
    layers, sig = head_ops(_mlp("moderate"))
    assert [op[0] for op in sig] == ["linear", "relu", "linear"]
    assert len(layers) == 3

    cnn = SmallConvNet(4, RNG(0), channels=(4, 4, 4))
    prepare_partial_model(cnn, "classifier")  # GAP over 4-D ϕ(x)
    assert head_ops(cnn) == (None, None)

    prepare_partial_model(cnn, "moderate")  # BatchNorm lands in θ
    assert head_ops(cnn) == (None, None)

    prepare_partial_model(cnn, "full")  # no frozen prefix at all
    assert head_ops(cnn) == (None, None)

    # an MLP at "full" still has the parameterless Flatten stem as ϕ, so
    # the *entire* trainable network is one fusible chain
    layers, sig = head_ops(_mlp("full"))
    assert [op[0] for op in sig] == [
        "linear", "relu", "linear", "relu", "linear", "relu", "linear"
    ]




def test_signature_tracks_trainable_flags():
    """A partly frozen Linear takes the head off the plan: a plan updates
    every parameter of its chain, so it would not apply the graph's
    update."""
    model = _mlp("moderate")
    _, before = head_ops(model)
    assert before is not None
    model.head.layers[0].bias.requires_grad = False
    assert head_ops(model) == (None, None)


def test_plan_rejects_mismatched_feature_shapes():
    _, sig = head_ops(_mlp("moderate"))
    assert CohortPlan(sig, (16,)).num_classes == 5
    for shape in ((7,), (4, 2, 2)):
        with pytest.raises(ValueError):
            CohortPlan(sig, shape)


# ---------------------------------------------------------------------------
# Client-round bitwise equivalence matrix
# ---------------------------------------------------------------------------


def _one_client_round(fused, *, momentum=0.5, prox=0.0, epochs=3,
                      frac=0.3, n=90, level="moderate", model_kind="mlp",
                      rounds=2):
    """``rounds`` solo rounds of one client: updates, RNG state and how
    many solves ran on the plan."""
    rng = RNG(0)
    x = rng.normal(size=(n, 3, 4, 4))
    y = rng.integers(0, 5, size=n)
    if model_kind == "mlp":
        model = _mlp(level)
    else:
        model = SmallConvNet(5, RNG(1), channels=(4, 4, 4))
        prepare_partial_model(model, level)
    client = Client(
        0, ArrayDataset(x, y), EntropySelector(),
        LocalSolver(lr=0.1, momentum=momentum, prox_mu=prox, batch_size=32),
        frac, epochs, RNG(7),
    )
    state = model.state_dict()
    features = FeatureRuntime().features_for(client, model)
    assert features is not None
    before = fastpath.STATS["fused_solves"]
    with contextlib.nullcontext() if fused else _layer_graph():
        updates = [
            client.run_round(model, state, features=features)
            for _ in range(rounds)
        ]
    plan_solves = fastpath.STATS["fused_solves"] - before
    return updates, client.rng.bit_generator.state, plan_solves


@pytest.mark.parametrize(
    "kwargs",
    [
        {},  # paper defaults: momentum, no prox
        {"momentum": 0.0},
        {"momentum": 0.9},
        {"prox": 0.1},
        {"prox": 0.1, "momentum": 0.9},
        {"frac": 0.37},  # 33 selected: full tile + singleton final batch
        {"frac": 0.02},  # selection clamps to one sample per step
        {"level": "classifier"},
        {"epochs": 1},
        {"model_kind": "cnn", "level": "classifier"},  # GAP over 4-D ϕ(x)
    ],
)
def test_fused_round_bitwise_matches_graph(kwargs):
    """Mean loss, θ bytes and the advanced RNG state of solo one-lane
    rounds agree with the graph round for round — multi-epoch permutation
    draws included. A GAP head over 4-D features is not the plan's: it
    trains on the graph."""
    fused_updates, fused_rng, plan_solves = _one_client_round(True, **kwargs)
    graph_updates, graph_rng, _ = _one_client_round(False, **kwargs)
    assert plan_solves == (0 if kwargs.get("model_kind") == "cnn" else 2)
    assert fused_rng == graph_rng
    for f, g in zip(fused_updates, graph_updates):
        assert f.mean_loss == g.mean_loss
        assert f.num_selected == g.num_selected
        assert list(f.theta) == list(g.theta)
        assert _states_bitwise_equal(f.theta, g.theta)


#: ten shards drawn from Diri(0.5) over 3,000 samples, clipped to 5–849
#: rows: at Pds 10 % they select 1–85 rows, below, on and across the
#: 32-row tile
_SHARD_SIZES = [
    int(min(849, max(5, round(share * 3000))))
    for share in RNG(5).dirichlet(np.full(10, 0.5))
]
_SHARD_SIZES[int(np.argmin(_SHARD_SIZES))] = 5
_SHARD_SIZES[int(np.argmax(_SHARD_SIZES))] = 849


def _lone_submits(graph, level, selector, prox):
    """Two rounds of ten clients submitted alone to a serial backend, the
    second round in reverse order: per round, the client, loss, θ bytes
    and RNG state."""
    model = _mlp(level)
    data = RNG(11)
    clients = []
    for cid, n in enumerate(_SHARD_SIZES):
        x = data.normal(size=(n, 3, 4, 4))
        y = data.integers(0, 5, size=n)
        clients.append(Client(
            cid, ArrayDataset(x, y), selector(),
            LocalSolver(lr=0.1, momentum=0.5, prox_mu=prox, batch_size=32),
            0.1, 2, RNG(50 + cid),
        ))
    server = Server(model, ArrayDataset(x[:8], y[:8]))
    backend = SerialBackend(feature_runtime=FeatureRuntime())
    rounds = []
    with _layer_graph() if graph else contextlib.nullcontext():
        for order in (clients, clients[::-1]):
            for client in order:
                update = backend.result(
                    backend.submit(client, model, server.global_state, None)
                )
                rounds.append((
                    client.client_id,
                    update.mean_loss,
                    update.num_selected,
                    [(k, v.tobytes()) for k, v in update.theta.items()],
                    client.rng.bit_generator.state,
                ))
    return rounds


@pytest.mark.parametrize("prox", [0.0, 0.1], ids=["fedavg", "fedprox"])
@pytest.mark.parametrize(
    "selector", [EntropySelector, RandomSelector], ids=["eds", "rds"]
)
@pytest.mark.parametrize("level", ["full", "moderate"])
def test_lone_submits_of_ragged_shards_bitwise_match_graph(level, selector, prox):
    """Lone ``submit`` s — one-lane solves — of ten Dirichlet-sized shards
    (5–849 rows) at Pds 10 %, alternating client order across rounds, so
    the plan's solve shapes change on every submit: each round's loss, θ
    bytes and RNG state equal the graph's."""
    assert min(_SHARD_SIZES) == 5 and max(_SHARD_SIZES) == 849
    before = dict(fastpath.STATS)
    cohorts = fastpath.COHORT_STATS["cohorts"]
    lanes = _lone_submits(False, level, selector, prox)
    assert fastpath.STATS["fused_solves"] - before["fused_solves"] == 20
    assert fastpath.STATS["graph_solves"] == before["graph_solves"]
    assert fastpath.COHORT_STATS["cohorts"] == cohorts
    assert lanes == _lone_submits(True, level, selector, prox)


def test_unfusible_head_falls_back_to_graph_bitwise():
    """BatchNorm in θ (CNN at the paper-default split): no plan forms, so
    the round takes the layer-graph path and equals the graph reference."""
    fused_updates, fused_rng, plan_solves = _one_client_round(
        True, model_kind="cnn", level="moderate"
    )
    graph_updates, graph_rng, _ = _one_client_round(
        False, model_kind="cnn", level="moderate"
    )
    assert plan_solves == 0
    assert fused_rng == graph_rng
    for f, g in zip(fused_updates, graph_updates):
        assert f.mean_loss == g.mean_loss
        assert _states_bitwise_equal(f.theta, g.theta)


def test_entropy_selection_identical_under_fused_scoring():
    model = _mlp("moderate")
    x = RNG(1).normal(size=(70, 3, 4, 4))
    y = RNG(2).integers(0, 5, size=70)
    client = Client(
        0, ArrayDataset(x, y), EntropySelector(batch_size=16),
        LocalSolver(batch_size=8), 0.2, 1, RNG(3),
    )
    features = FeatureRuntime().features_for(client, model)
    lane = fastpath.head_lane(model, features.shape[1:])
    assert lane is not None and lane.load(model.state_dict())
    selector = client.selector
    graph_scores = selector.scores(model, client.dataset, features)
    fused_scores = selector.scores(model, client.dataset, features, lane)
    assert fused_scores.tobytes() == graph_scores.tobytes()
    graph_idx = selector.select(model, client.dataset, 0.2, RNG(4), features)
    fused_idx = selector.select(
        model, client.dataset, 0.2, RNG(4), features, fastpath=lane
    )
    assert np.array_equal(graph_idx, fused_idx)


def test_fedprox_missing_reference_falls_back_to_graph_error():
    """A FedProx reference missing a θ key: the one-lane solve raises the
    graph path's usual KeyError, never silently skips the proximal term
    (nor falls back to a graph that never received θ)."""
    model = _mlp("moderate")
    x = RNG(1).normal(size=(30, 3, 4, 4))
    y = RNG(2).integers(0, 5, size=30)
    client = Client(
        0, ArrayDataset(x, y), EntropySelector(),
        LocalSolver(prox_mu=0.1, batch_size=8), 0.5, 1, RNG(3),
    )
    features = FeatureRuntime().features_for(client, model)
    lane = fastpath.head_lane(model, features.shape[1:])
    assert lane.load(model.state_dict())
    dataset = client.dataset.subset(np.arange(15))
    with pytest.raises(KeyError):
        client.solver.run(
            model, dataset, 1, RNG(4),
            global_reference={},  # valid object, but no θ keys resolve
            features=features[:15], fastpath=lane,
        )


# ---------------------------------------------------------------------------
# Plan lifecycle
# ---------------------------------------------------------------------------


def test_plan_workspace_shared_by_clients_and_dies_with_model():
    """Clients training in one workspace model share its plan, across
    their rounds; dropping the model frees the plan."""
    model = _mlp("moderate")
    x = RNG(1).normal(size=(40, 3, 4, 4))
    y = RNG(2).integers(0, 5, size=40)
    clients = [
        Client(
            i, ArrayDataset(x, y), EntropySelector(),
            LocalSolver(batch_size=8), 0.5, 1, RNG(3 + i),
        )
        for i in range(2)
    ]
    runtime = FeatureRuntime()
    features = [runtime.features_for(client, model) for client in clients]
    state = model.state_dict()
    gc.collect()
    before = fastpath.plan_cache_nbytes()
    built = fastpath.STATS["plans_built"]
    for _ in range(2):
        for client, feats in zip(clients, features):
            client.run_round(model, state, features=feats)
    assert fastpath.STATS["plans_built"] == built + 1  # one per model
    assert fastpath.plan_cache_nbytes() > before
    del model
    gc.collect()
    assert fastpath.plan_cache_nbytes() == before  # weak cache, no pinning


def test_solo_rounds_hold_one_capacity_not_a_workspace_per_row_count():
    """Solo rounds over 20 shard sizes (20 strides, selected counts and
    minibatch tails) leave the model's plan no larger than a fresh plan
    that ran only the rounds needing the largest stride, selected count
    and tail: its buffers grow to the largest need, never one workspace
    per row count."""
    sizes = [5, 9, 14, 22, 31, 33, 40, 47, 58, 64,
             71, 83, 96, 105, 117, 130, 151, 177, 203, 230]

    def tail(n):
        """Rows of the epoch's last, shorter minibatch (0: none)."""
        return selected_count(n, 0.3) % 32

    def plan_bytes(shards):
        model = _mlp("moderate")
        data = RNG(3)
        gc.collect()
        before = fastpath.plan_cache_nbytes()
        for cid, n in enumerate(shards):
            x = data.normal(size=(n, 3, 4, 4))
            y = data.integers(0, 5, size=n)
            client = Client(
                cid, ArrayDataset(x, y), EntropySelector(),
                LocalSolver(batch_size=32), 0.3, 2, RNG(cid),
            )
            features = compute_features(model, x, batch_size=64)
            client.run_round(model, model.state_dict(), features=features)
        return fastpath.plan_cache_nbytes() - before

    largest = max(sizes)  # the largest stride and selected count
    widest_tail = max(sizes, key=tail)
    assert tail(widest_tail) > tail(largest)
    assert plan_bytes(sizes) <= plan_bytes([largest, widest_tail])


def test_models_with_one_head_signature_never_share_a_plan():
    """Each model keeps its own plan: interleaved rounds in two models of
    one head signature leave no parameter of one aliasing the other's,
    and every round equals the layer-graph oracle."""
    x = RNG(1).normal(size=(40, 3, 4, 4))
    y = RNG(2).integers(0, 5, size=40)

    def run(fused):
        models = []
        for seed in (1, 2):
            model = MLP(48, (16, 16, 16), 5, RNG(seed))
            prepare_partial_model(model, "moderate")
            models.append(model)
        clients = [
            Client(
                i, ArrayDataset(x, y), EntropySelector(),
                LocalSolver(batch_size=8, momentum=0.5), 0.5, 2, RNG(3 + i),
            )
            for i in range(2)
        ]
        states = [
            {k: v.copy() for k, v in model.state_dict().items()}
            for model in models
        ]
        runtime = FeatureRuntime()
        features = [
            runtime.features_for(client, model)
            for client, model in zip(clients, models)
        ]
        rounds = []
        with contextlib.nullcontext() if fused else _layer_graph():
            for _ in range(2):
                for model, client, state, feats in zip(
                    models, clients, states, features
                ):
                    update = client.run_round(model, state, features=feats)
                    rounds.append((
                        update.mean_loss,
                        [(k, v.tobytes()) for k, v in update.theta.items()],
                        client.rng.bit_generator.state,
                    ))
                    a, b = models
                    assert not any(
                        np.shares_memory(p.data, q.data)
                        for p in a.parameters()
                        for q in b.parameters()
                    )
        return rounds

    assert run(True) == run(False)


def test_plan_releases_feature_references_after_use():
    """A plan lives as long as its model, so it must not pin the ϕ(x)
    array of the last client it ran between rounds — an anonymous
    client's features die with the client."""
    model = _mlp("moderate")
    x = RNG(1).normal(size=(40, 3, 4, 4))
    y = RNG(2).integers(0, 5, size=40)
    client = Client(
        0, ArrayDataset(x, y), EntropySelector(), LocalSolver(batch_size=8),
        0.5, 1, RNG(3),
    )
    features = compute_features(model, x, batch_size=16)
    update = client.run_round(model, model.state_dict(), features=features)
    assert fastpath.head_lane(model, features.shape[1:]) is not None
    assert update.theta.theta_slab is not None  # the round ran on the plan
    alive = weakref.ref(features)
    del features
    gc.collect()
    assert alive() is None


def test_plan_not_pickled_with_worker_client_descriptor():
    """The process backend's client descriptor (what workers unpickle) must
    not drag plan workspaces across the pipe."""
    import copy
    import pickle

    model = _mlp("moderate")
    x = RNG(1).normal(size=(40, 3, 4, 4))
    y = RNG(2).integers(0, 5, size=40)
    client = Client(
        0, ArrayDataset(x, y), EntropySelector(), LocalSolver(batch_size=8),
        0.5, 1, RNG(3),
    )
    features = FeatureRuntime().features_for(client, model)
    assert fastpath.head_lane(model, features.shape[1:])
    clone = copy.copy(client)
    clone.dataset = None
    clone.rng = None
    blob = pickle.dumps(clone)  # plans are cached per model, weakly
    assert len(blob) < 4096
    assert pickle.loads(blob).client_id == client.client_id


# ---------------------------------------------------------------------------
# End-to-end equivalence (sync serial + async process)
# ---------------------------------------------------------------------------


def _run(config_kwargs):
    result = run_fedft_eds(FedFTEDSConfig(**config_kwargs))
    return result.history.records, {
        k: v.copy() for k, v in result.server.global_state.items()
    }


def test_end_to_end_sync_equivalence_fused_vs_graph():
    base = dict(ENGINE_SMOKE, model="mlp", seed=3, selection="eds")
    fused_records, fused_state = _run(base)
    with _layer_graph():
        graph_records, graph_state = _run(base)
    assert fused_records == graph_records
    assert _states_bitwise_equal(fused_state, graph_state)


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_end_to_end_async_equivalence_fused_vs_graph(backend):
    base = dict(
        ENGINE_SMOKE, model="mlp", seed=9, mode="fedasync",
        dropout_probability=0.2,
    )
    with _layer_graph():
        graph_records, graph_state = _run(base)
    fused_records, fused_state = _run(
        dict(base, backend=backend, max_workers=2)
    )
    assert fused_records == graph_records
    assert _states_bitwise_equal(fused_state, graph_state)


# ---------------------------------------------------------------------------
# Pooled evaluation: fused worker jobs + the serial path satellite
# ---------------------------------------------------------------------------


def _mlp_federation(num_clients=2, samples=80, test=48):
    rng = RNG(0)
    x = rng.normal(size=(samples, 3, 4, 4))
    y = rng.integers(0, 5, size=samples)
    model = _mlp("moderate")
    clients = [
        Client(
            i, ArrayDataset(x, y), EntropySelector(), LocalSolver(batch_size=8),
            0.3, 1, RNG(10 + i), shard_key=("fused-test", i),
        )
        for i in range(num_clients)
    ]
    test_set = ArrayDataset(x[:test], y[:test])
    return model, clients, test_set


@pytest.mark.parametrize("fused", [True, False])
def test_pooled_evaluation_fused_matches_serial(fused):
    """Worker shards score through the head plan over cached features, or
    (a backend without a FeatureRuntime) through the full forward over raw
    inputs; either count reduction equals the serial evaluation."""
    from repro.fl.server import Server

    model, _clients, test_set = _mlp_federation()
    serial = Server(model, test_set)
    state = serial.global_state  # slab-backed, as the server publishes it
    expected = serial.evaluate(batch_size=16)
    backend = ProcessPoolBackend(
        max_workers=2, feature_runtime=FeatureRuntime() if fused else None
    )
    counter = "fused_eval_shards" if fused else "graph_eval_shards"
    before = fastpath.STATS[counter]
    try:
        got = backend.evaluate_pooled(model, state, test_set, batch_size=16)
    finally:
        backend.shutdown()
    assert got == expected
    assert fastpath.STATS[counter] > before


def test_harness_serial_runs_reuse_warm_campaign_evaluator():
    """After one process-backend run, a serial run of the same campaign
    rides the warm workers for its evaluations — bitwise identical to a
    cold, purely serial campaign."""
    from repro.experiments.common import STANDARD_METHODS
    from repro.testbed import smoke_harness

    method = STANDARD_METHODS["fedft_eds"]
    with smoke_harness(seed=21) as cold:
        reference = cold.federated("cifar10", method, 0.1, 2, rounds=2,
                                   backend="serial")
    with smoke_harness(seed=21) as warm:
        warm.federated("cifar10", method, 0.1, 2, rounds=2, backend="process")
        pooled_before = warm._campaign_backend.stats["pooled_evals"]
        serial_run = warm.federated("cifar10", method, 0.1, 2, rounds=2,
                                    backend="serial")
        assert warm._campaign_backend.stats["pooled_evals"] > pooled_before
    assert (
        serial_run.history.accuracies.tolist()
        == reference.history.accuracies.tolist()
    )


def test_harness_async_serial_runs_reuse_warm_campaign_evaluator():
    """Event-engine serial runs borrow the warm workers too, and their
    EventLog accuracies stay bitwise identical to a purely serial
    campaign's."""
    from repro.experiments.common import STANDARD_METHODS
    from repro.testbed import smoke_harness

    method = STANDARD_METHODS["fedft_eds"]
    kwargs = dict(rounds=2, mode="fedbuff", backend="serial")
    with smoke_harness(seed=22) as cold:
        reference = cold.federated("cifar10", method, 0.1, 2, **kwargs)
    with smoke_harness(seed=22) as warm:
        warm.federated("cifar10", method, 0.1, 2, rounds=2, backend="process")
        pooled_before = warm._campaign_backend.stats["pooled_evals"]
        serial_run = warm.federated("cifar10", method, 0.1, 2, **kwargs)
        assert warm._campaign_backend.stats["pooled_evals"] > pooled_before
    assert (
        serial_run.history.accuracies.tolist()
        == reference.history.accuracies.tolist()
    )


# ---------------------------------------------------------------------------
# Prefix-chain feature keying
# ---------------------------------------------------------------------------


def _two_split_models():
    """One pretrained MLP at two fine-tune levels: chains share a prefix."""
    deep = _mlp("classifier")  # ϕ = stem+low+mid+up (split 4)
    shallow = MLP(48, (16, 16, 16), 5, RNG(1))
    shallow.load_state_dict(deep.state_dict())
    prepare_partial_model(shallow, "moderate")  # ϕ = stem+low+mid (split 3)
    return shallow, deep


def test_phi_prefix_chain_ends_at_fingerprint_and_shares_prefixes():
    shallow, deep = _two_split_models()
    shallow_chain = shallow.phi_prefix_chain()
    deep_chain = deep.phi_prefix_chain()
    assert shallow_chain[-1] == shallow.phi_fingerprint()
    assert deep_chain[-1] == deep.phi_fingerprint()
    assert deep_chain[: len(shallow_chain)] == shallow_chain
    cnn = SmallConvNet(4, RNG(0), channels=(4, 4, 4))
    prepare_partial_model(cnn, "full")  # conv stem is trainable: no ϕ
    assert cnn.phi_prefix_chain() == []


def test_derive_features_bitwise_matches_full_build():
    shallow, deep = _two_split_models()
    x = RNG(5).normal(size=(50, 3, 4, 4))
    base = compute_features(shallow, x, batch_size=16)
    derived = derive_features(deep, base, from_split=3, batch_size=16)
    direct = compute_features(deep, x, batch_size=16)
    assert derived.tobytes() == direct.tobytes()


def test_feature_runtime_derives_deeper_split_from_cached_prefix():
    shallow, deep = _two_split_models()
    x = RNG(5).normal(size=(50, 3, 4, 4))
    y = RNG(6).integers(0, 5, size=50)
    client = Client(
        0, ArrayDataset(x, y), EntropySelector(), LocalSolver(batch_size=8),
        0.5, 1, RNG(7), shard_key=("chain", 0),
    )
    runtime = FeatureRuntime(batch_size=16)
    shallow_features = runtime.features_for(client, shallow)
    deep_features = runtime.features_for(client, deep)
    assert runtime.stats["builds"] == 1
    assert runtime.stats["derived"] == 1
    assert deep_features.tobytes() == compute_features(
        deep, x, batch_size=16
    ).tobytes()
    assert shallow_features.tobytes() == compute_features(
        shallow, x, batch_size=16
    ).tobytes()


def test_process_backend_derives_feature_segments_from_prefix():
    shallow, deep = _two_split_models()
    x = RNG(5).normal(size=(50, 3, 4, 4))
    y = RNG(6).integers(0, 5, size=50)
    client = Client(
        0, ArrayDataset(x, y), EntropySelector(), LocalSolver(batch_size=8),
        0.5, 1, RNG(7),
    )
    runtime = FeatureRuntime(batch_size=16)
    backend = ProcessPoolBackend(max_workers=1, feature_runtime=runtime)
    try:
        backend._ensure_features(client, shallow)
        record = backend._ensure_features(client, deep)
        assert runtime.stats["builds"] == 1
        assert runtime.stats["derived"] == 1
        from repro.engine.backends import _view_arrays

        derived = _view_arrays(record.shm.buf, record.layout)["f"]
        assert derived.tobytes() == compute_features(
            deep, x, batch_size=16
        ).tobytes()
    finally:
        backend.shutdown()


def test_process_backend_derives_across_runs_from_pooled_prefix():
    """The motivating campaign shape: run 1 at a shallow split, end_run
    (which clears the per-run feature memo), run 2 at a deeper split —
    the deep features must derive from run 1's *pooled* segment, not
    rebuild from the raw shard."""
    from repro.engine.backends import _view_arrays

    shallow, deep = _two_split_models()
    x = RNG(5).normal(size=(50, 3, 4, 4))
    y = RNG(6).integers(0, 5, size=50)

    def make_client():
        return Client(
            0, ArrayDataset(x, y), EntropySelector(), LocalSolver(batch_size=8),
            0.5, 1, RNG(7), shard_key=("cross-run", 0),
        )

    runtime = FeatureRuntime(batch_size=16)
    backend = ProcessPoolBackend(
        max_workers=1, feature_runtime=runtime, persistent=True,
    )
    try:
        backend._ensure_features(make_client(), shallow)
        backend.end_run()  # clears the per-run memo; pool stays resident
        assert not backend._features
        record = backend._ensure_features(make_client(), deep)
        assert runtime.stats["builds"] == 1  # never rebuilt from raw x
        assert runtime.stats["derived"] == 1
        derived = _view_arrays(record.shm.buf, record.layout)["f"]
        assert derived.tobytes() == compute_features(
            deep, x, batch_size=16
        ).tobytes()
    finally:
        backend.shutdown()


# ---------------------------------------------------------------------------
# Worker-side plan-cache lifecycle
# ---------------------------------------------------------------------------


def test_worker_segment_cache_is_bounded_and_repins_evicted_names():
    """Worker shm attachments: the shard and feature mappings a cached
    client holds stay open however many there are; the rest are
    LRU-bounded, so segments a campaign stops naming do not accumulate
    dead mappings, and closed names re-attach."""
    import pickle
    from multiprocessing import shared_memory
    from types import SimpleNamespace

    from repro.engine import backends as B

    saved = dict(B._WORKER)
    B._shm_worker_init()
    segments = []

    def new_names(count):
        for _ in range(count):
            segments.append(shared_memory.SharedMemory(create=True, size=64))
        return [shm.name for shm in segments[-count:]]

    blob = pickle.dumps(SimpleNamespace())

    def spec(shard, features):
        """A job naming a one-row shard and its features."""
        return {
            "client": (
                "digest", (descriptor, 0, {"blob": (0, (len(blob),), "|u1")})
            ),
            "shard": (
                shard, 0, {"x": (0, (1, 1), "<f8"), "y": (8, (1,), "<i8")}
            ),
            "features": (features, 0, {"f": (0, (1, 1), "<f8")}),
            "rng_state": RNG(0).bit_generator.state,
        }

    try:
        (descriptor,) = new_names(1)
        segments[-1].buf[: len(blob)] = blob
        cap = B._WORKER_SEGMENT_CACHE
        names = new_names(cap + 4)
        # pin the first name as a cached client's shard segment would
        B._cache_client(("tpl", "digest", names[0], 0), object())
        for name in names:
            B._worker_segment(name)
        assert len(B._WORKER["segments"]) <= B._WORKER_SEGMENT_CACHE + 1
        assert names[0] in B._WORKER["segments"]  # pinned by the client
        assert names[-1] in B._WORKER["segments"]  # most recent
        # an evicted name simply re-attaches (the parent still owns it)
        evicted = next(n for n in names[1:] if n not in B._WORKER["segments"])
        seg = B._worker_segment(evicted)
        assert seg.buf is not None

        # More held mappings than the bound: 40 cached clients, each with
        # a shard and a feature hold, then 40 unheld attaches. Held
        # mappings do not count against the bound, so every held name
        # stays mapped and the LRU keeps exactly ``cap`` unheld ones.
        B._drop_client(("tpl", "digest", names[0], 0))
        shards, feats = new_names(40), new_names(40)
        for shard, feat in zip(shards, feats):
            B._worker_client("tpl", spec(shard, feat))
        unheld = new_names(40)
        for name in unheld:
            B._worker_segment(name)
        mapped = B._WORKER["segments"]
        assert all(name in mapped for name in shards + feats)
        assert sum(name in mapped for name in unheld) == cap
        assert len(B._WORKER["unheld"]) == cap
        assert len(mapped) == 80 + cap

        # a second job naming a held feature maps nothing new
        attaches = B.WORKER_STATS["attaches"]
        client, features = B._worker_client("tpl", spec(shards[0], feats[0]))
        assert B.WORKER_STATS["attaches"] == attaches
        assert features.shape == (1, 1)
        del client, features

        # a changed feature name moves the hold; the old mapping joins
        # the LRU as its most recent entry
        (republished,) = new_names(1)
        B._worker_client("tpl", spec(shards[0], republished))
        assert B.WORKER_STATS["attaches"] == attaches + 1
        assert B._WORKER["holds"][republished] == 1
        assert feats[0] not in B._WORKER["holds"]
        assert list(B._WORKER["unheld"])[-1] == feats[0]
        assert len(B._WORKER["unheld"]) == cap

        # evicting the template drops its clients and releases every hold
        B._WORKER["models"].update({"tpl": object(), "next": object()})
        blob = pickle.dumps("replica")
        (template,) = new_names(1)
        segments[-1].buf[: len(blob)] = blob
        B._worker_model(template, len(blob))
        assert not B._WORKER["clients"]
        assert not B._WORKER["holds"]
        assert len(B._WORKER["unheld"]) == cap
        assert len(B._WORKER["segments"]) == cap
    finally:
        B._WORKER["clients"].clear()
        gc.collect()
        for seg in list(B._WORKER["segments"].values()):
            seg.close()
        for shm in segments:
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:
                pass
        B._WORKER.clear()
        B._WORKER.update(saved)


def test_worker_plans_die_with_their_template_replica():
    """A worker's plans are cached on the template replica they run on:
    cohort and eval-shard jobs of two runs' templates with one head build
    one plan per replica, which both the cohort and the evaluation run
    on, and when ``_worker_model`` evicts a replica its plan leaves
    ``plan_cache_nbytes()``."""
    import pickle
    from types import SimpleNamespace

    from repro.engine import backends as B
    from repro.fl.server import Server

    def federation(first):
        server = Server(
            _mlp("moderate", in_features=24),
            ArrayDataset(RNG(7).normal(size=(64, 24)), RNG(8).integers(0, 5, 64)),
        )
        clients = [
            Client(
                cid, ArrayDataset(RNG(100 + cid).normal(size=(30, 24)),
                                  RNG(200 + cid).integers(0, 5, 30)),
                EntropySelector(), LocalSolver(), 0.3, 2, RNG(500 + cid),
            )
            for cid in range(first, first + 4)
        ]
        return server, clients

    def replica_plans(name):
        lanes = fastpath._PLANS[B._WORKER["models"][name]].values()
        return [lane.plan for lane in lanes]

    backend = ProcessPoolBackend(max_workers=1, feature_runtime=FeatureRuntime())
    jobs = []

    def capture(entry, job, fingerprints=None):
        # Capture the job instead of shipping it; an eval shard resolves
        # to a placeholder count, and this process plays the worker below.
        jobs.append((entry, pickle.dumps(job)))
        return SimpleNamespace(future=B._Resolved((0, 1, None)))

    backend._dispatch = capture
    saved = dict(B._WORKER)
    B._shm_worker_init()
    built = fastpath.STATS["plans_built"]
    fused = fastpath.STATS["fused_eval_shards"]
    try:
        for first in (0, 4):
            server, clients = federation(first)
            backend.submit_many(clients, server.model, server.global_state, None)
            backend.evaluate_pooled(
                server.model, server.global_state, server.test_set
            )
        assert backend.stats["cohort_jobs"] == 2 and len(jobs) == 4
        templates = [pickle.loads(blob)["template_name"] for _, blob in jobs]
        assert len(set(templates)) == 2
        built += 2  # the dispatching side's plans, which lay lanes out
        assert fastpath.STATS["plans_built"] == built
        for entry, blob in jobs:
            entry(blob)
        assert fastpath.STATS["plans_built"] == built + 2
        assert fastpath.STATS["fused_eval_shards"] == fused + 2
        for name in set(templates):
            assert [
                type(plan).__name__ for plan in replica_plans(name)
            ] == ["CohortPlan"]
        # A third template evicts the first replica, and its plans go.
        server, clients = federation(8)
        backend.submit_many(clients, server.model, server.global_state, None)
        third = pickle.loads(jobs[-1][1])
        evicted = sum(plan.nbytes for plan in replica_plans(templates[0]))
        gc.collect()
        before = fastpath.plan_cache_nbytes()
        B._worker_model(third["template_name"], third["template_nbytes"])
        gc.collect()
        assert templates[0] not in B._WORKER["models"]
        assert fastpath.plan_cache_nbytes() == before - evicted
    finally:
        B._WORKER["clients"].clear()
        gc.collect()
        for seg in list(B._WORKER["segments"].values()):
            seg.close()
        B._WORKER.clear()
        B._WORKER.update(saved)
        backend.shutdown()


def test_worker_cohort_plan_cache_keeps_one_plan_per_kernel_key():
    """A worker's template replica keeps one plan per head (signature and
    feature shape): cohorts of other lane counts, shard sizes and
    selected counts reuse it, growing it as needed, so it is built once;
    a fresh plan, the grown one and a rebuilt one solve to the same θ
    bytes."""
    from repro.engine import backends as B
    from repro.fl.slab import SlabLayout, make_slab_state
    from repro.nn.serialization import theta_keys
    from repro.obs.metrics import shard_baseline

    model = _mlp("moderate", in_features=24)
    state = model.state_dict()
    layout = SlabLayout([(k, state[k].shape) for k in theta_keys(model)])
    global_state = make_slab_state(state, layout)

    def client(cid, n):
        return Client(
            cid, ArrayDataset(RNG(100 + cid).normal(size=(n, 24)),
                              RNG(200 + cid).integers(0, 5, n)),
            EntropySelector(), LocalSolver(), 0.3, 2, RNG(500 + cid),
        )

    # (lane count, shard sizes): k = 8 at 25–28 samples, 12 at 40, 20 at 66
    cohorts = [
        [26, 28],
        [40, 40, 40, 40, 40],
        [25, 27, 26, 28, 27, 25, 26],
        [66, 66, 66],
    ]
    backend = ProcessPoolBackend(max_workers=1, feature_runtime=FeatureRuntime())
    jobs = []
    # Capture the cohort job blobs instead of shipping them to workers;
    # this process then plays the worker.
    backend._dispatch = lambda entry, job, fingerprints=None: jobs.append(job)
    saved = dict(B._WORKER)
    B._shm_worker_init()
    stats = fastpath.STATS
    cid = 0
    try:
        for sizes in cohorts:
            members = [client(cid + i, n) for i, n in enumerate(sizes)]
            cid += len(sizes)
            backend.submit_many(members, model, global_state, None)
        assert len(jobs) == len(cohorts)
        built = stats["plans_built"]

        def replica_plans():
            (replica,) = B._WORKER["models"].values()
            return fastpath._PLANS[replica]

        def solve(job):
            # the θ stack lands in the job's rows of its result slot
            B._shm_solve(job, shard_baseline())
            assert len(replica_plans()) == 1
            return B._result_rows(job).copy()

        fresh = solve(jobs[0])
        assert stats["plans_built"] == built + 1
        for job in jobs[1:]:
            solve(job)
        grown = solve(jobs[0])
        assert stats["plans_built"] == built + 1
        replica_plans().clear()
        rebuilt = solve(jobs[0])
        assert stats["plans_built"] == built + 2
        assert fresh.tobytes() == grown.tobytes() == rebuilt.tobytes()
    finally:
        B._WORKER["clients"].clear()
        gc.collect()
        for seg in list(B._WORKER["segments"].values()):
            seg.close()
        B._WORKER.clear()
        B._WORKER.update(saved)
        backend.shutdown()
