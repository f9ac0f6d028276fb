"""Extension tests: capability tiers and heterogeneous aggregation."""

import numpy as np
import pytest

from repro import nn
from repro.core.heterogeneous import (
    DEFAULT_TIERS,
    CapabilityTier,
    TieredClient,
    aggregate_heterogeneous,
    assign_tiers,
)
from repro.data.dataset import ArrayDataset
from repro.data.partition import iid_partition
from repro.fl.selection import RandomSelector
from repro.fl.server import Server
from repro.fl.strategies import LocalSolver, LocalUpdate

RNG = np.random.default_rng


def make_setup(num_clients=3, seed=0):
    rng = RNG(seed)
    n = 90
    x = rng.normal(size=(n, 3, 2, 2))
    y = rng.integers(0, 3, size=n)
    train = ArrayDataset(x, y)
    model = nn.MLP(12, (8, 8, 8), 3, rng)
    shards = iid_partition(y, num_clients, rng)
    tiers = [DEFAULT_TIERS[i % len(DEFAULT_TIERS)] for i in range(num_clients)]
    clients = [
        TieredClient(
            client_id=i,
            dataset=train.subset(shard),
            selector=RandomSelector(),
            solver=LocalSolver(lr=0.05, batch_size=8),
            selection_fraction=0.5,
            epochs=1,
            rng=RNG(seed + i + 1),
            tier=tiers[i],
        )
        for i, shard in enumerate(shards)
    ]
    server = Server(model, ArrayDataset(x[:30], y[:30]))
    return server, clients, tiers


def test_tier_validation():
    with pytest.raises(ValueError):
        CapabilityTier("broken", "mega")
    tier = CapabilityTier("ok", "classifier")
    assert tier.level == "classifier"


def test_assign_tiers_distribution():
    tiers = assign_tiers(100, DEFAULT_TIERS, RNG(0))
    names = {t.name for t in tiers}
    assert names <= {"weak", "medium", "strong"}
    assert len(tiers) == 100
    skewed = assign_tiers(100, DEFAULT_TIERS, RNG(0), [1.0, 0.0, 0.0])
    assert all(t.name == "weak" for t in skewed)
    with pytest.raises(ValueError):
        assign_tiers(0, DEFAULT_TIERS, RNG(0))
    with pytest.raises(ValueError):
        assign_tiers(5, DEFAULT_TIERS, RNG(0), [0.5, 0.5])


def test_tiered_clients_upload_different_key_sets():
    server, clients, tiers = make_setup()
    updates = [c.run_round(server.model, server.broadcast()) for c in clients]
    key_sets = [set(u.theta) for u in updates]
    # weak (classifier) uploads fewer keys than strong (large)
    by_tier = {c.tier.name: u for c, u in zip(clients, updates)}
    assert set(by_tier["weak"].theta) < set(by_tier["strong"].theta)
    assert all(c.tier.level in ("classifier", "moderate", "large")
               for c in clients)


def test_aggregate_heterogeneous_keeps_untrained_keys():
    server, clients, _ = make_setup()
    broadcast = server.broadcast()
    updates = [c.run_round(server.model, broadcast) for c in clients]
    merged = aggregate_heterogeneous(broadcast, updates)
    trained = set().union(*(set(u.theta) for u in updates))
    for key, value in merged.items():
        if key not in trained:
            assert np.array_equal(value, broadcast[key])
    assert any(
        not np.array_equal(merged[k], broadcast[k]) for k in trained
    )


def test_aggregate_heterogeneous_weighted_mean():
    base = {"head.w": np.zeros(2), "up.w": np.zeros(2)}
    u1 = LocalUpdate(theta={"head.w": np.ones(2)}, num_selected=1, num_local=1)
    u2 = LocalUpdate(
        theta={"head.w": np.full(2, 3.0), "up.w": np.full(2, 2.0)},
        num_selected=3,
        num_local=3,
    )
    merged = aggregate_heterogeneous(base, [u1, u2])
    assert np.allclose(merged["head.w"], (1 * 1 + 3 * 3) / 4)
    assert np.allclose(merged["up.w"], 2.0)  # only u2 trained it


def test_aggregate_heterogeneous_validation():
    base = {"w": np.zeros(1)}
    with pytest.raises(ValueError):
        aggregate_heterogeneous(base, [])
    bad = LocalUpdate(theta={"nope": np.zeros(1)}, num_selected=1, num_local=1)
    with pytest.raises(KeyError):
        aggregate_heterogeneous(base, [bad])


def test_heterogeneous_round_trains_end_to_end():
    """A full heterogeneous round: tiered updates + per-key aggregation."""
    server, clients, _ = make_setup(seed=3)
    accs = [server.evaluate()]
    for _round in range(3):
        broadcast = server.broadcast()
        updates = [c.run_round(server.model, broadcast) for c in clients]
        server.set_global_state(aggregate_heterogeneous(broadcast, updates))
        accs.append(server.evaluate())
    assert max(accs[1:]) >= accs[0] - 0.1  # training does not collapse


# ---------------------------------------------------------------------------
# Tiered clients and the event engine
# ---------------------------------------------------------------------------


def _conv_tiered_federation(tiered=True, levels=("classifier", "full")):
    """Four clients on a ``moderate`` SmallConvNet; tiered ones cycle
    through ``levels``."""
    from repro.core.partial import prepare_partial_model
    from repro.fl.client import Client
    from repro.nn.cnn import SmallConvNet

    rng = RNG(0)
    model = SmallConvNet(4, rng, channels=(4, 4, 4))
    prepare_partial_model(model, "moderate")
    x = rng.normal(size=(80, 3, 8, 8))
    y = rng.integers(0, 4, size=80)
    train = ArrayDataset(x, y)
    shards = iid_partition(y, 4, rng)
    clients = []
    for i, shard in enumerate(shards):
        args = (
            i, train.subset(shard), RandomSelector(),
            LocalSolver(lr=0.05, batch_size=8), 0.5, 1, RNG(10 + i),
        )
        clients.append(
            TieredClient(
                *args, tier=CapabilityTier(f"t{i}", levels[i % len(levels)])
            )
            if tiered
            else Client(*args)
        )
    return Server(model, ArrayDataset(x[:20], y[:20])), clients


def test_event_engine_refuses_tiered_clients(tmp_path):
    """A tiered client's price depends on the freeze level the client
    before it left on the shared model, so no dispatch-time schedule can
    match its bill: the event engine and its resume refuse it before the
    first dispatch, naming the client. The sync loop, which prices after
    the round, keeps accepting it."""
    from repro.engine.aggregators import FedAsyncAggregator
    from repro.engine.runner import run_async_federated_training
    from repro.fl.checkpoint import resume_async_federated_training
    from repro.fl.rounds import run_federated_training
    from repro.fl.timing import TimingModel

    timing = TimingModel()
    server, clients = _conv_tiered_federation()
    full_client = clients[1]
    moderate_price = full_client.planned_round_seconds(server.model, timing)
    server.model.apply_fine_tune_level("full")
    assert full_client.planned_round_seconds(server.model, timing) > (
        moderate_price
    )
    server.model.apply_fine_tune_level("moderate")

    server, clients = _conv_tiered_federation()
    with pytest.raises(ValueError, match="client 0 re-freezes"):
        run_async_federated_training(
            server, clients, FedAsyncAggregator(), max_events=4,
            timing=timing, max_concurrency=2,
        )

    # resume: a checkpoint from the untiered pool, resumed with tiers
    path = str(tmp_path / "ckpt")
    server, clients = _conv_tiered_federation(tiered=False)
    run_async_federated_training(
        server, clients, FedAsyncAggregator(), max_events=2,
        timing=timing, max_concurrency=2, checkpoint_path=path,
        checkpoint_every=1,
    )
    server, clients = _conv_tiered_federation()
    with pytest.raises(ValueError, match="client 0 re-freezes"):
        resume_async_federated_training(
            path, server, clients, FedAsyncAggregator(), timing=timing
        )

    # (one shared level: FedAvg needs one key set; mixed levels aggregate
    # through aggregate_heterogeneous)
    server, clients = _conv_tiered_federation(levels=("full",))
    history = run_federated_training(
        server, clients, rounds=2, seed=0, timing=timing
    )
    assert len(history.records) == 2
    assert all(r.client_seconds > 0 for r in history.records)


def test_fedavg_refuses_tiers_at_two_levels():
    """FedAvg needs one key set: mixed levels raise the per-key walk's
    KeyError in round 1, before the server changes."""
    from repro.fl.rounds import run_federated_training

    server, clients = _conv_tiered_federation(levels=("classifier", "full"))
    before = server.global_state
    with pytest.raises(KeyError, match="state 1 keys differ from state 0"):
        run_federated_training(server, clients, rounds=2, seed=0)
    assert server.round_index == 0
    assert server.global_state is before


def test_fedavg_over_one_deeper_level_matches_the_oracle():
    """Tiered clients all at a deeper level than the server's θ upload one
    other key set; the server averages it over a cached packing of that
    set, byte for byte what the per-key oracle gives, and stays on its
    slab."""
    from dict_oracle import DictServer
    from repro.fl.rounds import run_federated_training
    from repro.fl.slab import SlabState

    server, clients = _conv_tiered_federation(levels=("full",))
    run_federated_training(server, clients, rounds=3, seed=0)
    reference, ref_clients = _conv_tiered_federation(levels=("full",))
    reference = DictServer(reference.model, reference.test_set)
    run_federated_training(reference, ref_clients, rounds=3, seed=0)
    assert isinstance(server.global_state, SlabState)
    assert len(server._packings) == 1
    state, ref_state = server.global_state, reference.global_state
    assert set(state) == set(ref_state)
    assert all(state[k].tobytes() == ref_state[k].tobytes() for k in state)


def _fresh_score(state):
    """``state``'s accuracy as a freshly built server scores it."""
    server, _ = _conv_tiered_federation(levels=("full",))
    server.set_global_state(state)
    return server.evaluate()


@pytest.mark.parametrize(
    "evaluation", ["server", "pooled", "pooled-features"]
)
def test_process_rounds_that_retrain_phi_are_scored_on_their_phi(evaluation):
    """Tiered clients at "full" retrain ϕ in the process workers: each
    version's ϕ entries change while the parent's workspace model keeps
    the old ϕ, and the workers' template replicas are re-frozen and
    trained. Every evaluation still scores its own version — locally,
    through pooled jobs over raw inputs, or through pooled jobs over
    ϕ(test) features: the accuracies are the serial run's, and the last
    one is a fresh model's score of the byte-equal final state."""
    from repro.engine.backends import PooledEvaluator, make_backend
    from repro.fl.features import FeatureRuntime
    from repro.fl.rounds import run_federated_training

    server, clients = _conv_tiered_federation(levels=("full",))
    serial = run_federated_training(server, clients, rounds=3, seed=0)
    expected = [record.test_accuracy for record in serial.records]
    reference = server.global_state

    server, clients = _conv_tiered_federation(levels=("full",))
    runtime = FeatureRuntime() if evaluation == "pooled-features" else None
    backend = make_backend("process", max_workers=2, feature_runtime=runtime)
    try:
        if evaluation != "server":
            server.evaluator = PooledEvaluator(backend, server.test_set)
        history = run_federated_training(
            server, clients, rounds=3, seed=0, backend=backend
        )
    finally:
        backend.shutdown()
    state = server.global_state
    assert set(state) == set(reference)
    assert all(state[k].tobytes() == reference[k].tobytes() for k in state)
    assert [record.test_accuracy for record in history.records] == expected
    assert expected[-1] == _fresh_score(state)


def test_superseded_phi_test_sets_are_released():
    """Tiered clients at "full" retrain ϕ, so every pooled evaluation over
    ϕ(test) features needs a new set. The set it supersedes is released
    (its run-scoped segment unlinked), so the backend holds one set
    however many rounds run, and every accuracy is the serial run's."""
    from repro.engine.backends import PooledEvaluator, make_backend
    from repro.fl.features import FeatureRuntime
    from repro.fl.rounds import run_federated_training

    server, clients = _conv_tiered_federation(levels=("full",))
    serial = run_federated_training(server, clients, rounds=6, seed=0)
    expected = [record.test_accuracy for record in serial.records]

    server, clients = _conv_tiered_federation(levels=("full",))
    backend = make_backend(
        "process", max_workers=2, feature_runtime=FeatureRuntime()
    )
    pool = backend.segment_pool
    try:
        server.evaluator = PooledEvaluator(backend, server.test_set)
        history = run_federated_training(
            server, clients, rounds=6, seed=0, backend=backend
        )
        assert server.eval_stats["pooled_evals"] == 6
        assert pool.publishes_by_kind["run"] == 4 + 6  # raw shards, sets
        assert backend.stats["eval_segments"] == 1
        evals = [
            e for e in pool._entries.values() if e.key[:2] == ("run", "eval")
        ]
        assert len(evals) == 1
        # live segments: the first wave's keyed descriptors and run-scoped
        # raw shards, and the last evaluation's set
        assert len(pool._batches) == 3
    finally:
        backend.shutdown()
    assert [record.test_accuracy for record in history.records] == expected


def test_installed_state_with_new_phi_is_scored_in_full():
    """A version installed with other ϕ entries than the last full load's
    is loaded in full before it is scored, though the workspace model's
    own ϕ is untouched and still hashes as before."""
    server, _ = _conv_tiered_federation(levels=("full",))
    server.evaluate()
    state = dict(server.global_state)
    weight = state["stem.layer0.weight"].copy()
    weight.flat[:3] -= 3.0
    state["stem.layer0.weight"] = weight
    server.set_global_state(state)
    fresh = _fresh_score(state)
    assert fresh != _fresh_score(_conv_tiered_federation()[0].global_state)
    assert server.evaluate() == fresh
    assert server.eval_stats["full_loads"] == 2
    assert server.eval_stats["theta_loads"] == 0
    # a version that shares that ϕ by reference is scored θ-only again
    server.set_global_state(server.global_state)
    assert server.evaluate() == fresh
    assert server.eval_stats["full_loads"] == 2
    assert server.eval_stats["theta_loads"] == 1
