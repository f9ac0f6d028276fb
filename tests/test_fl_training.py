"""Client/server/round-loop integration on tiny synthetic federations."""

import numpy as np
import pytest

from repro import nn
from repro.data.dataset import ArrayDataset
from repro.data.partition import iid_partition
from repro.fl.client import Client
from repro.fl.rounds import run_federated_training
from repro.fl.sampling import FractionParticipation, FullParticipation
from repro.fl.selection import EntropySelector, FullSelector, RandomSelector
from repro.fl.server import Server
from repro.fl.strategies import LocalSolver
from repro.fl.timing import TimingModel
from repro.nn.serialization import theta_keys

RNG = np.random.default_rng


def make_federation(
    num_clients=3,
    n=90,
    classes=3,
    selector_cls=RandomSelector,
    fraction=0.5,
    level="moderate",
    prox_mu=0.0,
    seed=0,
):
    rng = RNG(seed)
    x = rng.normal(size=(n, 3, 2, 2))
    w = rng.normal(size=(12, classes))
    y = np.argmax(x.reshape(n, -1) @ w + 0.3 * rng.normal(size=(n, classes)), axis=1)
    train = ArrayDataset(x, y)
    test = ArrayDataset(x[: n // 3], y[: n // 3])
    model = nn.MLP(12, (8, 8, 8), classes, rng)
    model.apply_fine_tune_level(level)
    shards = iid_partition(y, num_clients, rng)
    solver = LocalSolver(lr=0.1, momentum=0.5, prox_mu=prox_mu, batch_size=8)
    clients = [
        Client(
            client_id=i,
            dataset=train.subset(shard),
            selector=selector_cls(),
            solver=solver,
            selection_fraction=fraction if selector_cls is not FullSelector else 1.0,
            epochs=2,
            rng=RNG(seed + 10 + i),
        )
        for i, shard in enumerate(shards)
    ]
    server = Server(model, test)
    return server, clients


def test_client_round_returns_theta_only():
    server, clients = make_federation()
    update = clients[0].run_round(server.model, server.broadcast())
    expected = set(theta_keys(server.model))
    assert set(update.theta) == expected
    assert all(not k.startswith(("stem", "low", "mid")) for k in update.theta)
    assert update.num_selected == int(round(0.5 * update.num_local))


def test_client_round_does_not_mutate_broadcast():
    server, clients = make_federation()
    broadcast = server.broadcast()
    snapshot = {k: v.copy() for k, v in broadcast.items()}
    clients[0].run_round(server.model, broadcast)
    for key, value in snapshot.items():
        assert np.array_equal(broadcast[key], value)


def test_aggregate_updates_theta_and_keeps_phi():
    server, clients = make_federation()
    before = server.broadcast()
    phi_before = {
        k: v.copy() for k, v in before.items() if k.startswith(("stem", "low", "mid"))
    }
    updates = [c.run_round(server.model, server.broadcast()) for c in clients]
    server.aggregate(updates)
    after = server.broadcast()
    for key, value in phi_before.items():
        assert np.array_equal(after[key], value), f"phi changed: {key}"
    assert any(
        not np.array_equal(after[k], before[k]) for k in updates[0].theta
    )


def test_federated_training_learns():
    server, clients = make_federation(selector_cls=FullSelector, level="full")
    history = run_federated_training(server, clients, rounds=12, seed=0)
    assert history.best_accuracy > 0.6
    assert len(history.records) == 12


def test_history_accounting():
    server, clients = make_federation()
    timing = TimingModel(flops_per_second=1e6)
    history = run_federated_training(
        server, clients, rounds=3, seed=0, timing=timing
    )
    assert history.total_client_seconds > 0
    secs = [r.client_seconds for r in history.records]
    cum = [r.cumulative_client_seconds for r in history.records]
    assert cum == pytest.approx(np.cumsum(secs).tolist())
    assert all(r.selected_samples > 0 for r in history.records)


def test_fraction_participation_counts():
    rng = RNG(0)
    model = FractionParticipation(0.3)
    chosen = model.participants(1, 10, rng)
    assert len(chosen) == 3
    assert len(np.unique(chosen)) == 3
    full = FullParticipation().participants(1, 10, rng)
    assert np.array_equal(full, np.arange(10))
    with pytest.raises(ValueError):
        FractionParticipation(0.0)


def test_fraction_participation_in_training():
    server, clients = make_federation(num_clients=6, n=120)
    history = run_federated_training(
        server,
        clients,
        rounds=4,
        seed=0,
        participation=FractionParticipation(0.5),
    )
    assert all(len(r.participants) == 3 for r in history.records)


def test_eval_every_caches_accuracy():
    server, clients = make_federation()
    history = run_federated_training(
        server, clients, rounds=4, seed=0, eval_every=2
    )
    accs = history.accuracies
    assert len(accs) == 4
    assert accs[0] == 0.0  # round 1 not evaluated, no previous value
    assert accs[1] > 0.0  # round 2 evaluated
    assert accs[2] == accs[1]  # round 3 repeats round 2's value


def test_fedprox_pulls_towards_global():
    """With large mu the local update stays closer to the global model."""
    server_a, clients_a = make_federation(prox_mu=0.0, seed=2)
    server_b, clients_b = make_federation(prox_mu=5.0, seed=2)
    broadcast_a = server_a.broadcast()
    broadcast_b = server_b.broadcast()
    up_a = clients_a[0].run_round(server_a.model, broadcast_a)
    up_b = clients_b[0].run_round(server_b.model, broadcast_b)
    drift_a = sum(
        np.linalg.norm(up_a.theta[k] - broadcast_a[k]) for k in up_a.theta
    )
    drift_b = sum(
        np.linalg.norm(up_b.theta[k] - broadcast_b[k]) for k in up_b.theta
    )
    assert drift_b < drift_a * 0.5


@pytest.mark.parametrize(
    "kwargs",
    [{"prox_mu": -1.0}, {"lr": -1.0}, {"lr": 0.0}, {"batch_size": 0},
     {"momentum": -0.1}, {"lr": float("nan")}, {"lr": float("inf")},
     {"momentum": float("nan")}, {"momentum": float("inf")},
     {"prox_mu": float("nan")}, {"prox_mu": float("inf")},
     {"batch_size": 2.5}, {"batch_size": float("nan")}],
)
def test_solver_refuses_invalid_settings(kwargs):
    """Out-of-range, NaN, infinite and fractional settings are refused."""
    name = next(iter(kwargs))
    with pytest.raises(ValueError, match=name):
        LocalSolver(**kwargs)


def test_solver_validation():
    solver = LocalSolver(prox_mu=0.5)
    server, clients = make_federation()
    with pytest.raises(ValueError):
        solver.run(server.model, clients[0].dataset, epochs=1, rng=RNG(0))


def test_client_validation():
    server, clients = make_federation()
    with pytest.raises(ValueError):
        Client(0, clients[0].dataset, RandomSelector(), LocalSolver(), 0.0, 1, RNG(0))
    with pytest.raises(ValueError):
        Client(0, clients[0].dataset, RandomSelector(), LocalSolver(), 0.5, 0, RNG(0))
    empty = ArrayDataset(np.zeros((0, 3, 2, 2)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        Client(0, empty, RandomSelector(), LocalSolver(), 0.5, 1, RNG(0))


def test_run_federated_training_validation(tmp_path):
    server, clients = make_federation()
    with pytest.raises(ValueError):
        run_federated_training(server, clients, rounds=0)
    with pytest.raises(ValueError):
        run_federated_training(server, [], rounds=1)
    # fractional counts are refused before round 1, not truncated
    for knobs in (
        {"rounds": 2.5},
        {"rounds": 3, "eval_every": 1.5},
        {"rounds": 2, "checkpoint_every": 1.5,
         "checkpoint_path": str(tmp_path / "ckpt")},
    ):
        with pytest.raises(ValueError, match="an integer"):
            run_federated_training(server, clients, seed=0, **knobs)
    assert server.round_index == 0
    assert not (tmp_path / "ckpt").exists()


@pytest.mark.parametrize("epochs", [0, -1, 2.5, float("nan")])
def test_client_refuses_non_integer_or_non_positive_epochs(epochs):
    with pytest.raises(ValueError, match="epochs must be positive"):
        Client(
            client_id=0,
            dataset=ArrayDataset(np.zeros((4, 3, 2, 2)), np.zeros(4, int)),
            selector=RandomSelector(),
            solver=LocalSolver(batch_size=2),
            selection_fraction=0.5,
            epochs=epochs,
            rng=RNG(0),
        )


@pytest.mark.parametrize("eval_every", [0, -2])
def test_sync_loop_refuses_non_positive_eval_every(eval_every):
    """Refused before round 1, as the event engine refuses it: 0 would
    fail mid-run and a negative cadence would evaluate on a wrong grid."""
    server, clients = make_federation()
    with pytest.raises(ValueError, match="eval_every must be positive"):
        run_federated_training(
            server, clients, rounds=3, seed=0, eval_every=eval_every
        )
    assert server.round_index == 0


def test_communicated_parameters_smaller_when_frozen():
    server_partial, _ = make_federation(level="moderate")
    server_full, _ = make_federation(level="full")
    assert (
        server_partial.communicated_parameters()
        < server_full.communicated_parameters()
    )


def test_entropy_selector_federation_runs():
    server, clients = make_federation(selector_cls=EntropySelector)
    history = run_federated_training(server, clients, rounds=2, seed=0)
    assert len(history.records) == 2
