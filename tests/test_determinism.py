"""Reproducibility guarantees: same seed ⇒ identical everything.

These are load-bearing for EXPERIMENTS.md: the recorded numbers are only
meaningful if a reader re-running `repro-experiments` gets them bit-for-bit.
"""

import numpy as np

from repro import nn
from repro.core.fedft_eds import FedFTEDSConfig, run_fedft_eds
from repro.data import synthetic
from repro.data.partition import dirichlet_partition
from repro.experiments.figures import run_fig1
from repro.experiments.common import ExperimentHarness, STANDARD_METHODS
from repro.testbed import ENGINE_SMOKE

RNG = np.random.default_rng


def test_model_init_deterministic():
    m1 = nn.SmallConvNet(5, RNG(3), channels=(4, 4, 4))
    m2 = nn.SmallConvNet(5, RNG(3), channels=(4, 4, 4))
    for (k1, v1), (k2, v2) in zip(
        sorted(m1.state_dict().items()), sorted(m2.state_dict().items())
    ):
        assert k1 == k2 and np.array_equal(v1, v2)


def test_dataset_generation_deterministic():
    w1 = synthetic.make_vision_world(seed=11, image_size=8)
    w2 = synthetic.make_vision_world(seed=11, image_size=8)
    s1 = synthetic.make_cifar10(w1, seed=4, train_size=50, test_size=20)
    s2 = synthetic.make_cifar10(w2, seed=4, train_size=50, test_size=20)
    x1, y1 = s1.train.arrays()
    x2, y2 = s2.train.arrays()
    assert np.array_equal(x1, x2)
    assert np.array_equal(y1, y2)


def test_partition_deterministic_under_shared_generator_protocol():
    labels = RNG(0).integers(0, 5, size=200)
    p1 = dirichlet_partition(labels, 6, 0.3, 42)
    p2 = dirichlet_partition(labels, 6, 0.3, 42)
    assert all(np.array_equal(a, b) for a, b in zip(p1, p2))


def test_experiment_report_deterministic():
    h1 = ExperimentHarness("smoke", seed=9)
    h2 = ExperimentHarness("smoke", seed=9)
    r1 = run_fig1(h1, {})
    r2 = run_fig1(h2, {})
    assert r1.table == r2.table
    assert r1.data == r2.data or _payloads_equal(r1.data, r2.data)


def _payloads_equal(a, b):
    return str(a) == str(b)


def test_full_federated_run_bitwise_reproducible():
    results = []
    for _ in range(2):
        harness = ExperimentHarness("smoke", seed=21)
        run = harness.federated(
            "cifar100", STANDARD_METHODS["fedft_eds"], alpha=0.1, num_clients=4
        )
        results.append(run)
    a, b = results
    assert np.array_equal(a.history.accuracies, b.history.accuracies)
    assert a.history.total_client_seconds == b.history.total_client_seconds
    assert [r.participants for r in a.history.records] == [
        r.participants for r in b.history.records
    ]


def _final_state(result):
    return {k: v.copy() for k, v in result.server.global_state.items()}


def _states_equal(a, b):
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


def test_async_engine_seed_determinism_same_backend():
    """Same seed + same backend ⇒ identical event log and final weights."""
    for mode in ("fedasync", "fedbuff"):
        a = run_fedft_eds(FedFTEDSConfig(seed=21, mode=mode, **ENGINE_SMOKE))
        b = run_fedft_eds(FedFTEDSConfig(seed=21, mode=mode, **ENGINE_SMOKE))
        assert [
            (r.virtual_time, r.client_id, r.kind, r.staleness, r.model_version)
            for r in a.history.records
        ] == [
            (r.virtual_time, r.client_id, r.kind, r.staleness, r.model_version)
            for r in b.history.records
        ]
        assert np.array_equal(a.history.accuracies, b.history.accuracies)
        assert _states_equal(_final_state(a), _final_state(b))


def test_async_engine_backend_independent():
    """Virtual-time ordering makes the event log backend-invariant too."""
    serial = run_fedft_eds(
        FedFTEDSConfig(seed=5, mode="fedasync", backend="serial", **ENGINE_SMOKE)
    )
    pooled = run_fedft_eds(
        FedFTEDSConfig(
            seed=5, mode="fedasync", backend="process", max_workers=2,
            **ENGINE_SMOKE,
        )
    )
    assert np.array_equal(serial.history.accuracies, pooled.history.accuracies)
    assert _states_equal(_final_state(serial), _final_state(pooled))


def test_process_backend_bitwise_identical_to_serial_sync():
    """Shared-memory workers round-trip client RNG state, so results match."""
    serial = run_fedft_eds(
        FedFTEDSConfig(seed=13, backend="serial", **ENGINE_SMOKE)
    )
    pooled = run_fedft_eds(
        FedFTEDSConfig(seed=13, backend="process", max_workers=2, **ENGINE_SMOKE)
    )
    assert np.array_equal(serial.history.accuracies, pooled.history.accuracies)
    assert _states_equal(_final_state(serial), _final_state(pooled))


def test_process_backend_bitwise_identical_to_serial_async():
    """The event log is invariant to shared-memory process execution too."""
    serial = run_fedft_eds(
        FedFTEDSConfig(
            seed=5, mode="fedbuff", buffer_size=2, backend="serial",
            **ENGINE_SMOKE,
        )
    )
    pooled = run_fedft_eds(
        FedFTEDSConfig(
            seed=5, mode="fedbuff", buffer_size=2, backend="process",
            max_workers=2, **ENGINE_SMOKE,
        )
    )
    assert [
        (r.virtual_time, r.client_id, r.kind, r.staleness, r.model_version)
        for r in serial.history.records
    ] == [
        (r.virtual_time, r.client_id, r.kind, r.staleness, r.model_version)
        for r in pooled.history.records
    ]
    assert np.array_equal(serial.history.accuracies, pooled.history.accuracies)
    assert _states_equal(_final_state(serial), _final_state(pooled))


def test_process_backend_reuses_state_and_shard_segments():
    """One weight publish per model version, one shard segment per client
    — the no-per-job-copies contract of the shared-memory backend."""
    from repro.engine.backends import ProcessPoolBackend
    from repro.fl.rounds import run_federated_training
    from repro.testbed import tiny_federation

    server, clients = tiny_federation()
    with ProcessPoolBackend(max_workers=2) as backend:
        run_federated_training(
            server, clients, rounds=3, seed=0, backend=backend
        )
        stats = dict(backend.stats)
    assert stats["jobs"] == 3 * len(clients)
    assert stats["shard_segments"] == len(clients)
    # one publish per round's broadcast; slots recycled, not accumulated
    assert stats["state_publishes"] == 3
    assert stats["state_segments"] <= 2


def test_different_methods_share_partitions():
    """Fairness: every method in a table sees identical client shards."""
    harness = ExperimentHarness("smoke", seed=2)
    harness.federated("cifar10", STANDARD_METHODS["fedavg"], 0.5, 4)
    p1 = [s.copy() for s in harness.partition("cifar10", 0.5, 4)]
    harness.federated("cifar10", STANDARD_METHODS["fedft_eds"], 0.5, 4)
    p2 = harness.partition("cifar10", 0.5, 4)
    assert all(np.array_equal(a, b) for a, b in zip(p1, p2))
