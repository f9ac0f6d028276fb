"""Benchmark: frozen-feature cache — per-round speedup, publish-once economy.

The cache (``repro.fl.features``) exists because the frozen backbone ϕ
dominates every client round's FLOPs: selection forwards the whole shard,
training forwards ϕ for every minibatch, and evaluation forwards the whole
test set — all redundantly, since ϕ never changes. Two properties pinned
here:

1. **Round speedup** — on a head-only CNN config (the paper's
   weakest-device split) with entropy selection, cached rounds must run at
   least 3× faster than the full-forward baseline while staying bitwise
   identical (history and final weights). Its GAP + Linear classifier
   head has no head plan, so both sides train and evaluate it on the layer
   graph: the ratio is the cache's alone.
2. **Publish-once economy** — a 3-run campaign over the warm process
   backend publishes each shard's feature array and each test-set shard
   into shared memory exactly once; runs 2 and 3 are pure pool hits and
   every run's evaluations ride the pooled workers.

The full-forward baseline is a serial backend without a FeatureRuntime
plus ``batched_logits`` over the raw test inputs for evaluation
(``_FullForwardServer``).
"""

import time

import numpy as np

from conftest import run_once

from repro.core.partial import prepare_partial_model
from repro.data.dataset import ArrayDataset
from repro.data.partition import iid_partition
from repro.engine.backends import SerialBackend
from repro.experiments.common import STANDARD_METHODS
from repro.fl.client import Client
from repro.fl.features import FeatureRuntime
from repro.fl.rounds import run_federated_training
from repro.fl.selection import EntropySelector, batched_logits
from repro.fl.server import Server
from repro.fl.strategies import LocalSolver
from repro.nn import functional as F
from repro.nn.cnn import SmallConvNet
from repro.testbed import smoke_harness

ROUNDS = 8
CLIENTS = 3
SAMPLES = 720
TEST = 240
IMAGE = 16
DATASET = "cifar10"
ALPHA = 0.1


class _FullForwardServer(Server):
    """Evaluation without the cache: a full state load and a full forward
    through ϕ over the raw test inputs."""

    def evaluate(self, batch_size: int = 512) -> float:
        self.model.load_state_dict(self.global_state)
        x, y = self.test_set.arrays()
        return F.accuracy(batched_logits(self.model, x, batch_size), y)


def _federation(cache: bool):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(SAMPLES, 3, IMAGE, IMAGE))
    y = rng.integers(0, 8, size=SAMPLES)
    model = SmallConvNet(8, np.random.default_rng(1))
    # Head-only fine-tuning: everything below the classifier is ϕ — the
    # configuration where the backbone is pure redundant compute.
    prepare_partial_model(model, "classifier")
    shards = iid_partition(y, CLIENTS, np.random.default_rng(2))
    clients = [
        Client(
            client_id=i,
            dataset=ArrayDataset(x, y).subset(shard),
            selector=EntropySelector(),
            solver=LocalSolver(lr=0.05, batch_size=32),
            selection_fraction=0.1,
            epochs=1,
            rng=np.random.default_rng(20 + i),
        )
        for i, shard in enumerate(shards)
    ]
    server_cls = Server if cache else _FullForwardServer
    server = server_cls(model, ArrayDataset(x[:TEST], y[:TEST]))
    return server, clients


def _timed_run(cache: bool):
    server, clients = _federation(cache)
    backend = SerialBackend(
        feature_runtime=FeatureRuntime() if cache else None
    )
    start = time.perf_counter()
    history = run_federated_training(
        server, clients, rounds=ROUNDS, seed=5, backend=backend
    )
    elapsed = time.perf_counter() - start
    return history, server, elapsed


def test_feature_cache_round_speedup(benchmark):
    """Cached rounds ≥3× faster than full forward, bitwise identical.

    The cached timing *includes* building every ϕ(x) array (first-use
    cost), so the speedup shown is the amortised one a real campaign sees.
    """
    cached_history, cached_server, cached_seconds = run_once(
        benchmark, lambda: _timed_run(True)
    )
    full_history, full_server, full_seconds = _timed_run(False)

    assert cached_history.records == full_history.records
    for key, value in full_server.global_state.items():
        assert cached_server.global_state[key].tobytes() == value.tobytes()

    speedup = full_seconds / cached_seconds
    benchmark.extra_info["full_forward_seconds_per_round"] = full_seconds / ROUNDS
    benchmark.extra_info["cached_seconds_per_round"] = cached_seconds / ROUNDS
    benchmark.extra_info["speedup"] = speedup
    assert speedup >= 3.0, (
        f"feature cache gives only {speedup:.2f}x over the full forward "
        f"({full_seconds:.2f}s vs {cached_seconds:.2f}s for {ROUNDS} rounds)"
    )


def test_campaign_publishes_features_and_test_segments_once(benchmark):
    """A 3-run campaign publishes shards, features and test-set shards
    into shared memory exactly once, evaluates on the pooled workers, and
    reproduces identical results run to run."""
    harness = smoke_harness(seed=11)
    num_clients = harness.scale.clients_large
    try:
        def campaign():
            results = []
            snapshots = []
            for _ in range(3):
                results.append(
                    harness.federated(
                        DATASET,
                        STANDARD_METHODS["fedft_eds"],
                        ALPHA,
                        num_clients,
                        rounds=2,
                        backend="process",
                    )
                )
                snapshots.append(dict(harness.segment_pool.stats))
            return results, snapshots

        (results, snapshots) = run_once(benchmark, campaign)
        pool = harness.segment_pool
        backend = harness._campaign_backend
        kinds = pool.publishes_by_kind
        # one shard segment and one feature array per distinct client —
        # for the whole campaign, not per run
        assert kinds["shard"] == num_clients, kinds
        assert kinds["feat"] == num_clients, kinds
        # the test set was sharded and published exactly once; later runs
        # (and every evaluation cadence) reuse the pooled segments
        assert kinds["eval"] >= 1, kinds
        assert snapshots[0]["publishes"] == snapshots[2]["publishes"], (
            "runs 2/3 of the campaign published new segments"
        )
        # every run's evaluations ran as pooled worker jobs
        assert backend.stats["pooled_evals"] >= 3 * 2
        # identical config ⇒ identical run, campaign reuse notwithstanding
        assert (
            results[0].history.accuracies.tolist()
            == results[2].history.accuracies.tolist()
        )
        benchmark.extra_info["publishes_by_kind"] = dict(kinds)
        benchmark.extra_info["pool_hits"] = pool.stats["hits"]
        benchmark.extra_info["pooled_evals"] = backend.stats["pooled_evals"]
        benchmark.extra_info["feature_builds"] = (
            harness.feature_runtime.stats["builds"]
        )
    finally:
        harness.close()
