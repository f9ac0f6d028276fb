"""Benchmark: the head solver — per-round speedup over the head-only graph.

PR 4's frozen-feature cache made every client round head-only, so the
remaining per-round cost is interpreter overhead: layer-graph dispatch,
per-step temporaries, module-tree walks. The head solver
(``repro.nn.fused.CohortPlan`` / ``repro.fl.fastpath``) collapses that
into compiled kernel programs over preallocated buffers; a lone client's
round is a one-lane solve on it. Two properties pinned here:

1. **Round speedup** — at paper-default head shapes (MLP hidden 64, ~8
   classes, batch 32, E = 5, entropy selection at Pds = 10%, momentum 0.5)
   and the paper-typical per-client shard (3000 samples across ~100
   clients ⇒ ~30 per shard), a lone ``SerialBackend(FeatureRuntime())
   .submit`` — a one-lane solve — must run at least 2× faster than the
   same submit through the layer graph, while staying bitwise identical
   (history and final weights).
2. **Identity under load** — the full federated loop (selection, solve,
   aggregation, evaluation) produces byte-identical results through the
   head plan and through the layer graph.

The layer-graph reference patches the plan seams of ``repro.fl.fastpath``
(:func:`_layer_graph`): no head plan binds and no cohort forms.
"""

import contextlib
import time

import numpy as np
import pytest

from conftest import run_once

from repro.core.partial import prepare_partial_model
from repro.data.dataset import ArrayDataset
from repro.data.partition import iid_partition
from repro.engine.backends import SerialBackend
from repro.fl import fastpath
from repro.fl.client import Client
from repro.fl.features import FeatureRuntime
from repro.fl.rounds import run_federated_training
from repro.fl.selection import EntropySelector
from repro.fl.server import Server
from repro.fl.strategies import LocalSolver
from repro.nn.mlp import MLP

CLIENTS = 3
SHARD = 30  # the paper's 3000-sample target split ~100 ways
CLASSES = 8
IMAGE = 12
ROUNDS = 6
TEST = 64

#: paper-default local-solver hyperparameters (Table II setup)
SOLVER = dict(lr=0.1, momentum=0.5, batch_size=32)
EPOCHS = 5
PDS = 0.1


def _model():
    model = MLP(3 * IMAGE * IMAGE, (64, 64, 64), CLASSES, np.random.default_rng(1))
    prepare_partial_model(model, "moderate")
    return model


@contextlib.contextmanager
def _layer_graph():
    """Head-only rounds and evaluation through the layer graph: no head
    plan binds and no cohort forms."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fastpath, "head_lane", lambda *args, **kw: None)
        patch.setattr(fastpath, "cohort_units", lambda *args, **kw: None)
        yield


def _path(fused: bool):
    return contextlib.nullcontext() if fused else _layer_graph()


def _federation():
    rng = np.random.default_rng(0)
    n = CLIENTS * SHARD
    x = rng.normal(size=(n, 3, IMAGE, IMAGE))
    y = rng.integers(0, CLASSES, size=n)
    model = _model()
    shards = iid_partition(y, CLIENTS, np.random.default_rng(2))
    clients = [
        Client(
            client_id=i,
            dataset=ArrayDataset(x, y).subset(shard),
            selector=EntropySelector(),
            solver=LocalSolver(**SOLVER),
            selection_fraction=PDS,
            epochs=EPOCHS,
            rng=np.random.default_rng(20 + i),
        )
        for i, shard in enumerate(shards)
    ]
    server = Server(model, ArrayDataset(x[:TEST], y[:TEST]))
    return server, clients


def _client_round_seconds(reps: int = 11, iters: int = 25) -> tuple[float, float]:
    """Min-of-reps times of one lone ``submit`` (feature lookup, θ load,
    selection scoring, local solve, θ snapshot, pricing skipped) on a
    serial backend with a feature runtime, one-lane and layer-graph. The
    two paths are timed *interleaved*, rep by rep, so machine-load drift
    hits both equally instead of biasing the ratio.
    """
    setups = []
    for fused in (True, False):
        server, clients = _federation()
        client = clients[0]
        state = server.broadcast()
        backend = SerialBackend(feature_runtime=FeatureRuntime())
        with _path(fused):
            backend.submit(client, server.model, state)  # warm-up
        setups.append((fused, backend, client, server.model, state))
    best = [float("inf"), float("inf")]
    for _ in range(reps):
        for which, (fused, backend, client, model, state) in enumerate(setups):
            with _path(fused):
                start = time.perf_counter()
                for _ in range(iters):
                    backend.submit(client, model, state).result()
                elapsed = time.perf_counter() - start
            best[which] = min(best[which], elapsed / iters)
    return best[0], best[1]


def _federated_run(fused: bool):
    server, clients = _federation()
    backend = SerialBackend(feature_runtime=FeatureRuntime())
    with _path(fused):
        start = time.perf_counter()
        history = run_federated_training(
            server, clients, rounds=ROUNDS, seed=5, backend=backend
        )
        elapsed = time.perf_counter() - start
    return history, server, elapsed


def test_fused_solver_round_speedup(benchmark):
    """Lone one-lane submits ≥2× faster than the same submits through the
    head-only layer graph, bitwise identical end to end."""

    def measure():
        fused_history, fused_server, fused_wall = _federated_run(True)
        graph_history, graph_server, graph_wall = _federated_run(False)
        fused_round, graph_round = _client_round_seconds()
        return (
            fused_history, fused_server, fused_wall,
            graph_history, graph_server, graph_wall,
            fused_round, graph_round,
        )

    (
        fused_history, fused_server, fused_wall,
        graph_history, graph_server, graph_wall,
        fused_round, graph_round,
    ) = run_once(benchmark, measure)

    # identity first: a fast-but-different solver would be worthless
    assert fused_history.records == graph_history.records
    for key, value in graph_server.global_state.items():
        assert fused_server.global_state[key].tobytes() == value.tobytes()

    speedup = graph_round / fused_round
    benchmark.extra_info["graph_round_ms"] = graph_round * 1e3
    benchmark.extra_info["fused_round_ms"] = fused_round * 1e3
    benchmark.extra_info["round_speedup"] = speedup
    benchmark.extra_info["federated_speedup"] = graph_wall / fused_wall
    assert speedup >= 2.0, (
        f"the one-lane head solver gives only {speedup:.2f}x over the "
        f"head-only layer graph ({graph_round * 1e3:.3f} ms vs "
        f"{fused_round * 1e3:.3f} ms per lone submit)"
    )
