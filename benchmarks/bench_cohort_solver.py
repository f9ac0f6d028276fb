"""Benchmark: cohort solver — per-round speedup over per-client dispatch.

PR 5 made one client's local round a preplanned zero-allocation kernel;
per-round cost at scale is now the *per-client* dispatch overhead: one
``run_round`` call, one θ load, one plan checkout and one θ snapshot per
participant. The cohort solver (``repro.nn.fused.CohortPlan`` + the
cohort layer of ``repro.fl.fastpath``) stacks every compatible
participant into one block solve over a shared feature workspace, so a
round costs one plan execution regardless of cohort size. Pinned here:

1. **Identity first** — a 2-round federated run over cohortable clients
   is byte-identical (history and final weights) with cohorts, on both
   backends, to the same run dispatched one client at a time on the
   serial backend. A fast-but-different solver is worthless.
2. **Round speedup** — at 512 clients with paper-default hyperparams
   (MLP hidden 64, 8 classes, batch 32, E = 5, entropy selection at
   Pds = 10%) a cohort round on the process backend must run at least
   3× faster than 512 per-client fused dispatches: cohorts ship one
   job blob per 64-lane chunk where per-client dispatch pays 512 job
   round-trips (pickle, queue, shared-memory attach, result wrap). The
   two paths are timed interleaved, rep by rep, so machine-load drift
   hits both equally instead of biasing the ratio.

Per-client dispatch is the backends' ``submit``, one job per client, each
a one-lane solve on the worker's head plan: the ``_PerClient*`` subclasses
below route ``submit_many`` through the base loop over ``submit``.
"""

import time

import numpy as np

from conftest import run_once

from repro.core.partial import prepare_partial_model
from repro.data.dataset import ArrayDataset
from repro.engine.backends import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    make_backend,
)
from repro.fl.client import Client
from repro.fl.features import FeatureRuntime
from repro.fl.rounds import run_federated_training
from repro.fl.selection import EntropySelector
from repro.fl.server import Server
from repro.fl.slab import SlabLayout, make_slab_state
from repro.fl.strategies import LocalSolver
from repro.nn.mlp import MLP
from repro.nn.serialization import theta_keys

TIMED_CLIENTS = 512
IDENTITY_CLIENTS = 48
SHARD = 30
CLASSES = 8
FEATURES = 24

#: paper-default local-solver hyperparameters (Table II setup)
SOLVER = dict(lr=0.1, momentum=0.5, batch_size=32)
EPOCHS = 5
PDS = 0.1


class _PerClientSerial(SerialBackend):
    submit_many = ExecutionBackend.submit_many


class _PerClientProcess(ProcessPoolBackend):
    submit_many = ExecutionBackend.submit_many


def _federation(num_clients: int):
    model = MLP(FEATURES, (64, 64, 64), CLASSES, np.random.default_rng(1))
    prepare_partial_model(model, "moderate")
    clients = []
    for cid in range(num_clients):
        rng = np.random.default_rng(100 + cid)
        x = rng.normal(size=(SHARD, FEATURES))
        y = rng.integers(0, CLASSES, size=SHARD)
        clients.append(
            Client(
                client_id=cid,
                dataset=ArrayDataset(x, y),
                selector=EntropySelector(),
                solver=LocalSolver(**SOLVER),
                selection_fraction=PDS,
                epochs=EPOCHS,
                rng=np.random.default_rng(500 + cid),
            )
        )
    state = model.state_dict()
    layout = SlabLayout([(k, state[k].shape) for k in theta_keys(model)])
    test_rng = np.random.default_rng(7)
    server = Server(
        model,
        ArrayDataset(
            test_rng.normal(size=(64, FEATURES)),
            test_rng.integers(0, CLASSES, size=64),
        ),
    )
    server.global_state = make_slab_state(state, layout)
    return server, clients


def _identity_run(backend_name: str, grouped: bool = True):
    server, clients = _federation(IDENTITY_CLIENTS)
    if backend_name == "process":
        backend = make_backend(
            "process", max_workers=2, feature_runtime=FeatureRuntime()
        )
    else:
        serial = SerialBackend if grouped else _PerClientSerial
        backend = serial(feature_runtime=FeatureRuntime())
    with backend:
        history = run_federated_training(
            server, clients, rounds=2, seed=5, backend=backend
        )
    return history, server


def _assert_identity():
    """Cohorts == per-client dispatch, byte for byte, on both backends."""
    reference_history, reference_server = _identity_run("serial", False)
    reference_theta = {
        key: reference_server.global_state[key].tobytes()
        for key in theta_keys(reference_server.model)
    }
    for backend_name in ("serial", "process"):
        history, server = _identity_run(backend_name)
        assert history.records == reference_history.records, backend_name
        for key, blob in reference_theta.items():
            assert server.global_state[key].tobytes() == blob, (
                backend_name, key,
            )


def _round_seconds(reps: int = 3) -> tuple[float, float]:
    """Min-of-reps wall time of one 512-client round on the process
    backend (2 workers — the CI core budget), cohort vs per-client fused
    dispatch, timed interleaved. The warm-up round publishes every shard
    and feature segment and builds the worker-side plan caches, so the
    timed rounds measure steady-state dispatch, not campaign setup."""
    setups = []
    for backend_cls in (ProcessPoolBackend, _PerClientProcess):
        server, clients = _federation(TIMED_CLIENTS)
        backend = backend_cls(max_workers=2, feature_runtime=FeatureRuntime())
        broadcast = server.broadcast()
        backend.map_round(clients, server.model, broadcast)  # warm-up
        setups.append((backend, clients, server.model, broadcast))
    best = [float("inf"), float("inf")]
    for _ in range(reps):
        for which, (backend, clients, model, broadcast) in enumerate(setups):
            start = time.perf_counter()
            backend.map_round(clients, model, broadcast)
            best[which] = min(best[which], time.perf_counter() - start)
    for backend, *_ in setups:
        backend.close()
    return best[0], best[1]


def test_cohort_solver_round_speedup(benchmark):
    """One cohort round ≥3× faster than 512 per-client fused dispatches,
    bitwise identical end to end on serial and process."""

    def measure():
        _assert_identity()
        return _round_seconds()

    cohort_round, dispatch_round = run_once(benchmark, measure)

    speedup = dispatch_round / cohort_round
    benchmark.extra_info["clients"] = TIMED_CLIENTS
    benchmark.extra_info["per_client_round_ms"] = dispatch_round * 1e3
    benchmark.extra_info["cohort_round_ms"] = cohort_round * 1e3
    benchmark.extra_info["round_speedup"] = speedup
    assert speedup >= 3.0, (
        f"cohort solver gives only {speedup:.2f}x over per-client fused "
        f"dispatch at {TIMED_CLIENTS} clients ({dispatch_round * 1e3:.1f} ms "
        f"vs {cohort_round * 1e3:.1f} ms per round)"
    )
