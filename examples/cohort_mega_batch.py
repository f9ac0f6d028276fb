"""Mega-batch cohort solver: 1,000 clients per round, one block solve.

At this scale a federated round's cost is not arithmetic but dispatch:
1,000 ``run_round`` calls, θ gathers, plan checkouts and θ snapshots —
and on the process backend, 1,000 job round-trips. The cohort solver
(DESIGN.md "Cohort solver") groups every compatible participant by
(head signature, feature shape, selected count, hyperparameters) and
runs each group as one block-stacked plan with per-client RNG lanes,
bitwise identical to the per-client path. Each client draws its shard
size from 26–34 samples with its own RNG: at Pds = 10% every one keeps 3,
while the shard rows straddle the solver's 32-row GEMM tile, so a round
is one ragged cohort. This script runs the same 1,000-client federation
twice on the process backend — one ``submit`` (one job) per client,
then grouped ``submit_many`` dispatch — and prints the per-round wall
time, the jobs each run dispatched, the grouping counters, and proof
that the two runs produced identical histories and weights. It exits
non-zero if they diverge, or unless every round formed exactly one
cohort and no solo round.

Run:  PYTHONPATH=src python examples/cohort_mega_batch.py
"""

import sys
import time

import numpy as np

from repro.core.partial import prepare_partial_model
from repro.data.dataset import ArrayDataset
from repro.engine.backends import ExecutionBackend, ProcessPoolBackend
from repro.fl import fastpath
from repro.fl.client import Client
from repro.fl.features import FeatureRuntime
from repro.fl.rounds import run_federated_training
from repro.fl.selection import EntropySelector
from repro.fl.server import Server
from repro.fl.slab import SlabLayout, make_slab_state
from repro.fl.strategies import LocalSolver
from repro.nn.mlp import MLP
from repro.nn.serialization import theta_keys

NUM_CLIENTS = 1000
SHARD_SIZES = (26, 34)  # inclusive; every size keeps 3 samples at 10%
FEATURES = 24
CLASSES = 8
ROUNDS = 5


class PerClientBackend(ProcessPoolBackend):
    """The same process backend without grouping: the base
    ``submit_many`` submits each participant as its own job."""

    submit_many = ExecutionBackend.submit_many


def build_federation():
    model = MLP(FEATURES, (64, 64, 64), CLASSES, np.random.default_rng(1))
    prepare_partial_model(model, "moderate")
    clients = []
    for cid in range(NUM_CLIENTS):
        rng = np.random.default_rng(100 + cid)
        shard = int(rng.integers(SHARD_SIZES[0], SHARD_SIZES[1] + 1))
        clients.append(
            Client(
                client_id=cid,
                dataset=ArrayDataset(
                    rng.normal(size=(shard, FEATURES)),
                    rng.integers(0, CLASSES, size=shard),
                ),
                selector=EntropySelector(),
                solver=LocalSolver(lr=0.1, momentum=0.5, batch_size=32),
                selection_fraction=0.1,
                epochs=5,
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


def run(grouped: bool):
    server, clients = build_federation()
    backend_cls = ProcessPoolBackend if grouped else PerClientBackend
    backend = backend_cls(feature_runtime=FeatureRuntime())
    start = time.perf_counter()
    with backend:
        history = run_federated_training(
            server, clients, rounds=ROUNDS, seed=5, backend=backend
        )
    elapsed = time.perf_counter() - start
    theta = {
        key: server.global_state[key].tobytes()
        for key in theta_keys(server.model)
    }
    jobs = (backend.stats["jobs"], backend.stats["cohort_jobs"])
    return history, theta, elapsed, jobs


def main() -> int:
    print(f"Federation: {NUM_CLIENTS} clients x {ROUNDS} rounds, "
          "process backend\n")

    print("per-client dispatch (one job per client)...")
    ref_history, ref_theta, off_seconds, off_jobs = run(grouped=False)
    print(f"  {off_seconds:.2f}s total, "
          f"{1e3 * off_seconds / ROUNDS:.0f} ms/round")

    before = dict(fastpath.COHORT_STATS)
    plans_before = fastpath.STATS["plans_built"]
    print("cohort dispatch   (one job blob per 64-lane chunk)...")
    history, theta, on_seconds, on_jobs = run(grouped=True)
    print(f"  {on_seconds:.2f}s total, "
          f"{1e3 * on_seconds / ROUNDS:.0f} ms/round")
    stats = {k: v - before.get(k, 0) for k, v in fastpath.COHORT_STATS.items()}
    plans_built = fastpath.STATS["plans_built"] - plans_before

    if history.records != ref_history.records:
        print("\nFAIL: histories diverged", file=sys.stderr)
        return 1
    if theta != ref_theta:
        print("\nFAIL: final weights diverged", file=sys.stderr)
        return 1
    print("\nBitwise identical: histories and final θ match byte for byte.")
    print(f"Wall-time ratio   : {off_seconds / on_seconds:.2f}x "
          f"(jobs/cohort_jobs: per-client {off_jobs[0]}/{off_jobs[1]}, "
          f"cohort {on_jobs[0]}/{on_jobs[1]})")
    if stats["cohorts"] != ROUNDS or stats["singletons"]:
        print(f"\nFAIL: expected one cohort and no solo round per round, got "
              f"{stats['cohorts']} cohorts and {stats['singletons']} solo "
              f"rounds over {ROUNDS} rounds", file=sys.stderr)
        return 1

    print("\nGrouping counters (solver.cohort.*, cohort run only):")
    for key in ("cohorts", "cohort_clients", "singletons"):
        print(f"  {key:15s}: {stats[key]}")
    print(f"  plans built    : {plans_built} (solver.fused.*, one per process)")
    fallbacks = {k: v for k, v in stats.items()
                 if k.startswith("fallback_") and v}
    print(f"  fallbacks      : {fallbacks or 'none'}")
    print(f"\nFinal accuracy    : {100 * history.final_accuracy:.2f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
