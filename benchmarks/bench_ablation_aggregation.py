"""Design-choice ablation: aggregation weights (Eq. 5).

DESIGN.md records that FedFT-EDS weights client updates by the *selected*
counts |D_select^k| rather than the full shard sizes |D^k|. This bench runs
both weightings on the same federation and reports both, demonstrating the
choice is exercised end to end (at equal Pds across clients the two differ
only through shard-size rounding, so the outcomes stay close — the paper's
formulation matters when selection fractions vary per client).
"""

import numpy as np

from conftest import run_once

from repro.data.partition import dirichlet_partition
from repro.fl.client import Client
from repro.fl.rounds import run_federated_training
from repro.fl.selection import EntropySelector
from repro.fl.server import Server
from repro.fl.strategies import LocalSolver


def _federation(harness, weight_by_selected):
    spec = harness.spec("cifar10")
    model = harness.prepare_global_model(
        __import__("repro.experiments.common", fromlist=["STANDARD_METHODS"])
        .STANDARD_METHODS["fedft_eds"],
        spec,
        "main",
    )
    shards = dirichlet_partition(
        spec.train.labels, 4, 0.5, np.random.default_rng(0)
    )
    clients = []
    for i, shard in enumerate(shards):
        client = Client(
            client_id=i,
            dataset=spec.train.subset(shard),
            selector=EntropySelector(temperature=0.1),
            solver=LocalSolver(lr=0.1, momentum=0.5, batch_size=16),
            # Heterogeneous selection fractions make the weighting matter.
            selection_fraction=0.1 if i % 2 == 0 else 0.5,
            epochs=1,
            rng=np.random.default_rng(100 + i),
        )
        if not weight_by_selected:
            # Patch the upload weight to the full shard size (the ablated
            # alternative): emulate by overriding num_selected post hoc.
            original = client.run_round

            def patched(*args, _orig=original, _n=len(shard), **kwargs):
                update = _orig(*args, **kwargs)
                update.num_selected = _n
                return update

            client.run_round = patched
        clients.append(client)
    server = Server(model, spec.test)
    return server, clients


def test_ablation_aggregation_weights(benchmark, harness):
    def job():
        results = {}
        for weight_by_selected in (True, False):
            server, clients = _federation(harness, weight_by_selected)
            history = run_federated_training(server, clients, rounds=2, seed=0)
            key = "selected" if weight_by_selected else "shard"
            results[key] = history.best_accuracy
        return results

    results = run_once(benchmark, job)
    assert set(results) == {"selected", "shard"}
    assert all(0.0 <= v <= 1.0 for v in results.values())
