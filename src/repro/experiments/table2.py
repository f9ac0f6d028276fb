"""Table II — main close-domain comparison with 10 clients.

Eight methods × {CIFAR-10, CIFAR-100 stand-ins} × α ∈ {0.1, 0.5}, full
participation, Pds = 10% for the selection methods, plus the centralised
upper bound.

Expected shape (paper): FedFT-EDS best among federated methods; both FedFT
variants beat every full-model baseline; pretraining beats scratch;
centralised on top.

Honours the harness ``mode``/``backend``: asynchronous modes replace the
lock-step rounds with the event engine at equal total work
(``rounds × num_clients`` completions), and the process backend
parallelises client rounds with bitwise-identical results. The centralised
upper bound is unaffected.
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentHarness,
    MethodSpec,
    RunResult,
    STANDARD_METHODS,
)
from repro.experiments.reporting import ExperimentReport, accuracy_table

DATASETS = ("cifar10", "cifar100")
ALPHAS = (0.1, 0.5)
METHOD_ORDER = (
    "fedavg_scratch",
    "fedavg",
    "fedavg_rds",
    "fedprox",
    "fedprox_rds",
    "fedft_rds",
    "fedft_eds",
)


def run_matrix(
    harness: ExperimentHarness,
    methods: tuple[str, ...] = METHOD_ORDER,
    datasets: tuple[str, ...] = DATASETS,
    alphas: tuple[float, ...] = ALPHAS,
) -> dict[str, dict[tuple[str, float], RunResult]]:
    """All federated runs of the Table II grid (shared by Figs. 5-6)."""
    results: dict[str, dict[tuple[str, float], RunResult]] = {}
    for key in methods:
        method = STANDARD_METHODS[key]
        results[key] = {}
        for dataset in datasets:
            for alpha in alphas:
                results[key][(dataset, alpha)] = harness.federated(
                    dataset=dataset,
                    method=method,
                    alpha=alpha,
                    num_clients=harness.scale.clients_small,
                )
    return results


def run(
    harness: ExperimentHarness,
    matrix: dict[str, dict[tuple[str, float], RunResult]] | None = None,
) -> ExperimentReport:
    """Regenerate Table II (reusing a precomputed run matrix if given)."""
    matrix = matrix or run_matrix(harness)
    rows = []
    data: dict = {"rows": []}
    for key in METHOD_ORDER:
        method = STANDARD_METHODS[key]
        cells = matrix[key]
        pds = "100" if method.pds == 1.0 else f"{int(round(100 * method.pds))}"
        row = [method.label, pds]
        entry = {"method": method.label, "pds": method.pds, "acc": {}}
        for dataset in DATASETS:
            for alpha in ALPHAS:
                acc = cells[(dataset, alpha)].best_accuracy
                row.append(f"{100 * acc:.2f}")
                entry["acc"][f"{dataset}@{alpha}"] = acc
        rows.append(row)
        data["rows"].append(entry)
    central_row = ["Centralised", "100"]
    central_entry = {"method": "Centralised", "pds": 1.0, "acc": {}}
    for dataset in DATASETS:
        best = harness.centralized(dataset).best_accuracy
        for alpha in ALPHAS:
            central_entry["acc"][f"{dataset}@{alpha}"] = best
        central_row.extend([f"{100 * best:.2f}", ""])
    rows.append(central_row)
    data["rows"].append(central_entry)
    headers = ["Method", "Pds"] + [
        f"{ds} a={alpha}" for ds in DATASETS for alpha in ALPHAS
    ]
    return ExperimentReport(
        experiment_id="table2",
        title=(
            "Table II: global model top-1 accuracy (%), 10 clients, full "
            "participation (synthetic CIFAR-10/100)"
        ),
        table=accuracy_table(headers, rows),
        data=data,
    )
