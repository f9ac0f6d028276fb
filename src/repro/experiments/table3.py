"""Table III — 100-client scenario with straggler simulation.

FedAvg runs at participation fractions fn ∈ {100%, 20%, 10%} (stragglers
drop out), while the lightweight FedFT variants assume full participation.
FedFT-{RDS,EDS} run at Pds ∈ {10%, 50%}; FedFT-ALL uses all local data.

Expected shape (paper): FedFT-EDS beats FedAvg even at full FedAvg
participation, the gap grows when FedAvg loses clients to straggling, EDS >
RDS at both selection levels, and — the paper's critical finding —
FedFT-EDS (50%) beats FedFT-ALL (100%): not all client data is beneficial.

Honours the harness ``mode``/``backend``: under the asynchronous modes the
partial-participation rows (fn < 100%) map to the event engine's
concurrency cap — at most ``fn × num_clients`` clients train at once —
while the process backend parallelises the rounds with
bitwise-identical results.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.common import (
    ExperimentHarness,
    MethodSpec,
    RunResult,
    STANDARD_METHODS,
)
from repro.experiments.reporting import ExperimentReport, accuracy_table

DATASETS = ("cifar10", "cifar100")
ALPHAS = (0.1, 0.5)

#: (row label, method key, participation fraction, Pds)
ROWS: tuple[tuple[str, str, float, float], ...] = (
    ("FedAvg w/o pret.", "fedavg_scratch", 1.0, 1.0),
    ("FedAvg", "fedavg", 1.0, 1.0),
    ("FedAvg (20% c.p.)", "fedavg", 0.2, 1.0),
    ("FedAvg (10% c.p.)", "fedavg", 0.1, 1.0),
    ("FedFT-RDS (10%)", "fedft_rds", 1.0, 0.1),
    ("FedFT-EDS (10%)", "fedft_eds", 1.0, 0.1),
    ("FedFT-ALL", "fedft_all", 1.0, 1.0),
    ("FedFT-RDS (50%)", "fedft_rds", 1.0, 0.5),
    ("FedFT-EDS (50%)", "fedft_eds", 1.0, 0.5),
)


def run_matrix(
    harness: ExperimentHarness,
    datasets: tuple[str, ...] = DATASETS,
    alphas: tuple[float, ...] = ALPHAS,
) -> dict[str, dict[tuple[str, float], RunResult]]:
    """All runs of the Table III grid (shared by Figs. 7-9)."""
    results: dict[str, dict[tuple[str, float], RunResult]] = {}
    for label, key, fraction, pds in ROWS:
        method = STANDARD_METHODS[key]
        if pds != method.pds:
            method = method.with_pds(pds)
        method = replace(method, label=label)
        results[label] = {}
        for dataset in datasets:
            for alpha in alphas:
                results[label][(dataset, alpha)] = harness.federated(
                    dataset=dataset,
                    method=method,
                    alpha=alpha,
                    num_clients=harness.scale.clients_large,
                    participation_fraction=fraction,
                )
    return results


def run(
    harness: ExperimentHarness,
    matrix: dict[str, dict[tuple[str, float], RunResult]] | None = None,
) -> ExperimentReport:
    """Regenerate Table III (reusing a precomputed run matrix if given)."""
    matrix = matrix or run_matrix(harness)
    rows = []
    data: dict = {"rows": []}
    for label, key, fraction, pds in ROWS:
        cells = matrix[label]
        row = [
            label,
            f"{int(round(100 * fraction))}%",
            f"{int(round(100 * pds))}%",
        ]
        entry = {
            "method": label,
            "participation": fraction,
            "pds": pds,
            "acc": {},
        }
        for dataset in DATASETS:
            for alpha in ALPHAS:
                acc = cells[(dataset, alpha)].best_accuracy
                row.append(f"{100 * acc:.2f}")
                entry["acc"][f"{dataset}@{alpha}"] = acc
        rows.append(row)
        data["rows"].append(entry)
    headers = ["Method", "fn", "Pds"] + [
        f"{ds} a={alpha}" for ds in DATASETS for alpha in ALPHAS
    ]
    return ExperimentReport(
        experiment_id="table3",
        title=(
            "Table III: top-1 accuracy (%), 100 clients with straggler "
            "simulation (synthetic CIFAR-10/100)"
        ),
        table=accuracy_table(headers, rows),
        data=data,
    )
