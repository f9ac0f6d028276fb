"""Table I — pretraining improves FL performance on the downstream task.

FedAvg on the CIFAR-10 stand-in with 10 clients under Diri(0.1)/Diri(0.5),
comparing three global-model initialisations: no pretraining, pretraining
on the CIFAR-100 stand-in, and pretraining on the Small-ImageNet stand-in.

Expected shape (paper): both pretraining sources beat scratch; Small
ImageNet beats CIFAR-100 (broader/richer source); the gap over scratch is
much larger at Diri(0.1) than Diri(0.5).

Uses the convolutional model: pretraining a deep feature extractor is the
phenomenon under study.

Honours the harness ``mode``/``backend``: with ``mode="fedasync"`` or
``"fedbuff"`` every federated run is driven by the event engine on an
equal-work event budget (``rounds × num_clients``), and the process
backend executes client rounds in parallel workers with bitwise-identical
results.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.common import ExperimentHarness, STANDARD_METHODS
from repro.experiments.reporting import ExperimentReport, accuracy_table

ALPHAS = (0.1, 0.5)
PRETRAIN_SOURCES = (None, "cifar100", "small_imagenet")
_SOURCE_LABEL = {None: "na", "cifar100": "CIFAR-100",
                 "small_imagenet": "Small ImageNet"}


def run(harness: ExperimentHarness) -> ExperimentReport:
    """Regenerate Table I at the harness's scale."""
    rows = []
    data: dict = {"alphas": list(ALPHAS), "rows": []}
    for source in PRETRAIN_SOURCES:
        method = replace(
            STANDARD_METHODS["fedavg"],
            key=f"fedavg_pt_{source or 'none'}",
            label=f"FedAvg pt={_SOURCE_LABEL[source]}",
            pretrain_source=source,
        )
        accs = {}
        for alpha in ALPHAS:
            result = harness.federated(
                dataset="cifar10",
                method=method,
                alpha=alpha,
                num_clients=harness.scale.clients_small,
                model_kind="conv",
            )
            accs[alpha] = result.best_accuracy
        rows.append(
            [
                "FedAvg",
                harness.scale.model_conv,
                _SOURCE_LABEL[source],
                f"{100 * accs[0.1]:.2f}",
                f"{100 * accs[0.5]:.2f}",
            ]
        )
        data["rows"].append(
            {
                "pretraining": _SOURCE_LABEL[source],
                "acc": {str(a): accs[a] for a in ALPHAS},
            }
        )
    table = accuracy_table(
        ["Method", "Model", "Pretraining", "Diri(0.1)", "Diri(0.5)"], rows
    )
    return ExperimentReport(
        experiment_id="table1",
        title=(
            "Table I: pretraining improves FL top-1 accuracy (%) on the "
            "downstream task (synthetic CIFAR-10)"
        ),
        table=table,
        data=data,
    )
