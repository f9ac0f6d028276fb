"""Table IV — cross-domain evaluation on the speech-commands stand-in.

100 clients, full participation, Diri(0.1). The target domain shares only
low-level structure with the pretraining domain (speech vs images).

Expected shape (paper): pretraining still helps a lot even across domains;
EDS > RDS at both Pds levels, with the clearest margin at Pds = 50%; a
large gap remains to centralised training.

Honours the harness ``mode``/``backend``: asynchronous modes drive the
same pool through the event engine at equal total work; the process
backend parallelises client rounds with bitwise-identical results.
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.common import ExperimentHarness, STANDARD_METHODS
from repro.experiments.reporting import ExperimentReport, accuracy_table

ALPHA = 0.1

#: (row label, method key, Pds)
ROWS: tuple[tuple[str, str, float], ...] = (
    ("FedAvg w/o pt.", "fedavg_scratch", 1.0),
    ("FedAvg w/ pt.", "fedavg", 1.0),
    ("FedFT-RDS (10%)", "fedft_rds", 0.1),
    ("FedFT-EDS (10%)", "fedft_eds", 0.1),
    ("FedFT-RDS (50%)", "fedft_rds", 0.5),
    ("FedFT-EDS (50%)", "fedft_eds", 0.5),
)


def run(harness: ExperimentHarness) -> ExperimentReport:
    """Regenerate Table IV at the harness's scale."""
    rows = []
    data: dict = {"rows": []}
    for label, key, pds in ROWS:
        method = STANDARD_METHODS[key]
        if pds != method.pds:
            method = method.with_pds(pds)
        method = replace(method, label=label)
        result = harness.federated(
            dataset="speech_commands",
            method=method,
            alpha=ALPHA,
            num_clients=harness.scale.clients_large,
        )
        rows.append(
            [label, f"{int(round(100 * pds))}%", f"{100 * result.best_accuracy:.2f}"]
        )
        data["rows"].append(
            {"method": label, "pds": pds, "acc": result.best_accuracy}
        )
    central = harness.centralized("speech_commands").best_accuracy
    rows.append(["Centralised learning", "100%", f"{100 * central:.2f}"])
    data["rows"].append({"method": "Centralised", "pds": 1.0, "acc": central})
    return ExperimentReport(
        experiment_id="table4",
        title=(
            "Table IV: top-1 accuracy (%) on the synthetic speech-commands "
            "stand-in (cross-domain, 100 clients, Diri(0.1))"
        ),
        table=accuracy_table(["Method", "Pds", "Top-1 Acc"], rows),
        data=data,
    )
