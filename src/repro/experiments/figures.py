"""Figure experiments: entropy distributions, CKA, curves, efficiency, ablations.

Figures are emitted as text tables / numeric series (no plotting deps
offline); the JSON payloads contain the full series so they can be plotted
elsewhere. Fig. 5/6 reuse the Table II run matrix and Figs. 7-9 the Table
III matrix via the shared ``context`` cache.

All federated runs honour the harness ``mode``/``backend``: asynchronous
modes produce per-event accuracy series (one point per processed
completion instead of per lock-step round) from the event engine at equal
total work, and the process backend parallelises client rounds with
bitwise-identical results. Fig. 1 only scores a frozen model, so only the
CKA/curve/efficiency figures are affected.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.experiments import table2, table3
from repro.experiments.common import ExperimentHarness, STANDARD_METHODS
from repro.experiments.reporting import (
    ExperimentReport,
    accuracy_table,
    curve_series,
)
from repro.metrics.cka import mean_offdiagonal, pairwise_client_cka
from repro.metrics.entropy_stats import entropy_summary

# ---------------------------------------------------------------------------
# Fig. 1 (right): entropy distribution vs hardened-softmax temperature
# ---------------------------------------------------------------------------

FIG1_TEMPERATURES = (1.0, 0.5, 0.1)


def run_fig1(harness: ExperimentHarness, context: dict | None = None) -> ExperimentReport:
    """Entropy distribution of one client's data at ρ ∈ {1.0, 0.5, 0.1}.

    Expected shape: lower ρ concentrates the distribution near zero entropy
    with a thin high tail (larger top-decile gap), making the most
    uncertain samples stand out.
    """
    spec = harness.spec("cifar100", "conv")
    method = STANDARD_METHODS["fedavg"]
    model = harness.prepare_global_model(method, spec, "conv")
    model.eval()
    shard = harness.partition("cifar100", 0.1, harness.scale.clients_small, "conv")[0]
    client_data = spec.train.subset(shard)
    rows = []
    data: dict = {"temperatures": [], "client_size": len(client_data)}
    for rho in FIG1_TEMPERATURES:
        summary = entropy_summary(model, client_data, rho)
        rows.append(
            [
                f"{rho:.1f}",
                f"{summary.mean:.3f}",
                f"{summary.median:.3f}",
                f"{summary.top_decile_gap:.3f}",
            ]
        )
        data["temperatures"].append(
            {
                "rho": rho,
                "mean": summary.mean,
                "median": summary.median,
                "top_decile_gap": summary.top_decile_gap,
                "histogram": summary.histogram.tolist(),
                "bin_edges": summary.bin_edges.tolist(),
            }
        )
    return ExperimentReport(
        experiment_id="fig1",
        title=(
            "Fig. 1: per-sample entropy distribution of one client's data "
            "under the hardened softmax"
        ),
        table=accuracy_table(
            ["rho", "mean entropy", "median", "top-decile gap"], rows
        ),
        data=data,
    )


# ---------------------------------------------------------------------------
# Figs. 2-4: CKA similarity between client-updated models
# ---------------------------------------------------------------------------

CKA_SEGMENTS = ("low", "mid", "up")


def run_cka(harness: ExperimentHarness, context: dict | None = None) -> ExperimentReport:
    """Pairwise CKA of client models, with and without pretraining.

    Expected shape: pretraining raises pairwise CKA at every depth (less
    client model shift); the gap is largest in the upper layers and under
    stronger heterogeneity (Diri(0.1)).
    """
    rows = []
    data: dict = {"settings": []}
    for alpha in (0.1, 0.5):
        for pretrained in (False, True):
            method = (
                STANDARD_METHODS["fedavg"]
                if pretrained
                else STANDARD_METHODS["fedavg_scratch"]
            )
            result = harness.federated(
                dataset="cifar10",
                method=method,
                alpha=alpha,
                num_clients=harness.scale.clients_small,
                model_kind="conv",
                collect_client_states=True,
            )
            spec = harness.spec("cifar10", "conv")
            model = harness.prepare_global_model(method, spec, "conv")
            heatmaps = pairwise_client_cka(
                model, result.client_states, spec.test, segments=CKA_SEGMENTS
            )
            means = {seg: mean_offdiagonal(heatmaps[seg]) for seg in CKA_SEGMENTS}
            rows.append(
                [
                    f"Diri({alpha})",
                    "pretrain" if pretrained else "w/o pretrain",
                    *(f"{means[seg]:.3f}" for seg in CKA_SEGMENTS),
                ]
            )
            data["settings"].append(
                {
                    "alpha": alpha,
                    "pretrained": pretrained,
                    "mean_cka": means,
                    "heatmaps": {s: heatmaps[s].tolist() for s in CKA_SEGMENTS},
                }
            )
    return ExperimentReport(
        experiment_id="fig2_4",
        title=(
            "Figs. 2-4: mean pairwise CKA between client-updated models "
            "(higher = less model shift)"
        ),
        table=accuracy_table(
            ["Setting", "Init", "layer low", "layer mid", "layer up"], rows
        ),
        data=data,
    )


# ---------------------------------------------------------------------------
# Figs. 5-9: learning curves and learning efficiency
# ---------------------------------------------------------------------------


def _ensure_table2_matrix(harness: ExperimentHarness, context: dict):
    if "table2_matrix" not in context:
        context["table2_matrix"] = table2.run_matrix(harness)
    return context["table2_matrix"]


def _ensure_table3_matrix(harness: ExperimentHarness, context: dict):
    if "table3_matrix" not in context:
        context["table3_matrix"] = table3.run_matrix(harness)
    return context["table3_matrix"]


def _curves_report(
    experiment_id: str,
    title: str,
    matrix,
    labels: list[str],
    settings: list[tuple[str, float]],
) -> ExperimentReport:
    rows = []
    data: dict = {"curves": []}
    for label in labels:
        for dataset, alpha in settings:
            history = matrix[label][(dataset, alpha)].history
            series = curve_series(history.accuracies)
            rows.append(
                [
                    label,
                    f"{dataset}@{alpha}",
                    f"{100 * series[0]:.1f}",
                    f"{100 * series[len(series) // 2]:.1f}",
                    f"{100 * series[-1]:.1f}",
                    f"{100 * max(series):.1f}",
                ]
            )
            data["curves"].append(
                {
                    "method": label,
                    "dataset": dataset,
                    "alpha": alpha,
                    "accuracy_by_round": series,
                }
            )
    table = accuracy_table(
        ["Method", "Setting", "first", "mid", "final", "best"], rows
    )
    return ExperimentReport(experiment_id, title, table, data)


def run_fig5(harness: ExperimentHarness, context: dict) -> ExperimentReport:
    """Learning curves of the Table II methods (10 clients)."""
    matrix = _ensure_table2_matrix(harness, context)
    labels = [STANDARD_METHODS[k].label for k in table2.METHOD_ORDER]
    keyed = {STANDARD_METHODS[k].label: matrix[k] for k in table2.METHOD_ORDER}
    settings = [(ds, a) for ds in table2.DATASETS for a in table2.ALPHAS]
    return _curves_report(
        "fig5",
        "Fig. 5: learning curves (test accuracy % by round), 10 clients",
        keyed,
        labels,
        settings,
    )


def _efficiency_report(
    experiment_id: str, title: str, matrix, labels, settings
) -> ExperimentReport:
    rows = []
    data: dict = {"points": []}
    for label in labels:
        for dataset, alpha in settings:
            run = matrix[label][(dataset, alpha)]
            eff = run.efficiency
            rows.append(
                [
                    label,
                    f"{dataset}@{alpha}",
                    f"{100 * eff.best_accuracy:.2f}",
                    f"{eff.total_client_seconds:.1f}",
                    f"{eff.efficiency:.4f}",
                ]
            )
            data["points"].append(
                {
                    "method": label,
                    "dataset": dataset,
                    "alpha": alpha,
                    "best_accuracy": eff.best_accuracy,
                    "client_seconds": eff.total_client_seconds,
                    "efficiency_pct_per_s": eff.efficiency,
                }
            )
    table = accuracy_table(
        ["Method", "Setting", "best acc %", "client s", "acc%/s"], rows
    )
    return ExperimentReport(experiment_id, title, table, data)


def run_fig6(harness: ExperimentHarness, context: dict) -> ExperimentReport:
    """Learning efficiency of the Table II methods (10 clients).

    Expected shape: FedFT-EDS achieves both the best accuracy and ≥3× the
    efficiency of FedAvg/FedProx.
    """
    matrix = _ensure_table2_matrix(harness, context)
    labels = [
        STANDARD_METHODS[k].label
        for k in table2.METHOD_ORDER
        if k != "fedavg_scratch"
    ]
    keyed = {
        STANDARD_METHODS[k].label: matrix[k]
        for k in table2.METHOD_ORDER
        if k != "fedavg_scratch"
    }
    settings = [(ds, a) for ds in table2.DATASETS for a in table2.ALPHAS]
    return _efficiency_report(
        "fig6",
        "Fig. 6: learning efficiency (best accuracy / total client time)",
        keyed,
        labels,
        settings,
    )


def run_fig7(harness: ExperimentHarness, context: dict) -> ExperimentReport:
    """Learning efficiency in the 100-client straggler scenario."""
    matrix = _ensure_table3_matrix(harness, context)
    labels = [row[0] for row in table3.ROWS if row[0] != "FedAvg w/o pret."]
    settings = [(ds, a) for ds in table3.DATASETS for a in table3.ALPHAS]
    return _efficiency_report(
        "fig7",
        "Fig. 7: learning efficiency, 100 clients",
        matrix,
        labels,
        settings,
    )


def run_fig8(harness: ExperimentHarness, context: dict) -> ExperimentReport:
    """Learning curves: FedAvg participation levels vs FedFT-EDS, 100 clients."""
    matrix = _ensure_table3_matrix(harness, context)
    labels = [
        "FedAvg w/o pret.",
        "FedAvg",
        "FedAvg (20% c.p.)",
        "FedAvg (10% c.p.)",
        "FedFT-EDS (10%)",
    ]
    settings = [(ds, a) for ds in table3.DATASETS for a in table3.ALPHAS]
    return _curves_report(
        "fig8",
        "Fig. 8: learning curves, 100 clients (straggler scenario)",
        matrix,
        labels,
        settings,
    )


def run_fig9(harness: ExperimentHarness, context: dict) -> ExperimentReport:
    """Learning curves: selection volume (10% vs 50% vs ALL), 100 clients."""
    matrix = _ensure_table3_matrix(harness, context)
    labels = [
        "FedFT-RDS (10%)",
        "FedFT-EDS (10%)",
        "FedFT-RDS (50%)",
        "FedFT-EDS (50%)",
        "FedFT-ALL",
    ]
    settings = [(ds, a) for ds in table3.DATASETS for a in table3.ALPHAS]
    return _curves_report(
        "fig9",
        "Fig. 9: learning curves by selection volume, 100 clients",
        matrix,
        labels,
        settings,
    )


# ---------------------------------------------------------------------------
# Fig. 10: ablations (CIFAR-100 stand-in, 100 clients, Pds = 50%)
# ---------------------------------------------------------------------------

FIG10_LEVELS = ("full", "large", "moderate", "classifier")
FIG10_ALPHAS = (0.01, 0.05, 0.1, 0.5, 1.0)
FIG10_TEMPERATURES = (0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0)


def _ablation_pair(harness: ExperimentHarness, **overrides):
    """Run FedFT-EDS and FedFT-RDS at Pds=50% with config overrides."""
    out = {}
    for key in ("fedft_eds", "fedft_rds"):
        method = STANDARD_METHODS[key].with_pds(0.5)
        method = replace(
            method,
            fine_tune_level=overrides.get("level", method.fine_tune_level),
            temperature=overrides.get("temperature", method.temperature),
            key=f"{key}_abl",
        )
        result = harness.federated(
            dataset="cifar100",
            method=method,
            alpha=overrides.get("alpha", 0.1),
            num_clients=harness.scale.clients_large,
        )
        out[key] = result.best_accuracy
    return out


def run_fig10a(harness: ExperimentHarness, context: dict | None = None) -> ExperimentReport:
    """Ablation: which part of the model is fine-tuned.

    Expected shape: fine-tuning *less* of the model performs better in the
    close-domain setting (classifier ≥ moderate ≥ large ≥ full), and EDS
    beats RDS at every level, with a growing gap as more layers train.
    """
    rows = []
    data: dict = {"levels": []}
    for level in FIG10_LEVELS:
        accs = _ablation_pair(harness, level=level)
        rows.append(
            [
                level,
                f"{100 * accs['fedft_eds']:.2f}",
                f"{100 * accs['fedft_rds']:.2f}",
            ]
        )
        data["levels"].append({"level": level, **accs})
    return ExperimentReport(
        "fig10a",
        "Fig. 10a: ablation over the fine-tuned part of the model "
        "(synthetic CIFAR-100, 100 clients, Pds=50%)",
        accuracy_table(["Fine-tuned part", "FedFT-EDS", "FedFT-RDS"], rows),
        data,
    )


def run_fig10b(harness: ExperimentHarness, context: dict | None = None) -> ExperimentReport:
    """Ablation: data heterogeneity level α.

    Expected shape: EDS > RDS everywhere, with the largest margins at
    strong heterogeneity (small α).
    """
    rows = []
    data: dict = {"alphas": []}
    for alpha in FIG10_ALPHAS:
        accs = _ablation_pair(harness, alpha=alpha)
        rows.append(
            [
                f"Diri({alpha})",
                f"{100 * accs['fedft_eds']:.2f}",
                f"{100 * accs['fedft_rds']:.2f}",
            ]
        )
        data["alphas"].append({"alpha": alpha, **accs})
    return ExperimentReport(
        "fig10b",
        "Fig. 10b: ablation over data heterogeneity "
        "(synthetic CIFAR-100, 100 clients, Pds=50%)",
        accuracy_table(["Heterogeneity", "FedFT-EDS", "FedFT-RDS"], rows),
        data,
    )


def run_fig10c(harness: ExperimentHarness, context: dict | None = None) -> ExperimentReport:
    """Ablation: temperature ρ of the hardened softmax.

    Expected shape: ρ < 1 (hardened) beats the RDS baseline; softened
    ρ > 1 degrades EDS to or below RDS.
    """
    rows = []
    data: dict = {"temperatures": []}
    rds_acc = None
    for rho in FIG10_TEMPERATURES:
        accs = _ablation_pair(harness, temperature=rho)
        rds_acc = accs["fedft_rds"]  # identical across rho (same seed/config)
        rows.append(
            [
                f"{rho}",
                f"{100 * accs['fedft_eds']:.2f}",
                f"{100 * accs['fedft_rds']:.2f}",
            ]
        )
        data["temperatures"].append({"rho": rho, **accs})
    data["rds_reference"] = rds_acc
    return ExperimentReport(
        "fig10c",
        "Fig. 10c: ablation over hardened-softmax temperature "
        "(synthetic CIFAR-100, 100 clients, Pds=50%)",
        accuracy_table(["rho", "FedFT-EDS", "FedFT-RDS"], rows),
        data,
    )
