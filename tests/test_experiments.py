"""Experiment harness: scales, caching, method matrix, registry, reports."""

import importlib
import json
import os

import numpy as np
import pytest

from repro.experiments import (
    EXPERIMENTS,
    ExperimentHarness,
    STANDARD_METHODS,
    get_experiment,
    get_scale,
    list_experiments,
)
from repro.experiments import table2, table3
from repro.experiments.common import MethodSpec, _stable_seed
from repro.experiments.reporting import ExperimentReport
from repro.experiments.run_all import build_parser, run_experiments


@pytest.fixture(scope="module")
def harness():
    return ExperimentHarness("smoke", seed=0)


def test_scales_exist():
    for name in ("smoke", "default", "paper"):
        scale = get_scale(name)
        assert scale.rounds > 0
    with pytest.raises(KeyError):
        get_scale("gigantic")


def test_standard_methods_cover_paper_matrix():
    keys = set(STANDARD_METHODS)
    assert {
        "fedavg_scratch",
        "fedavg",
        "fedavg_rds",
        "fedprox",
        "fedprox_rds",
        "fedft_rds",
        "fedft_eds",
        "fedft_all",
    } <= keys
    eds = STANDARD_METHODS["fedft_eds"]
    assert eds.fine_tune_level == "moderate"
    assert eds.selection == "eds"
    assert eds.pds == 0.1
    assert eds.temperature == 0.1  # the paper's hardened-softmax default


def test_with_pds_relabels():
    method = STANDARD_METHODS["fedft_eds"].with_pds(0.5)
    assert method.pds == 0.5
    assert "(50%)" in method.label


def test_stable_seed_deterministic():
    assert _stable_seed(1, "a", 0.1) == _stable_seed(1, "a", 0.1)
    assert _stable_seed(1, "a", 0.1) != _stable_seed(2, "a", 0.1)


def test_harness_spec_caching(harness):
    a = harness.spec("cifar10")
    b = harness.spec("cifar10")
    assert a is b
    assert harness.spec("cifar10", "conv") is not a
    with pytest.raises(ValueError):
        harness.spec("imagenet21k")


def test_harness_partition_shared_across_methods(harness):
    p1 = harness.partition("cifar10", 0.5, 4)
    p2 = harness.partition("cifar10", 0.5, 4)
    assert all(np.array_equal(a, b) for a, b in zip(p1, p2))


def test_pretrained_state_cached(harness):
    s1 = harness.pretrained_state("main", "small_imagenet")
    s2 = harness.pretrained_state("main", "small_imagenet")
    assert s1 is s2


def test_federated_run_result(harness):
    result = harness.federated(
        "cifar10", STANDARD_METHODS["fedft_eds"], alpha=0.5, num_clients=4
    )
    assert len(result.history.records) == harness.scale.rounds
    assert 0.0 <= result.best_accuracy <= 1.0
    assert result.efficiency.total_client_seconds > 0


def test_federated_scratch_skips_pretrain(harness):
    result = harness.federated(
        "cifar10", STANDARD_METHODS["fedavg_scratch"], alpha=0.5, num_clients=4
    )
    assert len(result.history.records) == harness.scale.rounds


def test_federated_collect_client_states(harness):
    result = harness.federated(
        "cifar10",
        STANDARD_METHODS["fedavg"],
        alpha=0.5,
        num_clients=4,
        collect_client_states=True,
        rounds=1,
    )
    assert len(result.client_states) == 4
    keys = set(result.client_states[0])
    assert keys == set(result.client_states[1])


def test_federated_deterministic(harness):
    a = harness.federated(
        "cifar10", STANDARD_METHODS["fedft_rds"], alpha=0.5, num_clients=4
    )
    b = harness.federated(
        "cifar10", STANDARD_METHODS["fedft_rds"], alpha=0.5, num_clients=4
    )
    assert np.array_equal(a.history.accuracies, b.history.accuracies)


def test_registry_complete():
    ids = list_experiments()
    assert ids[0] == "fig1"
    expected = {
        "fig1", "table1", "fig2_4", "table2", "fig5", "fig6",
        "table3", "fig7", "fig8", "fig9", "table4",
        "fig10a", "fig10b", "fig10c", "async_stragglers", "fedbuff_sweep",
    }
    assert set(ids) == expected
    with pytest.raises(KeyError):
        get_experiment("table9")


def test_report_save_roundtrip(tmp_path):
    report = ExperimentReport("test_exp", "A title", "a | b", {"x": np.float64(1.5)})
    txt, js = report.save(str(tmp_path))
    assert os.path.exists(txt)
    with open(js) as fh:
        payload = json.load(fh)
    assert payload["data"]["x"] == 1.5
    assert payload["experiment_id"] == "test_exp"


def test_run_experiments_smoke_subset(tmp_path):
    only = ["fig1", "table4", "async_stragglers", "fedbuff_sweep"]
    with open(os.devnull, "w") as stream:
        reports = run_experiments(
            "smoke", seed=0, only=only, output=str(tmp_path), stream=stream
        )
    assert set(reports) == set(only)
    for experiment in only:
        assert os.path.exists(os.path.join(tmp_path, f"{experiment}.json"))
        assert os.path.exists(os.path.join(tmp_path, f"{experiment}.txt"))


@pytest.mark.parametrize("experiment", ["async_stragglers", "fedbuff_sweep"])
def test_sync_baseline_runs_on_the_harness_backend(experiment, monkeypatch):
    """The straggler experiments' synchronous baseline runs on the
    harness's backend, as their async runs do: head-only rounds on the
    cached features, never a full-forward graph solve."""
    from repro.fl import fastpath

    module = importlib.import_module(f"repro.experiments.{experiment}")
    real = module.run_federated_training
    solves = []

    def counted(*args, **kwargs):
        before = dict(fastpath.STATS)
        history = real(*args, **kwargs)
        solves.append(
            {key: fastpath.STATS[key] - before[key]
             for key in ("graph_solves", "fused_solves")}
        )
        assert kwargs.get("backend") is not None
        return history

    monkeypatch.setattr(module, "run_federated_training", counted)
    with ExperimentHarness("smoke", seed=0) as harness:
        report = module.run(harness)
    assert report.experiment_id == experiment
    assert len(solves) == 1
    assert solves[0]["graph_solves"] == 0
    assert solves[0]["fused_solves"] > 0


def test_table2_matrix_shares_runs(harness):
    matrix = table2.run_matrix(
        harness,
        methods=("fedft_eds",),
        datasets=("cifar10",),
        alphas=(0.5,),
    )
    assert ("cifar10", 0.5) in matrix["fedft_eds"]


def test_cli_parser():
    parser = build_parser()
    args = parser.parse_args(["--scale", "smoke", "--only", "fig1,fig6"])
    assert args.scale == "smoke"
    assert args.only == "fig1,fig6"


def test_table3_rows_include_critical_comparison():
    """Table III must contain the FedFT-ALL vs FedFT-EDS(50%) comparison
    behind the 'not all data is beneficial' claim."""
    labels = [row[0] for row in table3.ROWS]
    assert "FedFT-ALL" in labels
    assert "FedFT-EDS (50%)" in labels
    assert "FedAvg (10% c.p.)" in labels
