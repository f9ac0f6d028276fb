"""End-to-end behavioural tests: the paper's qualitative claims at smoke scale.

These tests assert *orderings* the reproduction is supposed to deliver, on
configurations just big enough for the signal to be reliable. They are the
executable form of the "expected shapes" listed in DESIGN.md.
"""

import numpy as np
import pytest

from repro.core import FedFTEDSConfig, run_fedft_eds
from repro.experiments.common import ExperimentHarness, STANDARD_METHODS

BASE = dict(
    seed=3,
    rounds=10,
    num_clients=5,
    train_size=600,
    test_size=300,
    pretrain_epochs=4,
    local_epochs=3,
    image_size=8,
)


def run(**kw):
    merged = {**BASE, **kw}
    return run_fedft_eds(FedFTEDSConfig(**merged))


@pytest.mark.slow
def test_partial_fine_tuning_reduces_client_time():
    """FedFT must spend far less simulated client time than full FedAvg."""
    fedft = run(selection="eds", selection_fraction=0.1)
    fedavg = run(selection="all", fine_tune_level="full")
    assert (
        fedft.history.total_client_seconds
        < fedavg.history.total_client_seconds / 3
    )


@pytest.mark.slow
def test_eds_learning_efficiency_beats_fedavg():
    """Paper §IV-D: FedFT-EDS has a multiple of FedAvg's efficiency."""
    fedft = run(selection="eds", selection_fraction=0.1)
    fedavg = run(selection="all", fine_tune_level="full")
    assert fedft.efficiency.efficiency > 2 * fedavg.efficiency.efficiency


@pytest.mark.slow
def test_eds_selects_harder_samples_than_random():
    """EDS-trained runs must touch higher-entropy samples than RDS ones."""
    from repro.data import synthetic
    from repro.fl.selection import EntropySelector, RandomSelector
    from repro.core.fedft_eds import build_model

    world = synthetic.make_vision_world(seed=0, image_size=8)
    spec = synthetic.make_cifar10(world, train_size=200, test_size=50)
    rng = np.random.default_rng(0)
    model = build_model("mlp", spec.input_shape, spec.num_classes, rng)
    eds = EntropySelector(temperature=0.1)
    scores = eds.scores(model, spec.train)
    eds_idx = eds.select(model, spec.train, 0.1, rng)
    rds_idx = RandomSelector().select(model, spec.train, 0.1, rng)
    assert scores[eds_idx].mean() > scores[rds_idx].mean()


@pytest.mark.slow
def test_pretraining_helps_under_heterogeneity_conv():
    """Table I's effect, conv model, smoke-ish sizes."""
    harness = ExperimentHarness("smoke", seed=1)
    pre = harness.federated(
        "cifar10", STANDARD_METHODS["fedavg"], alpha=0.1,
        num_clients=4, model_kind="conv", rounds=4,
    )
    scratch = harness.federated(
        "cifar10", STANDARD_METHODS["fedavg_scratch"], alpha=0.1,
        num_clients=4, model_kind="conv", rounds=4,
    )
    assert pre.best_accuracy > scratch.best_accuracy


@pytest.mark.slow
def test_cka_higher_with_pretraining():
    """Figs. 2-4: pretrained client models drift less (higher CKA)."""
    from repro.metrics.cka import mean_offdiagonal, pairwise_client_cka

    harness = ExperimentHarness("smoke", seed=1)
    means = {}
    for key in ("fedavg", "fedavg_scratch"):
        result = harness.federated(
            "cifar10", STANDARD_METHODS[key], alpha=0.1,
            num_clients=4, model_kind="conv", rounds=3,
            collect_client_states=True,
        )
        spec = harness.spec("cifar10", "conv")
        model = harness.prepare_global_model(
            STANDARD_METHODS[key], spec, "conv"
        )
        heat = pairwise_client_cka(
            model, result.client_states, spec.test, segments=("up",)
        )
        means[key] = mean_offdiagonal(heat["up"])
    assert means["fedavg"] > means["fedavg_scratch"]


@pytest.mark.slow
def test_straggler_dropout_hurts_fedavg():
    """Table III: lower participation should not improve FedAvg."""
    harness = ExperimentHarness("smoke", seed=2)
    full = harness.federated(
        "cifar10", STANDARD_METHODS["fedavg"], alpha=0.5,
        num_clients=12, participation_fraction=1.0, rounds=5,
    )
    starved = harness.federated(
        "cifar10", STANDARD_METHODS["fedavg"], alpha=0.5,
        num_clients=12, participation_fraction=0.1, rounds=5,
    )
    assert starved.best_accuracy <= full.best_accuracy + 0.05


def test_deterministic_campaign_results():
    """Same seed + scale ⇒ bitwise-identical experiment numbers."""
    h1 = ExperimentHarness("smoke", seed=5)
    h2 = ExperimentHarness("smoke", seed=5)
    r1 = h1.federated(
        "cifar10", STANDARD_METHODS["fedft_eds"], alpha=0.5, num_clients=4
    )
    r2 = h2.federated(
        "cifar10", STANDARD_METHODS["fedft_eds"], alpha=0.5, num_clients=4
    )
    assert np.array_equal(r1.history.accuracies, r2.history.accuracies)
    assert r1.history.total_client_seconds == r2.history.total_client_seconds


def test_theta_only_payload_claim():
    """Paper §III-D: only θ travels — verify the payload is a strict subset."""
    result = run(selection="eds", rounds=2)
    server = result.server
    theta_size = server.communicated_parameters()
    total = server.model.num_parameters()
    assert theta_size < total
    assert theta_size > 0
