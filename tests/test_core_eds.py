"""The contribution: hardened softmax scoring and the FedFT-EDS pipeline."""

import numpy as np
import pytest

from repro import nn
from repro.core.fedft_eds import (
    FedFTEDSConfig,
    build_model,
    make_selector,
    run_fedft_eds,
)
from repro.data.dataset import ArrayDataset
from repro.fl.selection import EntropySelector, FullSelector, RandomSelector
from repro.nn import functional as F

RNG = np.random.default_rng


def test_hardened_softmax_is_temperature_softmax():
    logits = np.array([[1.0, 0.0, -1.0]])
    hard = F.softmax(logits, 0.1)
    assert hard[0, 0] > 0.99  # rho=0.1 makes the argmax near-certain
    assert np.allclose(hard.sum(axis=1), 1.0)


def test_entropy_scores_shape_and_range():
    rng = RNG(0)
    model = nn.MLP(12, (8, 8, 8), 5, rng)
    ds = ArrayDataset(rng.normal(size=(30, 3, 2, 2)), rng.integers(0, 5, 30))
    scores = EntropySelector(temperature=0.1).scores(model, ds)
    assert scores.shape == (30,)
    assert np.all(scores >= 0) and np.all(scores <= np.log(5) + 1e-9)


def test_select_top_entropy():
    selector = EntropySelector()
    scores = np.array([0.1, 0.9, 0.5, 0.7, 0.2])
    selector.scores = lambda *args, **kwargs: scores
    ds = ArrayDataset(np.zeros((5, 1)), np.zeros(5, dtype=int))
    idx = selector.select(None, ds, 0.4, RNG(0))
    assert np.array_equal(idx, [1, 3])
    with pytest.raises(ValueError):
        selector.select(None, ds, 0.0, RNG(0))


def test_confident_samples_excluded():
    """A near-one-hot sample must rank below a genuinely uncertain one."""
    rng = RNG(1)
    model = nn.MLP(4, (8, 8, 8), 2, rng)
    # craft inputs: find a confident and an uncertain one by probing
    x = rng.normal(size=(64, 1, 2, 2))
    ds = ArrayDataset(x, np.zeros(64, dtype=int))
    selector = EntropySelector(temperature=0.1)
    scores = selector.scores(model, ds)
    idx = selector.select(model, ds, 0.25, RNG(2))
    assert len(idx) == 16
    assert scores[idx].min() >= np.median(scores)


def test_build_model_variants():
    rng = RNG(0)
    shape = (3, 8, 8)
    assert isinstance(build_model("mlp", shape, 4, rng), nn.MLP)
    assert isinstance(build_model("cnn", shape, 4, rng), nn.SmallConvNet)
    assert isinstance(build_model("tiny_wrn", shape, 4, rng), nn.WideResNet)
    with pytest.raises(ValueError):
        build_model("resnet50", shape, 4, rng)


def test_make_selector_variants():
    assert isinstance(make_selector("eds", 0.1), EntropySelector)
    assert make_selector("eds", 0.25).temperature == 0.25
    assert isinstance(make_selector("rds", 0.1), RandomSelector)
    assert isinstance(make_selector("all", 0.1), FullSelector)
    with pytest.raises(ValueError):
        make_selector("magic", 0.1)


SMOKE = dict(
    rounds=2,
    num_clients=3,
    train_size=120,
    test_size=60,
    pretrain_epochs=1,
    local_epochs=1,
    image_size=8,
)


def test_run_fedft_eds_smoke():
    result = run_fedft_eds(FedFTEDSConfig(seed=0, **SMOKE))
    assert len(result.history.records) == 2
    assert 0.0 <= result.history.best_accuracy <= 1.0
    assert result.efficiency.total_client_seconds > 0
    # partial fine-tuning must leave phi frozen
    assert not result.model.stem.has_trainable()
    assert not result.model.low.has_trainable()
    assert result.model.head.has_trainable()


def test_run_fedft_eds_rejects_unknown_dataset():
    with pytest.raises(ValueError):
        run_fedft_eds(FedFTEDSConfig(dataset="mnist", **SMOKE))


def test_run_fedft_eds_deterministic():
    a = run_fedft_eds(FedFTEDSConfig(seed=7, **SMOKE))
    b = run_fedft_eds(FedFTEDSConfig(seed=7, **SMOKE))
    assert np.array_equal(a.history.accuracies, b.history.accuracies)
    assert a.history.total_client_seconds == b.history.total_client_seconds


def test_run_fedft_eds_seed_changes_run():
    a = run_fedft_eds(FedFTEDSConfig(seed=1, **SMOKE))
    b = run_fedft_eds(FedFTEDSConfig(seed=2, **SMOKE))
    assert not np.array_equal(a.history.accuracies, b.history.accuracies)


def test_run_fedft_eds_selection_variants():
    for selection in ("eds", "rds", "all"):
        result = run_fedft_eds(
            FedFTEDSConfig(seed=0, selection=selection, **SMOKE)
        )
        assert len(result.history.records) == 2


def test_run_fedft_eds_speech_domain():
    result = run_fedft_eds(
        FedFTEDSConfig(seed=0, dataset="speech_commands", **SMOKE)
    )
    assert 0.0 <= result.history.best_accuracy <= 1.0


def test_run_fedft_eds_without_pretraining():
    result = run_fedft_eds(FedFTEDSConfig(seed=0, pretrain=False, **SMOKE))
    assert len(result.history.records) == 2


@pytest.mark.parametrize(
    "knobs, name",
    [
        ({"lr": float("nan")}, "lr"),
        ({"lr": float("inf")}, "lr"),
        ({"momentum": float("nan")}, "momentum"),
        ({"prox_mu": float("nan")}, "prox_mu"),
        ({"prox_mu": float("inf")}, "prox_mu"),
        ({"temperature": float("nan")}, "temperature"),
        ({"temperature": float("inf")}, "temperature"),
        ({"alpha": float("nan")}, "alpha"),
        ({"alpha": float("inf")}, "alpha"),
        ({"alpha": 0.0}, "alpha"),
        ({"mode": "fedasync", "staleness_exponent": float("nan")},
         "staleness_exponent"),
        ({"mode": "fedbuff", "server_lr": float("nan")}, "server_lr"),
        ({"mode": "fedbuff", "buffer_size": 2.5}, "buffer_size"),
        ({"mode": "fedasync", "dropout_probability": float("nan")},
         "dropout_probability"),
        ({"backend": "process", "job_timeout": -1.0}, "job_deadline"),
        ({"backend": "process", "job_timeout": float("nan")}, "job_deadline"),
        ({"backend": "process", "max_job_retries": -1}, "max_retries"),
        ({"backend": "process", "chaos": "bogus@x"}, "unknown chaos kind"),
        ({"backend": "process", "chaos": "kill@-3"}, "negative job index"),
        ({"rounds": 2.5}, "rounds"),
        ({"local_epochs": 2.5}, "local_epochs"),
        ({"num_clients": 2.5}, "num_clients"),
        ({"eval_every": 2.5}, "eval_every"),
        ({"checkpoint_every": 1.5, "checkpoint_path": "unused"},
         "checkpoint_every"),
        ({"mode": "fedbuff", "max_events": 10.5}, "max_events"),
        ({"mode": "fedasync", "max_concurrency": 1.5}, "max_concurrency"),
        ({"backend": "process", "max_job_retries": 1.5}, "max_retries"),
    ],
    ids=["lr_nan", "lr_inf", "momentum_nan", "prox_nan", "prox_inf",
         "temperature_nan", "temperature_inf", "alpha_nan", "alpha_inf",
         "alpha_0", "staleness_nan", "server_lr_nan", "buffer_fractional",
         "dropout_nan", "job_timeout_negative", "job_timeout_nan",
         "retries_negative", "chaos_unknown_kind", "chaos_negative_job",
         "rounds_fractional", "epochs_fractional", "clients_fractional",
         "eval_every_fractional", "checkpoint_every_fractional",
         "max_events_fractional", "concurrency_fractional",
         "retries_fractional"],
)
def test_run_fedft_eds_refuses_before_pretraining(knobs, name, monkeypatch):
    """NaN, infinite, fractional and malformed settings are refused before
    the run pretrains anything (and before any worker starts)."""
    from repro.core import fedft_eds

    calls = []
    monkeypatch.setattr(
        fedft_eds, "pretrain_model", lambda *args, **kwargs: calls.append(1)
    )
    with pytest.raises(ValueError, match=name):
        run_fedft_eds(FedFTEDSConfig(seed=0, **{**SMOKE, **knobs}))
    assert calls == []
