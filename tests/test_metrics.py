"""CKA, learning efficiency and entropy-distribution metrics."""

import numpy as np
import pytest

from repro import nn
from repro.data.dataset import ArrayDataset
from repro.fl.rounds import RoundRecord, TrainingHistory
from repro.metrics.accuracy import evaluate_accuracy
from repro.metrics.cka import linear_cka, mean_offdiagonal, pairwise_client_cka
from repro.metrics.efficiency import learning_efficiency
from repro.metrics.entropy_stats import entropy_distribution, entropy_summary

RNG = np.random.default_rng


# -- CKA ---------------------------------------------------------------------


def test_cka_self_similarity_is_one():
    x = RNG(0).normal(size=(20, 8))
    assert linear_cka(x, x) == pytest.approx(1.0)


def test_cka_invariant_to_orthogonal_transform():
    rng = RNG(1)
    x = rng.normal(size=(30, 6))
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    assert linear_cka(x, x @ q) == pytest.approx(1.0, abs=1e-9)


def test_cka_invariant_to_isotropic_scaling():
    x = RNG(2).normal(size=(15, 5))
    assert linear_cka(x, 3.7 * x) == pytest.approx(1.0)


def test_cka_low_for_independent_features():
    rng = RNG(3)
    x = rng.normal(size=(200, 10))
    y = rng.normal(size=(200, 10))
    assert linear_cka(x, y) < 0.3


def test_cka_different_widths_allowed():
    rng = RNG(4)
    assert 0.0 <= linear_cka(rng.normal(size=(20, 4)), rng.normal(size=(20, 9))) <= 1.0


def test_cka_validation():
    with pytest.raises(ValueError):
        linear_cka(np.zeros((3, 2)), np.zeros((4, 2)))
    with pytest.raises(ValueError):
        linear_cka(np.zeros(3), np.zeros(3))


def test_cka_zero_activations():
    assert linear_cka(np.zeros((5, 3)), np.zeros((5, 3))) == 0.0


def test_pairwise_client_cka_structure():
    rng = RNG(5)
    model = nn.MLP(12, (8, 8, 8), 3, rng)
    probe = ArrayDataset(rng.normal(size=(24, 3, 2, 2)), rng.integers(0, 3, 24))
    states = []
    for i in range(3):
        other = nn.MLP(12, (8, 8, 8), 3, RNG(10 + i))
        states.append(other.state_dict())
    heatmaps = pairwise_client_cka(model, states, probe)
    for segment in ("low", "mid", "up"):
        mat = heatmaps[segment]
        assert mat.shape == (3, 3)
        assert np.allclose(mat, mat.T)
        assert np.allclose(np.diag(mat), 1.0)
    with pytest.raises(ValueError):
        pairwise_client_cka(model, states[:1], probe)


def test_pairwise_cka_identical_states_is_one():
    rng = RNG(6)
    model = nn.MLP(12, (8, 8, 8), 3, rng)
    probe = ArrayDataset(rng.normal(size=(16, 3, 2, 2)), rng.integers(0, 3, 16))
    state = model.state_dict()
    heatmaps = pairwise_client_cka(model, [state, state], probe)
    assert heatmaps["up"][0, 1] == pytest.approx(1.0)


def test_pairwise_cka_restores_model_state():
    rng = RNG(7)
    model = nn.MLP(12, (8, 8, 8), 3, rng)
    original = model.state_dict()
    probe = ArrayDataset(rng.normal(size=(16, 3, 2, 2)), rng.integers(0, 3, 16))
    other = nn.MLP(12, (8, 8, 8), 3, RNG(8)).state_dict()
    pairwise_client_cka(model, [other, original], probe)
    for key, value in model.state_dict().items():
        assert np.array_equal(value, original[key])


def test_mean_offdiagonal():
    mat = np.array([[1.0, 0.5, 0.3], [0.5, 1.0, 0.1], [0.3, 0.1, 1.0]])
    assert mean_offdiagonal(mat) == pytest.approx((0.5 + 0.3 + 0.1) / 3)
    with pytest.raises(ValueError):
        mean_offdiagonal(np.ones((1, 1)))


# -- efficiency -----------------------------------------------------------------


def make_history(accs, seconds_per_round=10.0):
    history = TrainingHistory()
    cum = 0.0
    for i, acc in enumerate(accs, start=1):
        cum += seconds_per_round
        history.append(
            RoundRecord(
                round_index=i,
                test_accuracy=acc,
                participants=(0,),
                selected_samples=10,
                client_seconds=seconds_per_round,
                cumulative_client_seconds=cum,
                mean_local_loss=1.0,
            )
        )
    return history


def test_learning_efficiency_formula():
    history = make_history([0.5, 0.8, 0.7])
    eff = learning_efficiency("m", history)
    assert eff.best_accuracy == pytest.approx(0.8)
    assert eff.total_client_seconds == pytest.approx(30.0)
    assert eff.efficiency == pytest.approx(100 * 0.8 / 30.0)


def test_learning_efficiency_requires_timing():
    history = make_history([0.5], seconds_per_round=0.0)
    with pytest.raises(ValueError):
        learning_efficiency("m", history)


def test_history_properties():
    history = make_history([0.2, 0.6, 0.4])
    assert history.best_accuracy == 0.6
    assert history.final_accuracy == 0.4
    assert np.array_equal(history.rounds, [1, 2, 3])
    empty = TrainingHistory()
    assert empty.best_accuracy == 0.0
    assert empty.final_accuracy == 0.0


# -- entropy stats ----------------------------------------------------------------


def test_entropy_distribution_and_summary():
    rng = RNG(9)
    model = nn.MLP(12, (8, 8, 8), 4, rng)
    ds = ArrayDataset(rng.normal(size=(50, 3, 2, 2)), rng.integers(0, 4, 50))
    ents = entropy_distribution(model, ds, temperature=0.5)
    assert ents.shape == (50,)
    summary = entropy_summary(model, ds, temperature=0.5, bins=10)
    assert summary.histogram.sum() == 50
    assert summary.mean == pytest.approx(ents.mean())


def test_hardening_shifts_distribution_down():
    """Fig. 1's phenomenon: rho=0.1 concentrates entropy near zero."""
    rng = RNG(10)
    model = nn.MLP(12, (8, 8, 8), 4, rng)
    ds = ArrayDataset(rng.normal(size=(80, 3, 2, 2)), rng.integers(0, 4, 80))
    s_hard = entropy_summary(model, ds, temperature=0.1)
    s_soft = entropy_summary(model, ds, temperature=1.0)
    assert s_hard.median < s_soft.median


# -- accuracy helpers -----------------------------------------------------------


def test_evaluate_accuracy_and_per_class():
    rng = RNG(11)
    model = nn.MLP(4, (8, 8, 8), 2, rng)
    x = rng.normal(size=(40, 1, 2, 2))
    y = rng.integers(0, 2, 40)
    ds = ArrayDataset(x, y)
    acc = evaluate_accuracy(model, ds)
    assert 0.0 <= acc <= 1.0
    preds = np.argmax(model(x), axis=1)
    assert acc == pytest.approx(np.mean(preds == y))
