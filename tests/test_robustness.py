"""Failure injection and extreme-input robustness.

A production FL stack must degrade loudly (clear errors) or gracefully
(finite numbers), never silently corrupt the global model.
"""

import numpy as np
import pytest

from dict_oracle import weighted_average
from repro import nn
from repro.data.dataset import ArrayDataset
from repro.fl.selection import EntropySelector
from repro.fl.server import Server
from repro.nn import functional as F
from repro.nn.conv import col2im, conv_out_size, im2col

RNG = np.random.default_rng


# -- numerical extremes -----------------------------------------------------


def test_entropy_scoring_survives_huge_logits():
    """A confident model at rho=0.01 must not produce NaN entropies."""
    rng = RNG(0)
    model = nn.MLP(12, (8, 8, 8), 4, rng)
    # scale the head weights so logits are enormous
    model.head.layers[0].weight.data *= 1e3
    ds = ArrayDataset(rng.normal(size=(20, 3, 2, 2)), rng.integers(0, 4, 20))
    scores = EntropySelector(temperature=0.01).scores(model, ds)
    assert np.isfinite(scores).all()
    idx = EntropySelector(temperature=0.01).select(model, ds, 0.2, RNG(1))
    assert len(idx) == 4


def test_loss_survives_extreme_logits():
    loss = nn.CrossEntropyLoss()
    logits = np.array([[1e4, -1e4, 0.0], [-1e4, 1e4, 0.0]])
    value = loss.forward(logits, np.array([0, 1]))
    assert np.isfinite(value)
    grad = loss.backward()
    assert np.isfinite(grad).all()


def test_softmax_all_equal_logits_uniform():
    p = F.softmax(np.zeros((3, 7)), temperature=0.01)
    assert np.allclose(p, 1 / 7)


def test_training_with_single_sample_batches():
    """Batch size 1 exercises every reduction edge case (BN excluded)."""
    rng = RNG(1)
    model = nn.MLP(8, (4, 4, 4), 2, rng)
    loss = nn.CrossEntropyLoss()
    from repro.nn.optim import SGD

    opt = SGD(model.parameters(), lr=0.05)
    x = rng.normal(size=(1, 2, 2, 2))
    y = np.array([1])
    for _ in range(3):
        out = model(x)
        loss.forward(out, y)
        model.zero_grad()
        model.backward(loss.backward())
        opt.step()
    assert np.isfinite(model(x)).all()


def test_batchnorm_single_spatial_location():
    bn = nn.BatchNorm2d(3)
    x = RNG(2).normal(size=(4, 3, 1, 1))
    out = bn(x)
    assert out.shape == x.shape
    assert np.isfinite(out).all()


# -- conv shape edge cases -------------------------------------------------------


def test_conv_out_size_errors_on_empty_output():
    with pytest.raises(ValueError):
        conv_out_size(2, 5, 1, 0)
    assert conv_out_size(2, 5, 1, 2) == 2


def test_im2col_col2im_adjointness():
    """<im2col(x), y> == <x, col2im(y)> — the defining adjoint property."""
    rng = RNG(3)
    x = rng.normal(size=(2, 3, 5, 5))
    cols, _ = im2col(x, 3, 3, 2, 1)
    y = rng.normal(size=cols.shape)
    lhs = float((cols * y).sum())
    rhs = float((x * col2im(y, x.shape, 3, 3, 2, 1)).sum())
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_conv_kernel_larger_than_input_rejected():
    rng = RNG(4)
    layer = nn.Conv2d(1, 1, 5, rng)
    with pytest.raises(ValueError):
        layer(rng.normal(size=(1, 1, 3, 3)))


def test_pool_indivisible_input_rejected():
    pool = nn.MaxPool2d(2)
    with pytest.raises(ValueError):
        pool(RNG(5).normal(size=(1, 1, 5, 4)))


# -- protocol-level failure injection ------------------------------------------


def test_aggregating_corrupted_update_keys_fails_loudly():
    rng = RNG(6)
    model = nn.MLP(8, (4, 4, 4), 2, rng)
    test = ArrayDataset(rng.normal(size=(10, 2, 2, 2)), rng.integers(0, 2, 10))
    server = Server(model, test)
    from repro.fl.strategies import LocalUpdate

    good_keys = list(server.global_state)[:2]
    good = LocalUpdate(
        theta={k: server.global_state[k].copy() for k in good_keys},
        num_selected=5,
        num_local=10,
    )
    corrupted = LocalUpdate(
        theta={good_keys[0]: server.global_state[good_keys[0]].copy()},
        num_selected=5,
        num_local=10,
    )
    with pytest.raises(KeyError):
        server.aggregate([good, corrupted])


def test_aggregation_rejects_all_zero_weights():
    from repro.fl.aggregation import weighted_average_flat

    state = {"w": np.ones(2)}
    with pytest.raises(ValueError):
        weighted_average([state, state], [0.0, 0.0])
    with pytest.raises(ValueError):
        weighted_average_flat(np.ones((2, 2)), [0.0, 0.0])


def test_server_evaluate_after_aggregate_consistent():
    """Aggregating one client's exact upload reproduces that client's model."""
    rng = RNG(7)
    model = nn.MLP(8, (4, 4, 4), 2, rng)
    test = ArrayDataset(rng.normal(size=(10, 2, 2, 2)), rng.integers(0, 2, 10))
    server = Server(model, test)
    from repro.fl.strategies import LocalUpdate

    theta = {k: v + 0.5 for k, v in server.global_state.items()}
    server.aggregate([LocalUpdate(theta=theta, num_selected=3, num_local=3)])
    for key, value in theta.items():
        assert np.allclose(server.global_state[key], value)


def test_history_with_nan_accuracy_never_produced():
    """Accuracy is a finite fraction by construction."""
    rng = RNG(8)
    logits = np.full((4, 3), np.inf)
    labels = np.array([0, 1, 2, 0])
    acc = F.accuracy(logits, labels)  # argmax of inf rows is index 0
    assert 0.0 <= acc <= 1.0
