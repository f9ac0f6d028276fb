"""Optimiser, loss and end-to-end learning behaviour of the NN substrate."""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.module import Parameter
from repro.nn.optim import SGD

RNG = np.random.default_rng


def test_sgd_vanilla_step():
    p = Parameter(np.array([1.0, 2.0]))
    p.grad[...] = np.array([0.5, -0.5])
    SGD([p], lr=0.1).step()
    assert np.allclose(p.data, [0.95, 2.05])


def test_sgd_skips_frozen():
    p = Parameter(np.array([1.0]), requires_grad=False)
    p.grad[...] = 10.0
    SGD([p], lr=0.1).step()
    assert p.data[0] == 1.0


def test_sgd_momentum_accumulates():
    p = Parameter(np.array([0.0]))
    opt = SGD([p], lr=1.0, momentum=0.5)
    p.grad[...] = 1.0
    opt.step()  # v=1, p=-1
    p.grad[...] = 1.0
    opt.step()  # v=1.5, p=-2.5
    assert p.data[0] == pytest.approx(-2.5)


def test_sgd_weight_decay():
    p = Parameter(np.array([2.0]))
    p.grad[...] = 0.0
    SGD([p], lr=0.1, weight_decay=0.5).step()
    assert p.data[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)


def test_sgd_validation():
    p = Parameter(np.zeros(1))
    with pytest.raises(ValueError):
        SGD([p], lr=0.0)
    with pytest.raises(ValueError):
        SGD([p], lr=0.1, momentum=1.0)


def test_cross_entropy_known_value():
    loss = nn.CrossEntropyLoss()
    logits = np.zeros((1, 4))  # uniform prediction
    assert loss.forward(logits, np.array([1])) == pytest.approx(np.log(4))


def test_cross_entropy_rejects_bad_shapes():
    loss = nn.CrossEntropyLoss()
    with pytest.raises(ValueError):
        loss.forward(np.zeros((2, 3, 1)), np.array([0, 1]))
    with pytest.raises(ValueError):
        loss.forward(np.zeros((2, 3)), np.array([0]))


def test_mlp_learns_linearly_separable():
    """Gradient descent on the substrate must actually learn."""
    rng = RNG(0)
    n = 200
    x = rng.normal(size=(n, 2, 2, 2))
    y = (x.reshape(n, -1).sum(axis=1) > 0).astype(np.int64)
    model = nn.MLP(8, (16, 16, 16), 2, rng)
    loss_fn = nn.CrossEntropyLoss()
    opt = SGD(model.parameters(), lr=0.2, momentum=0.9)
    for _ in range(150):
        logits = model(x)
        loss_fn.forward(logits, y)
        model.zero_grad()
        model.backward(loss_fn.backward())
        opt.step()
    assert F.accuracy(model(x), y) > 0.95


def test_convnet_loss_decreases():
    rng = RNG(1)
    x = rng.normal(size=(32, 3, 8, 8))
    y = rng.integers(0, 3, size=32)
    model = nn.SmallConvNet(3, rng, channels=(4, 8, 8))
    loss_fn = nn.CrossEntropyLoss()
    opt = SGD(model.parameters(), lr=0.05, momentum=0.9)
    first = loss_fn.forward(model(x), y)
    for _ in range(30):
        logits = model(x)
        loss_fn.forward(logits, y)
        model.zero_grad()
        model.backward(loss_fn.backward())
        opt.step()
    last = loss_fn.forward(model(x), y)
    assert last < first * 0.5


def test_wrn_structure():
    model = nn.WideResNet(16, 2, 10, RNG(0))
    assert model.depth == 16
    names = [name for name, _ in model.segments()]
    assert names == ["stem", "low", "mid", "up", "head"]
    with pytest.raises(ValueError):
        nn.WideResNet(15, 1, 10, RNG(0))  # depth not 6n+4


def test_wrn_forward_shapes():
    model = nn.WideResNet(10, 1, 5, RNG(0), in_channels=3, base_planes=4)
    x = RNG(1).normal(size=(2, 3, 8, 8))
    out = model(x)
    assert out.shape == (2, 5)
