"""Numerical gradient checks for every hand-written backward pass.

These are the load-bearing correctness tests for the whole reproduction:
if these pass, SGD on any composition of these layers follows the true
gradient.
"""

import numpy as np
import pytest

from repro import nn
from gradcheck import check_module_gradients, numerical_grad

RNG = np.random.default_rng


def test_linear_gradients():
    rng = RNG(0)
    layer = nn.Linear(5, 4, rng)
    x = rng.normal(size=(7, 5))
    check_module_gradients(layer, x, rng)


def test_linear_no_bias_gradients():
    rng = RNG(1)
    layer = nn.Linear(3, 2, rng, bias=False)
    x = rng.normal(size=(4, 3))
    check_module_gradients(layer, x, rng)


def test_relu_gradients():
    rng = RNG(2)
    layer = nn.ReLU()
    # Keep values away from the kink at zero for a clean numerical check.
    x = rng.normal(size=(6, 5))
    x[np.abs(x) < 1e-2] = 0.5
    check_module_gradients(layer, x, rng)


def test_conv2d_gradients():
    rng = RNG(5)
    layer = nn.Conv2d(2, 3, 3, rng, stride=1, padding=1)
    x = rng.normal(size=(2, 2, 5, 5))
    check_module_gradients(layer, x, rng)


def test_conv2d_strided_gradients():
    rng = RNG(6)
    layer = nn.Conv2d(2, 4, 3, rng, stride=2, padding=1, bias=False)
    x = rng.normal(size=(2, 2, 6, 6))
    check_module_gradients(layer, x, rng)


def test_conv2d_1x1_gradients():
    rng = RNG(7)
    layer = nn.Conv2d(3, 2, 1, rng, stride=2, padding=0, bias=False)
    x = rng.normal(size=(2, 3, 4, 4))
    check_module_gradients(layer, x, rng)


def test_batchnorm2d_train_gradients():
    rng = RNG(8)
    layer = nn.BatchNorm2d(3)
    # Non-trivial gamma/beta so their gradients are exercised.
    layer.gamma.data[...] = rng.normal(1.0, 0.2, size=3)
    layer.beta.data[...] = rng.normal(size=3)
    x = rng.normal(size=(4, 3, 3, 3))
    check_module_gradients(layer, x, rng)


def test_batchnorm2d_eval_gradients():
    rng = RNG(9)
    layer = nn.BatchNorm2d(3)
    layer.register_buffer("running_mean", rng.normal(size=3))
    layer.register_buffer("running_var", rng.uniform(0.5, 2.0, size=3))
    layer.eval()
    x = rng.normal(size=(4, 3, 3, 3))
    check_module_gradients(layer, x, rng)


def test_maxpool_gradients():
    rng = RNG(11)
    layer = nn.MaxPool2d(2)
    # Distinct values avoid ties, whose subgradients are not unique.
    x = rng.permutation(np.arange(2 * 2 * 4 * 4, dtype=np.float64))
    x = x.reshape(2, 2, 4, 4) * 0.1
    check_module_gradients(layer, x, rng)


def test_globalavgpool_gradients():
    rng = RNG(13)
    layer = nn.GlobalAvgPool2d()
    x = rng.normal(size=(2, 3, 4, 4))
    check_module_gradients(layer, x, rng)


def test_flatten_gradients():
    rng = RNG(14)
    layer = nn.Flatten()
    x = rng.normal(size=(3, 2, 2, 2))
    check_module_gradients(layer, x, rng)


def test_basic_block_identity_gradients():
    rng = RNG(15)
    block = nn.BasicBlock(4, 4, 1, rng)
    x = rng.normal(size=(3, 4, 4, 4))
    check_module_gradients(block, x, rng)


def test_basic_block_projection_gradients():
    rng = RNG(16)
    block = nn.BasicBlock(3, 6, 2, rng)
    x = rng.normal(size=(3, 3, 4, 4))
    check_module_gradients(block, x, rng)


def test_sequential_gradients():
    rng = RNG(17)
    model = nn.Sequential(
        nn.Linear(6, 5, rng),
        nn.ReLU(),
        nn.Linear(5, 3, rng),
    )
    x = rng.normal(size=(4, 6))
    check_module_gradients(model, x, rng)


def test_mlp_end_to_end_gradients():
    rng = RNG(18)
    model = nn.MLP(12, (8, 8, 8), 3, rng)
    x = rng.normal(size=(5, 3, 2, 2))
    check_module_gradients(model, x, rng)


def test_small_convnet_gradients():
    rng = RNG(19)
    model = nn.SmallConvNet(3, rng, in_channels=2, channels=(4, 4, 4))
    x = rng.normal(size=(3, 2, 8, 8))
    check_module_gradients(model, x, rng)


@pytest.mark.slow
def test_wrn_gradients():
    rng = RNG(20)
    model = nn.WideResNet(10, 1, 3, rng, in_channels=2, base_planes=4)
    x = rng.normal(size=(2, 2, 8, 8))
    check_module_gradients(model, x, rng, rtol=5e-4)


def test_cross_entropy_gradient_matches_numeric():
    rng = RNG(21)
    logits = rng.normal(size=(6, 4))
    labels = rng.integers(0, 4, size=6)
    loss = nn.CrossEntropyLoss()

    def f():
        return loss.forward(logits, labels)

    f()
    analytic = loss.backward()
    numeric = numerical_grad(f, logits)
    assert np.allclose(analytic, numeric, atol=1e-6)


def test_frozen_parameters_get_no_gradient():
    rng = RNG(23)
    model = nn.Sequential(nn.Linear(4, 4, rng), nn.ReLU(), nn.Linear(4, 2, rng))
    model.layers[0].freeze()
    x = rng.normal(size=(3, 4))
    out = model(x)
    model.backward(np.ones_like(out))
    assert np.all(model.layers[0].weight.grad == 0)
    assert np.any(model.layers[2].weight.grad != 0)


def test_truncated_backward_skips_frozen_bottom():
    rng = RNG(24)
    model = nn.MLP(12, (4, 4, 4), 2, rng)
    model.apply_fine_tune_level("classifier")
    x = rng.normal(size=(3, 3, 2, 2))
    out = model(x)
    grad_in = model.backward(np.ones_like(out))
    assert grad_in is None  # backward stopped below the trainable frontier
    assert np.any(model.head.layers[0].weight.grad != 0)
    assert np.all(model.up.layers[0].weight.grad == 0)
