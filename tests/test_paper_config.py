"""The paper's exact configuration is constructible and correctly shaped.

The recorded experiments run at reduced scale, but the faithful `paper`
preset (WRN-16-1 on 32×32, fine-tune from layer 3, ρ=0.1, E=5) must build
and behave structurally like the paper describes.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn import profiling
from repro.nn.wrn import wrn_16_1
from repro.core.partial import prepare_partial_model
from repro.experiments.scales import get_scale
from repro.fl.communication import round_communication

RNG = np.random.default_rng


@pytest.fixture(scope="module")
def model():
    return wrn_16_1(10, RNG(0))


def test_wrn_16_1_structure(model):
    # depth 16 => (16-4)/6 = 2 blocks per group
    assert len(model.low) == 2
    assert len(model.mid) == 2
    assert len(model.up) == 2
    # widths 16 / 16 / 32 / 64 at width factor 1
    assert model.stem.out_channels == 16
    assert model.up.layers[-1].conv2.out_channels == 64


def test_wrn_16_1_parameter_count_close_to_published(model):
    """WRN-16-1 has ~0.17M parameters (Zagoruyko & Komodakis, Table 1)."""
    params = model.num_parameters()
    assert 0.15e6 < params < 0.25e6


def test_wrn_16_1_forward_shape_32x32(model):
    x = RNG(1).normal(size=(2, 3, 32, 32))
    out = model(x)
    assert out.shape == (2, 10)


def test_paper_fine_tune_level_saves_work(model):
    """'Fine-tune from layer 3' must cut both compute and communication."""
    shape = (3, 32, 32)
    prepare_partial_model(model, "full")
    full_flops = profiling.round_flops_per_sample(model, shape)[0]
    full_traffic = round_communication(model).total_parameters
    prepare_partial_model(model, "moderate")
    workload = profiling.round_flops_per_sample(model, shape)[0] / full_flops
    assert workload < 0.85  # strictly cheaper than full fine-tuning
    comm = round_communication(model).total_parameters / full_traffic
    assert comm < 0.95  # theta is a strict subset of the parameters
    model.unfreeze()


def test_paper_scale_preset_matches_paper():
    scale = get_scale("paper")
    assert scale.image_size == 32
    assert scale.c100_classes == 100
    assert scale.rounds == 50
    assert scale.local_epochs == 5  # E = 5
    assert scale.lr == pytest.approx(0.1)
    assert scale.momentum == pytest.approx(0.5)
    assert scale.model_main == "wrn16"
    assert scale.clients_small == 10 and scale.clients_large == 100


@pytest.mark.slow
def test_wrn_16_1_one_training_step(model):
    """One SGD step on the paper's model decreases the loss."""
    from repro.nn.optim import SGD

    prepare_partial_model(model, "moderate")
    rng = RNG(2)
    x = rng.normal(size=(8, 3, 32, 32))
    y = rng.integers(0, 10, size=8)
    loss_fn = nn.CrossEntropyLoss()
    opt = SGD([p for p in model.parameters() if p.requires_grad], lr=0.1,
              momentum=0.5)
    first = loss_fn.forward(model(x), y)
    for _ in range(5):
        out = model(x)
        loss_fn.forward(out, y)
        model.zero_grad()
        model.backward(loss_fn.backward())
        opt.step()
    last = loss_fn.forward(model(x), y)
    assert last < first


def test_flops_grow_with_depth_and_width():
    shallow, _ = nn.WideResNet(10, 1, 10, RNG(0)).flops_per_sample((3, 16, 16))
    deep, _ = nn.WideResNet(16, 1, 10, RNG(0)).flops_per_sample((3, 16, 16))
    wide, _ = nn.WideResNet(10, 2, 10, RNG(0)).flops_per_sample((3, 16, 16))
    assert shallow < deep
    assert shallow < wide
