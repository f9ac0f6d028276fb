"""Segmented-model machinery: levels, ϕ/θ split, truncation, profiling."""

import numpy as np
import pytest

from repro import nn
from repro.nn import profiling
from repro.nn.segmented import FINE_TUNE_LEVELS, SEGMENT_ORDER
from repro.nn.serialization import theta_keys
from repro.core.partial import adapt_to_task, prepare_partial_model

RNG = np.random.default_rng


@pytest.fixture(params=["mlp", "cnn"])
def model(request):
    rng = RNG(0)
    if request.param == "mlp":
        return nn.MLP(48, (8, 8, 8), 4, rng)
    return nn.SmallConvNet(4, rng, channels=(4, 4, 4))


def test_segment_order(model):
    assert [name for name, _ in model.segments()] == list(SEGMENT_ORDER)


@pytest.mark.parametrize("level", list(FINE_TUNE_LEVELS))
def test_fine_tune_levels_freeze_correctly(model, level):
    model.apply_fine_tune_level(level)
    frontier = SEGMENT_ORDER.index(FINE_TUNE_LEVELS[level])
    for i, (name, segment) in enumerate(model.segments()):
        params = segment.parameters()
        if not params:
            continue
        if i < frontier:
            assert not segment.has_trainable(), f"{name} should be frozen"
        else:
            assert all(p.requires_grad for p in params), f"{name} should train"


def test_unknown_level_rejected(model):
    with pytest.raises(ValueError):
        model.apply_fine_tune_level("everything")


def test_moderate_level_trains_up_and_head(model):
    model.apply_fine_tune_level("moderate")
    trainable = [name for name, seg in model.segments() if seg.has_trainable()]
    assert trainable == ["up", "head"]


def test_backward_truncation_matches_level():
    """Frozen-bottom backward must produce identical trainable grads."""
    rng = RNG(3)
    x = rng.normal(size=(4, 3, 4, 4))
    ref = nn.MLP(48, (8, 8, 8), 4, RNG(0))
    out = ref(x)
    grad_out = np.ones_like(out)
    ref.backward(grad_out)  # full backward (all trainable)
    ref_grads = {
        n: p.grad.copy() for n, p in ref.named_parameters()
        if n.startswith(("up", "head"))
    }
    model = nn.MLP(48, (8, 8, 8), 4, RNG(0))
    model.apply_fine_tune_level("moderate")
    model.zero_grad()
    model(x)
    returned = model.backward(grad_out)
    assert returned is None  # truncated below `up`
    for name, p in model.named_parameters():
        if name.startswith(("up", "head")):
            assert np.allclose(p.grad, ref_grads[name])


def test_forward_collect_segments(model):
    x = RNG(1).normal(size=(5, 3, 4, 4))
    collected = model.forward_collect(x)
    assert set(collected) == set(SEGMENT_ORDER)
    for feats in collected.values():
        assert feats.ndim == 2
        assert feats.shape[0] == 5


def test_set_partial_train_mode(model):
    model.apply_fine_tune_level("moderate")
    model.set_partial_train_mode()
    for name, segment in model.segments():
        expected = name in ("up", "head")
        assert all(
            mod.training == expected for _, mod in segment.named_modules()
        ), name


def test_theta_keys_only_trainable(model):
    model.apply_fine_tune_level("classifier")
    keys = theta_keys(model)
    assert keys, "classifier level must leave trainable keys"
    assert all(k.startswith("head") for k in keys)
    model.apply_fine_tune_level("full")
    assert len(theta_keys(model)) == len(model.state_dict())


def test_adapt_to_task_changes_head_only(model):
    before = {
        n: p.data.copy() for n, p in model.named_parameters()
        if not n.startswith("head")
    }
    adapt_to_task(model, 7, RNG(5))
    x = RNG(1).normal(size=(2, 3, 4, 4))
    assert model(x).shape == (2, 7)
    for name, p in model.named_parameters():
        if not name.startswith("head"):
            assert np.array_equal(p.data, before[name])


def test_training_workload_shrinks_with_freezing(model):
    """Training cost must shrink monotonically as more layers freeze."""
    shape = (3, 4, 4)
    flops = []
    for level in ("full", "large", "moderate", "classifier"):
        prepare_partial_model(model, level)
        flops.append(profiling.round_flops_per_sample(model, shape)[0])
    fractions = [f / flops[0] for f in flops]
    assert fractions[0] == pytest.approx(1.0)
    assert fractions == sorted(fractions, reverse=True)
    assert fractions[-1] < 0.6


def test_training_flops_reflect_freezing():
    rng = RNG(0)
    model = nn.SmallConvNet(4, rng, channels=(4, 4, 4))
    shape = (3, 8, 8)
    full, _ = profiling.round_flops_per_sample(model, shape)
    model.apply_fine_tune_level("classifier")
    frozen, _ = profiling.round_flops_per_sample(model, shape)
    forward_only, _ = model.flops_per_sample(shape)
    assert frozen < full
    assert frozen >= forward_only


def test_selection_flops_equal_forward():
    model = nn.MLP(48, (8, 8, 8), 4, RNG(0))
    shape = (3, 4, 4)
    _, selection = profiling.round_flops_per_sample(model, shape)
    assert selection == model.flops_per_sample(shape)[0]
