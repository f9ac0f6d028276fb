"""The analytic timing model and its interaction with partial training."""

import numpy as np
import pytest

from repro import nn
from repro.core.fedft_eds import build_model
from repro.fl.timing import TimingModel
from repro.nn import profiling
from repro.nn.segmented import FINE_TUNE_LEVELS, SEGMENT_ORDER

RNG = np.random.default_rng
SHAPE = (3, 4, 4)


def make_model(level="full"):
    model = nn.MLP(48, (16, 16, 16), 4, RNG(0))
    model.apply_fine_tune_level(level)
    return model


@pytest.mark.parametrize(
    "kwargs",
    [{"flops_per_second": float("nan")}, {"flops_per_second": float("inf")},
     {"speed_multipliers": {0: float("nan")}},
     {"speed_multipliers": {0: float("inf")}}],
    ids=["flops_nan", "flops_inf", "multiplier_nan", "multiplier_inf"],
)
def test_timing_model_refuses_non_finite_settings(kwargs):
    with pytest.raises(ValueError):
        TimingModel(**kwargs)


def test_round_seconds_positive_and_scales_with_data():
    timing = TimingModel(flops_per_second=1e6)
    model = make_model()
    t1 = timing.round_seconds(model, SHAPE, 10, 100, epochs=1, selection_forward=False)
    t2 = timing.round_seconds(model, SHAPE, 20, 100, epochs=1, selection_forward=False)
    assert 0 < t1 < t2
    assert t2 == pytest.approx(2 * t1)


def test_epochs_scale_training_time():
    timing = TimingModel(flops_per_second=1e6)
    model = make_model()
    t1 = timing.round_seconds(model, SHAPE, 10, 100, epochs=1, selection_forward=False)
    t5 = timing.round_seconds(model, SHAPE, 10, 100, epochs=5, selection_forward=False)
    assert t5 == pytest.approx(5 * t1)


def test_selection_overhead_added():
    timing = TimingModel(flops_per_second=1e6)
    model = make_model()
    base = timing.round_seconds(model, SHAPE, 10, 100, epochs=1, selection_forward=False)
    with_sel = timing.round_seconds(
        model, SHAPE, 10, 100, epochs=1, selection_forward=True
    )
    assert with_sel > base


def test_partial_training_cheaper():
    """The workload reduction the paper claims from partial fine-tuning."""
    timing = TimingModel(flops_per_second=1e6)
    full = timing.round_seconds(
        make_model("full"), SHAPE, 10, 100, epochs=1, selection_forward=False
    )
    partial = timing.round_seconds(
        make_model("classifier"), SHAPE, 10, 100, epochs=1, selection_forward=False
    )
    assert partial < full


def test_fedft_eds_beats_fedavg_workload():
    """FedFT-EDS round (10% data + selection pass + partial model) must be
    much cheaper than a FedAvg round (all data, full model)."""
    timing = TimingModel(flops_per_second=1e6)
    n = 200
    fedavg = timing.round_seconds(
        make_model("full"), SHAPE, n, n, epochs=5, selection_forward=False
    )
    fedft_eds = timing.round_seconds(
        make_model("moderate"), SHAPE, n // 10, n, epochs=5, selection_forward=True
    )
    assert fedft_eds < fedavg / 3  # the paper's ≥3x efficiency headroom


def test_speed_multipliers():
    timing = TimingModel(flops_per_second=1e6, speed_multipliers={1: 4.0})
    model = make_model()
    fast = timing.round_seconds(
        model, SHAPE, 10, 10, epochs=1, selection_forward=False, client_id=0
    )
    slow = timing.round_seconds(
        model, SHAPE, 10, 10, epochs=1, selection_forward=False, client_id=1
    )
    assert slow == pytest.approx(4 * fast)


def _two_walk_training_flops(model, in_shape):
    """Reference: the training count from a per-segment walk plus a
    separate trainable-frontier pass, as priced before the single walk."""
    per_segment = {}
    shape = in_shape
    for name, segment in model.segments():
        per_segment[name], shape = segment.flops_per_sample(shape)
    total_forward = sum(per_segment.values())
    trainable = [
        SEGMENT_ORDER.index(name)
        for name, segment in model.segments()
        if segment.has_trainable()
    ]
    if not trainable:
        return total_forward
    backward = sum(
        per_segment[name]
        for i, name in enumerate(SEGMENT_ORDER)
        if i >= min(trainable)
    )
    return int(total_forward + profiling.BACKWARD_FORWARD_RATIO * backward)


@pytest.mark.parametrize("kind", ["mlp", "cnn", "tiny_wrn"])
def test_single_walk_pricing_equals_the_two_walk_formula(kind):
    """One segment walk prices a round to the same float as the training
    and selection counts taken by separate walks, at every fine-tune level
    (and with nothing trainable) and with selection on or off."""
    shape = (3, 8, 8)
    timing = TimingModel(flops_per_second=3e7, speed_multipliers={2: 1.7})
    for level in [*FINE_TUNE_LEVELS, "frozen"]:
        model = build_model(kind, shape, 4, RNG(0))
        if level == "frozen":
            model.freeze()
        else:
            model.apply_fine_tune_level(level)
        training = profiling.training_flops_per_sample(model, shape)
        selection = profiling.selection_flops_per_sample(model, shape)
        assert training == _two_walk_training_flops(model, shape)
        assert profiling.round_flops_per_sample(model, shape) == (
            training, selection,
        )
        for selection_forward in (False, True):
            expected = (
                training * 7 * 3 + (selection * 50 if selection_forward else 0)
            ) / 3e7 * 1.7
            got = timing.round_seconds(
                model, shape, 7, 50, epochs=3,
                selection_forward=selection_forward, client_id=2,
            )
            assert got == expected, (level, selection_forward)


def test_validation():
    with pytest.raises(ValueError):
        TimingModel(flops_per_second=0)
    with pytest.raises(ValueError):
        TimingModel(speed_multipliers={0: -1.0})
    timing = TimingModel()
    with pytest.raises(ValueError):
        timing.round_seconds(make_model(), SHAPE, -1, 10, 1, False)
    with pytest.raises(ValueError):
        timing.round_seconds(make_model(), SHAPE, 1, 10, 0, False)
