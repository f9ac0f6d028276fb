"""Module-system behaviour: registration, state dicts, freezing, modes."""

import numpy as np
import pytest

from repro import nn
from repro.nn.module import Module, Parameter

RNG = np.random.default_rng


def make_mlp(seed=0):
    return nn.MLP(8, (6, 6, 6), 3, RNG(seed))


def test_named_parameters_cover_all_layers():
    model = make_mlp()
    names = [name for name, _ in model.named_parameters()]
    assert "low.layer0.weight" in names
    assert "head.layer0.bias" in names
    # 4 Linear layers x (weight, bias)
    assert len(names) == 8


def test_state_dict_roundtrip():
    model = make_mlp(0)
    other = make_mlp(1)
    x = RNG(2).normal(size=(4, 8))
    assert not np.allclose(model(x), other(x))
    other.load_state_dict(model.state_dict())
    assert np.allclose(model(x), other(x))


def test_state_dict_returns_copies():
    model = make_mlp()
    state = model.state_dict()
    state["head.layer0.bias"][...] = 123.0
    assert not np.any(model.head.layers[0].bias.data == 123.0)


def test_load_state_dict_rejects_unknown_keys():
    model = make_mlp()
    with pytest.raises(KeyError):
        model.load_state_dict({"nonexistent.weight": np.zeros(3)})


def test_load_state_dict_strict_requires_all_keys():
    model = make_mlp()
    state = model.state_dict()
    state.pop("head.layer0.bias")
    with pytest.raises(KeyError):
        model.load_state_dict(state)
    model.load_state_dict(state, strict=False)  # partial load allowed


def test_load_state_dict_shape_mismatch():
    model = make_mlp()
    state = model.state_dict()
    state["head.layer0.bias"] = np.zeros(99)
    with pytest.raises(ValueError):
        model.load_state_dict(state)


def test_buffers_in_state_dict():
    rng = RNG(0)
    bn = nn.BatchNorm2d(4)
    state = bn.state_dict()
    assert "running_mean" in state and "running_var" in state
    x = rng.normal(size=(8, 4, 2, 2))
    bn(x)  # updates running stats in train mode
    assert not np.allclose(bn.state_dict()["running_mean"], 0.0)


def test_buffer_load_updates_in_place():
    bn = nn.BatchNorm2d(3)
    bn.load_state_dict(
        {
            "gamma": np.ones(3),
            "beta": np.zeros(3),
            "running_mean": np.full(3, 2.5),
            "running_var": np.full(3, 4.0),
        }
    )
    assert np.allclose(bn.running_mean, 2.5)
    assert np.allclose(bn.running_var, 4.0)


def test_train_eval_propagates():
    model = nn.SmallConvNet(3, RNG(0), channels=(4, 4, 4))
    model.eval()
    assert all(not mod.training for _, mod in model.named_modules())
    model.train()
    assert all(mod.training for _, mod in model.named_modules())


def test_freeze_unfreeze():
    model = make_mlp()
    model.low.freeze()
    frozen = [n for n, p in model.named_parameters() if not p.requires_grad]
    assert frozen == ["low.layer0.weight", "low.layer0.bias"]
    model.low.unfreeze()
    assert all(p.requires_grad for p in model.parameters())


def test_num_parameters_counts():
    model = make_mlp()
    total = model.num_parameters()
    assert total == (8 * 6 + 6) + (6 * 6 + 6) * 2 + (6 * 3 + 3)
    model.low.freeze()
    assert model.num_parameters(trainable_only=True) == total - (8 * 6 + 6)


def test_zero_grad_clears():
    model = make_mlp()
    x = RNG(1).normal(size=(4, 8))
    out = model(x)
    model.backward(np.ones_like(out))
    assert any(np.any(p.grad != 0) for p in model.parameters())
    model.zero_grad()
    assert all(np.all(p.grad == 0) for p in model.parameters())


def test_parameter_rejects_nothing_but_tracks_shape():
    p = Parameter(np.zeros((3, 2)))
    assert p.shape == (3, 2)
    assert p.size == 6
    assert p.requires_grad


def test_sequential_iteration_and_indexing():
    rng = RNG(0)
    seq = nn.Sequential(nn.Linear(4, 4, rng), nn.ReLU())
    assert len(seq) == 2
    assert isinstance(seq[1], nn.ReLU)
    assert [type(m).__name__ for m in seq] == ["Linear", "ReLU"]


def test_backward_before_forward_raises():
    rng = RNG(0)
    layer = nn.Linear(3, 3, rng)
    with pytest.raises(RuntimeError):
        layer.backward(np.ones((2, 3)))


def test_module_attribute_registration():
    class Custom(Module):
        def __init__(self):
            super().__init__()
            self.p = Parameter(np.zeros(3))
            self.child = nn.ReLU()

    mod = Custom()
    assert dict(mod.named_parameters()) != {}
    assert any(name == "child" for name, _ in mod.named_modules())
