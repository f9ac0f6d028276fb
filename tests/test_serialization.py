"""Saving/loading state dicts and the ϕ/θ key split."""

import os

import numpy as np

from repro import nn
from repro.nn.serialization import load_state, save_state, theta_keys

RNG = np.random.default_rng


def test_save_load_roundtrip(tmp_path):
    model = nn.MLP(8, (4, 4, 4), 2, RNG(0))
    path = os.path.join(tmp_path, "model.npz")
    save_state(path, model.state_dict())
    loaded = load_state(path)
    for key, value in model.state_dict().items():
        assert np.array_equal(loaded[key], value)


def test_save_appends_npz_suffix(tmp_path):
    model = nn.MLP(8, (4, 4, 4), 2, RNG(0))
    path = os.path.join(tmp_path, "weights")
    save_state(path, model.state_dict())
    loaded = load_state(path)
    assert set(loaded) == set(model.state_dict())


def test_save_creates_directories(tmp_path):
    model = nn.MLP(8, (4, 4, 4), 2, RNG(0))
    path = os.path.join(tmp_path, "deep", "nest", "model.npz")
    save_state(path, model.state_dict())
    assert os.path.exists(path)


def test_loaded_state_restores_behaviour(tmp_path):
    model = nn.MLP(8, (4, 4, 4), 2, RNG(0))
    x = RNG(1).normal(size=(3, 2, 2, 2))
    expected = model(x)
    path = os.path.join(tmp_path, "m.npz")
    save_state(path, model.state_dict())
    fresh = nn.MLP(8, (4, 4, 4), 2, RNG(9))
    fresh.load_state_dict(load_state(path))
    assert np.allclose(fresh(x), expected)


def test_theta_keys_include_bn_buffers_of_trainable_segments():
    model = nn.SmallConvNet(3, RNG(0), channels=(4, 4, 4))
    model.apply_fine_tune_level("moderate")
    keys = theta_keys(model)
    # trainable `up` segment has BN buffers that must travel with theta
    assert any(k.startswith("up") and "running_mean" in k for k in keys)
    # frozen segments contribute nothing
    assert not any(k.startswith(("stem", "low", "mid")) for k in keys)
