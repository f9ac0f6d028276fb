"""Data selectors: entropy ranking, random selection, invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.data.dataset import ArrayDataset
from repro.fl.selection import (
    EntropySelector,
    FullSelector,
    RandomSelector,
    batched_logits,
    selected_count,
)
from repro.nn import functional as F

RNG = np.random.default_rng


def make_setup(n=40, classes=4, seed=0):
    rng = RNG(seed)
    model = nn.MLP(12, (8, 8, 8), classes, rng)
    ds = ArrayDataset(
        rng.normal(size=(n, 3, 2, 2)), rng.integers(0, classes, n)
    )
    return model, ds


def test_selected_count_bounds():
    assert selected_count(100, 0.1) == 10
    assert selected_count(3, 0.1) == 1  # never zero
    assert selected_count(10, 1.0) == 10
    with pytest.raises(ValueError):
        selected_count(10, 0.0)
    with pytest.raises(ValueError):
        selected_count(10, 1.5)


def test_full_selector_returns_everything():
    model, ds = make_setup()
    idx = FullSelector().select(model, ds, 1.0, RNG(0))
    assert np.array_equal(idx, np.arange(len(ds)))
    with pytest.raises(ValueError):
        FullSelector().select(model, ds, 0.5, RNG(0))


def test_random_selector_fraction_and_uniqueness():
    model, ds = make_setup()
    idx = RandomSelector().select(model, ds, 0.25, RNG(0))
    assert len(idx) == 10
    assert len(np.unique(idx)) == 10
    assert idx.min() >= 0 and idx.max() < len(ds)


def test_random_selector_redraws_each_round():
    model, ds = make_setup()
    rng = RNG(0)
    sel = RandomSelector()
    first = sel.select(model, ds, 0.25, rng)
    second = sel.select(model, ds, 0.25, rng)
    assert not np.array_equal(first, second)


def test_entropy_selector_picks_top_entropy():
    model, ds = make_setup()
    sel = EntropySelector(temperature=0.1)
    scores = sel.scores(model, ds)
    idx = sel.select(model, ds, 0.25, RNG(0))
    k = len(idx)
    threshold = np.sort(scores)[-k]
    assert np.all(scores[idx] >= threshold - 1e-12)


def test_entropy_selector_matches_manual_entropy():
    model, ds = make_setup()
    sel = EntropySelector(temperature=0.5)
    x, _ = ds.arrays()
    model.eval()
    expected = F.entropy_from_logits(model(x), 0.5)
    assert np.allclose(sel.scores(model, ds), expected)


def test_entropy_selector_eval_mode_restored():
    model, ds = make_setup()
    model.train()
    EntropySelector().select(model, ds, 0.5, RNG(0))
    assert model.training  # mode restored after scoring


def test_entropy_selector_validation():
    with pytest.raises(ValueError):
        EntropySelector(temperature=0.0)


@pytest.mark.parametrize(
    "kwargs",
    [{"temperature": float("nan")}, {"temperature": float("inf")},
     {"batch_size": 2.5}, {"batch_size": float("nan")}],
    ids=["temperature_nan", "temperature_inf", "batch_fractional",
         "batch_nan"],
)
def test_entropy_selector_refuses_non_finite_and_fractional(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        EntropySelector(**kwargs)


@pytest.mark.parametrize("batch_size", [0, -1])
def test_entropy_selector_refuses_batch_size_below_one(batch_size):
    """A chunk size below one can score nothing: refused up front, not
    first by ``range()`` in whichever scoring path the round takes."""
    with pytest.raises(ValueError, match="batch_size"):
        EntropySelector(batch_size=batch_size)


def test_entropy_selection_deterministic():
    model, ds = make_setup()
    sel = EntropySelector()
    a = sel.select(model, ds, 0.3, RNG(0))
    b = sel.select(model, ds, 0.3, RNG(1))  # rng unused by EDS
    assert np.array_equal(a, b)


def test_batched_logits_matches_single_pass():
    model, ds = make_setup(n=23)
    x, _ = ds.arrays()
    model.eval()
    assert np.allclose(batched_logits(model, x, batch_size=7), model(x))


def test_temperature_changes_ranking_possible():
    """Hardened vs soft temperature may rank differently for >2 classes."""
    logits = np.array(
        [
            [4.0, 3.9, -10.0, -10.0],  # two-way race, low margin
            [2.0, -1.0, -1.0, -1.0],  # confident but diffuse tail
        ]
    )
    hard = F.entropy_from_logits(logits, 0.1)
    soft = F.entropy_from_logits(logits, 5.0)
    assert (hard[0] > hard[1]) != (soft[0] > soft[1])


@settings(deadline=None, max_examples=25)
@given(st.floats(0.05, 1.0), st.integers(3, 40), st.integers(0, 2**31 - 1))
def test_selectors_return_valid_indices(fraction, n, seed):
    model, ds = make_setup(n=n, seed=1)
    for sel in (RandomSelector(), EntropySelector()):
        idx = sel.select(model, ds, fraction, RNG(seed))
        assert len(idx) == selected_count(n, fraction)
        assert len(np.unique(idx)) == len(idx)
        assert idx.min() >= 0 and idx.max() < n
        assert np.array_equal(idx, np.sort(idx))
