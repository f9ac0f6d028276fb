"""Dataset containers and the loader."""

import numpy as np
import pytest

from repro.data.dataset import ArrayDataset, DataLoader, Subset


def make_dataset(n=20):
    rng = np.random.default_rng(0)
    return ArrayDataset(rng.normal(size=(n, 3, 4, 4)), rng.integers(0, 3, n))


def test_array_dataset_basicity():
    ds = make_dataset(10)
    assert len(ds) == 10
    x, y = ds.arrays()
    assert x.shape == (10, 3, 4, 4)
    assert y.dtype == np.int64


def test_array_dataset_length_mismatch():
    with pytest.raises(ValueError):
        ArrayDataset(np.zeros((3, 2)), np.zeros(4))


def test_subset_view():
    ds = make_dataset(10)
    sub = ds.subset([1, 3, 5])
    assert len(sub) == 3
    x, y = sub.arrays()
    full_x, full_y = ds.arrays()
    assert np.array_equal(x, full_x[[1, 3, 5]])
    assert np.array_equal(y, full_y[[1, 3, 5]])


def test_subset_out_of_range():
    ds = make_dataset(5)
    with pytest.raises(IndexError):
        ds.subset([10])


def test_nested_subset(monkeypatch):
    ds = make_dataset(10)
    sub = ds.subset([0, 2, 4, 6]).subset([1, 3])
    x, _ = sub.arrays()
    full_x, _ = ds.arrays()
    assert np.array_equal(x, full_x[[2, 6]])
    # the sample shape is read without gathering any rows
    monkeypatch.setattr(
        Subset, "arrays", lambda self: pytest.fail("gathered subset rows")
    )
    assert sub.input_shape == x.shape[1:] == (3, 4, 4)


def test_dataloader_batches_cover_dataset():
    ds = make_dataset(17)
    loader = DataLoader(ds, batch_size=5)
    batches = list(loader)
    assert [len(b[1]) for b in batches] == [5, 5, 5, 2]
    assert len(loader) == 4


def test_dataloader_shuffle_reproducible_and_reshuffles():
    ds = make_dataset(16)
    loader = DataLoader(ds, 4, shuffle=True, rng=np.random.default_rng(0))
    first_pass = np.concatenate([y for _, y in loader])
    second_pass = np.concatenate([y for _, y in loader])
    # same multiset, different order across passes (with high probability)
    assert sorted(first_pass) == sorted(second_pass)
    assert not np.array_equal(first_pass, second_pass)
    # a fresh loader with the same seed reproduces the sequence
    loader2 = DataLoader(ds, 4, shuffle=True, rng=np.random.default_rng(0))
    assert np.array_equal(
        first_pass, np.concatenate([y for _, y in loader2])
    )


def test_dataloader_requires_rng_for_shuffle():
    with pytest.raises(ValueError):
        DataLoader(make_dataset(4), 2, shuffle=True)
    with pytest.raises(ValueError):
        DataLoader(make_dataset(4), 0)
