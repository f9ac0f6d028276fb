"""Dirichlet/IID partitioning: coverage, disjointness, heterogeneity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.partition import (
    dirichlet_partition,
    iid_partition,
    partition_statistics,
)


def make_labels(n=300, classes=6, seed=0):
    return np.random.default_rng(seed).integers(0, classes, size=n)


def assert_valid_partition(shards, n):
    """Shards must be disjoint and cover all indices exactly once."""
    merged = np.concatenate(shards)
    assert len(merged) == n
    assert np.array_equal(np.sort(merged), np.arange(n))


def test_iid_partition_covers_all():
    labels = make_labels()
    shards = iid_partition(labels, 7, 0)
    assert_valid_partition(shards, len(labels))
    sizes = [len(s) for s in shards]
    assert max(sizes) - min(sizes) <= 1


def test_iid_partition_rejects_bad_inputs():
    with pytest.raises(ValueError):
        iid_partition(make_labels(5), 0, 0)
    with pytest.raises(ValueError):
        iid_partition(make_labels(3), 5, 0)


def test_dirichlet_partition_covers_all():
    labels = make_labels()
    shards = dirichlet_partition(labels, 10, alpha=0.5, rng=0)
    assert_valid_partition(shards, len(labels))
    assert all(len(s) >= 2 for s in shards)


def test_dirichlet_more_skewed_at_small_alpha():
    """Smaller alpha must yield fewer effective classes per client."""
    labels = make_labels(n=2000, classes=10)
    skewed = dirichlet_partition(labels, 10, alpha=0.05, rng=0)
    mild = dirichlet_partition(labels, 10, alpha=5.0, rng=0)
    s_stats = partition_statistics(labels, skewed, 10)
    m_stats = partition_statistics(labels, mild, 10)
    assert s_stats.mean_effective_classes < m_stats.mean_effective_classes


def test_dirichlet_deterministic_given_seed():
    labels = make_labels()
    a = dirichlet_partition(labels, 5, alpha=0.1, rng=3)
    b = dirichlet_partition(labels, 5, alpha=0.1, rng=3)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_dirichlet_extreme_alpha_rebalances():
    """Very small alpha still yields a valid min_size partition."""
    labels = make_labels(n=120, classes=4)
    shards = dirichlet_partition(labels, 12, alpha=0.01, rng=0, min_size=2)
    assert_valid_partition(shards, 120)
    assert all(len(s) >= 2 for s in shards)


def _dirichlet_build_every_draw(
    labels, num_clients, alpha, rng, min_size=2, max_tries=100
):
    """Reference: the redraw loop that concatenated every draw's shards just
    to read their sizes. Returns ``(shards, rebalanced)``."""
    rng = np.random.default_rng(rng)
    classes = np.unique(labels)
    result = None
    for _attempt in range(max_tries):
        shards = [[] for _ in range(num_clients)]
        for cls in classes:
            idx = np.where(labels == cls)[0]
            rng.shuffle(idx)
            props = rng.dirichlet(np.full(num_clients, alpha))
            cuts = (np.cumsum(props)[:-1] * len(idx)).astype(int)
            for client, part in enumerate(np.split(idx, cuts)):
                shards[client].append(part)
        sizes = [sum(len(p) for p in parts) for parts in shards]
        result = [np.concatenate(parts) for parts in shards]
        if min(sizes) >= min_size:
            return [np.sort(shard) for shard in result], False
    pool = [list(shard) for shard in result]
    while True:
        sizes = np.array([len(shard) for shard in pool])
        needy = int(np.argmin(sizes))
        if sizes[needy] >= min_size:
            break
        donor = int(np.argmax(sizes))
        take = rng.integers(0, len(pool[donor]))
        pool[needy].append(pool[donor].pop(int(take)))
    return [np.sort(np.asarray(s, dtype=np.int64)) for s in pool], True


@pytest.mark.parametrize(
    "num_clients, alpha, rebalanced",
    [(10, 0.5, False), (100, 0.1, True)],
    ids=["accepted-draw", "rebalanced-last-draw"],
)
def test_dirichlet_sizes_first_redraws_match_the_reference(
    num_clients, alpha, rebalanced
):
    """Deciding acceptance from cut-point sizes draws the same RNG stream
    and keeps the same shards as building every draw's shards."""
    labels = make_labels(n=3000, classes=10)
    expected, took_rebalance = _dirichlet_build_every_draw(
        labels, num_clients, alpha, rng=7
    )
    assert took_rebalance is rebalanced
    shards = dirichlet_partition(labels, num_clients, alpha, rng=7)
    assert len(shards) == num_clients
    for got, want in zip(shards, expected):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("seed", range(12))
def test_dirichlet_acceptance_at_exactly_min_size(seed):
    """A draw whose smallest shard is exactly ``min_size`` is accepted and
    one short by a sample is redrawn, whichever client is smallest."""
    labels = make_labels(n=60, classes=3, seed=seed)
    first_draw, _ = _dirichlet_build_every_draw(labels, 3, 1.0, seed, min_size=0)
    smallest = min(len(shard) for shard in first_draw)
    for min_size in (smallest, smallest + 1):
        expected, _ = _dirichlet_build_every_draw(
            labels, 3, 1.0, seed, min_size=min_size
        )
        shards = dirichlet_partition(labels, 3, 1.0, seed, min_size=min_size)
        for got, want in zip(shards, expected):
            assert np.array_equal(got, want), min_size


def test_dirichlet_validation():
    labels = make_labels()
    with pytest.raises(ValueError):
        dirichlet_partition(labels, 5, alpha=0.0, rng=0)
    with pytest.raises(ValueError):
        dirichlet_partition(labels, 0, alpha=0.1, rng=0)
    with pytest.raises(ValueError):
        dirichlet_partition(make_labels(5), 5, alpha=0.1, rng=0, min_size=2)
    with pytest.raises(ValueError):
        dirichlet_partition(labels, 5, alpha=0.1, rng=0, max_tries=0)


def test_partition_statistics_counts():
    labels = np.array([0, 0, 1, 1, 2, 2])
    shards = [np.array([0, 2]), np.array([1, 3]), np.array([4, 5])]
    stats = partition_statistics(labels, shards, 3)
    assert np.array_equal(stats.sizes, [2, 2, 2])
    assert stats.class_counts[2, 2] == 2
    assert stats.class_counts[0, 0] == 1
    # client 2 holds one class -> effective classes 1; others hold two
    assert 1.0 < stats.mean_effective_classes < 2.0


@settings(deadline=None, max_examples=25)
@given(
    st.integers(2, 8),
    st.floats(0.05, 10.0),
    st.integers(0, 2**31 - 1),
)
def test_dirichlet_property_valid_partition(clients, alpha, seed):
    labels = make_labels(n=400, classes=5, seed=1)
    shards = dirichlet_partition(labels, clients, alpha=alpha, rng=seed)
    assert_valid_partition(shards, 400)
    assert all(len(s) >= 2 for s in shards)
