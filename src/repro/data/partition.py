"""Client data partitioning: Dirichlet non-IID and IID.

The paper follows the standard recipe (Hsu et al., 2019): for every class,
draw a proportion vector over clients from ``Dir(alpha)`` and split that
class's samples accordingly. Small ``alpha`` → strongly skewed shards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.utils import make_rng


def iid_partition(
    labels: np.ndarray, num_clients: int, rng: np.random.Generator | int
) -> list[np.ndarray]:
    """Shuffle and split indices evenly across ``num_clients``."""
    if num_clients <= 0:
        raise ValueError("num_clients must be positive")
    labels = np.asarray(labels)
    if len(labels) < num_clients:
        raise ValueError("fewer samples than clients")
    rng = make_rng(rng)
    order = rng.permutation(len(labels))
    return [np.sort(part) for part in np.array_split(order, num_clients)]


def dirichlet_partition(
    labels: np.ndarray,
    num_clients: int,
    alpha: float,
    rng: np.random.Generator | int,
    min_size: int = 2,
    max_tries: int = 100,
) -> list[np.ndarray]:
    """Dirichlet non-IID split of sample indices by label.

    Redraws until every client holds at least ``min_size`` samples, which is
    the standard guard against degenerate shards at very small ``alpha``.
    """
    if num_clients <= 0:
        raise ValueError("num_clients must be positive")
    if not (alpha > 0 and math.isfinite(alpha)):  # NaN fails it too
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if max_tries <= 0:
        raise ValueError(f"max_tries must be positive, got {max_tries}")
    labels = np.asarray(labels)
    if len(labels) < num_clients * min_size:
        raise ValueError("not enough samples to give every client min_size")
    rng = make_rng(rng)
    classes = np.unique(labels)
    draw: list[tuple[np.ndarray, np.ndarray]] = []
    for _attempt in range(max_tries):
        # Only the shard *sizes* decide acceptance, and they follow from the
        # cut points alone; shards are concatenated once, for the draw that
        # is kept (accepted, or the last one, which gets rebalanced).
        draw = []
        sizes = np.zeros(num_clients, dtype=np.int64)
        for cls in classes:
            idx = np.where(labels == cls)[0]
            rng.shuffle(idx)
            props = rng.dirichlet(np.full(num_clients, alpha))
            # Cumulative proportions → split points into this class's indices.
            cuts = (np.cumsum(props)[:-1] * len(idx)).astype(int)
            draw.append((idx, cuts))
            sizes += np.diff(np.concatenate(([0], cuts, [len(idx)])))
        if sizes.min() >= min_size:
            return [np.sort(shard) for shard in _gather_shards(draw, num_clients)]
    result = _gather_shards(draw, num_clients)
    # Extreme alpha can make min_size unreachable by redrawing (a class's
    # whole mass lands on one client); rebalance the last draw instead by
    # moving samples from the largest shards to the starved ones.
    pool = [list(shard) for shard in result]
    while True:
        sizes = np.array([len(shard) for shard in pool])
        needy = int(np.argmin(sizes))
        if sizes[needy] >= min_size:
            break
        donor = int(np.argmax(sizes))
        if sizes[donor] <= min_size:
            raise RuntimeError(
                "not enough samples to rebalance the partition to min_size"
            )
        take = rng.integers(0, len(pool[donor]))
        pool[needy].append(pool[donor].pop(int(take)))
    return [np.sort(np.asarray(shard, dtype=np.int64)) for shard in pool]


def _gather_shards(
    draw: list[tuple[np.ndarray, np.ndarray]], num_clients: int
) -> list[np.ndarray]:
    """Concatenate each client's parts of every class's shuffled indices."""
    shards: list[list[np.ndarray]] = [[] for _ in range(num_clients)]
    for idx, cuts in draw:
        for client, part in enumerate(np.split(idx, cuts)):
            shards[client].append(part)
    return [
        np.concatenate(parts) if parts else np.empty(0, np.int64)
        for parts in shards
    ]


@dataclass(frozen=True)
class PartitionStatistics:
    """Summary of how heterogeneous a partition is."""

    sizes: np.ndarray
    class_counts: np.ndarray  # (clients, classes)
    mean_effective_classes: float  # exp(entropy) of per-client label dist

    def __str__(self) -> str:  # pragma: no cover - convenience formatting
        return (
            f"PartitionStatistics(clients={len(self.sizes)}, "
            f"sizes=[{self.sizes.min()}..{self.sizes.max()}], "
            f"mean_effective_classes={self.mean_effective_classes:.2f})"
        )


def partition_statistics(
    labels: np.ndarray, shards: list[np.ndarray], num_classes: int
) -> PartitionStatistics:
    """Compute per-client sizes, class histograms and effective class count."""
    labels = np.asarray(labels)
    counts = np.zeros((len(shards), num_classes), dtype=np.int64)
    for i, shard in enumerate(shards):
        values, freq = np.unique(labels[shard], return_counts=True)
        counts[i, values] = freq
    sizes = counts.sum(axis=1)
    probs = counts / np.clip(sizes[:, None], 1, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = -np.nansum(np.where(probs > 0, probs * np.log(probs), 0.0), axis=1)
    return PartitionStatistics(
        sizes=sizes,
        class_counts=counts,
        mean_effective_classes=float(np.mean(np.exp(ent))),
    )
