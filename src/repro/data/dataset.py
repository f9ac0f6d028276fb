"""Dataset containers and a minimal batch loader."""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np


class Dataset:
    """Abstract indexed dataset of ``(x, y)`` pairs backed by arrays."""

    def __len__(self) -> int:
        raise NotImplementedError

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Return the full ``(inputs, labels)`` arrays (views where possible)."""
        raise NotImplementedError

    @property
    def labels(self) -> np.ndarray:
        return self.arrays()[1]

    @property
    def input_shape(self) -> tuple:
        """Shape of one input sample, ``arrays()[0].shape[1:]``."""
        return tuple(self.arrays()[0].shape[1:])

    def subset(self, indices: Sequence[int]) -> "Subset":
        return Subset(self, np.asarray(indices, dtype=np.int64))


class ArrayDataset(Dataset):
    """In-memory dataset over a pair of aligned arrays."""

    def __init__(self, inputs: np.ndarray, labels: np.ndarray):
        inputs = np.asarray(inputs, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if len(inputs) != len(labels):
            raise ValueError(
                f"inputs ({len(inputs)}) and labels ({len(labels)}) disagree"
            )
        self._inputs = inputs
        self._labels = labels

    def __len__(self) -> int:
        return len(self._labels)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self._inputs, self._labels

    @property
    def labels(self) -> np.ndarray:
        return self._labels


class Subset(Dataset):
    """A view of a parent dataset restricted to given indices."""

    def __init__(self, parent: Dataset, indices: np.ndarray):
        indices = np.asarray(indices, dtype=np.int64)
        n = len(parent)
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise IndexError("subset indices out of range")
        self.parent = parent
        self.indices = indices

    def __len__(self) -> int:
        return len(self.indices)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        x, y = self.parent.arrays()
        return x[self.indices], y[self.indices]

    @property
    def labels(self) -> np.ndarray:
        """Label gather without materialising the input rows.

        ``arrays()[1]`` would copy the (much larger) input side too; label
        consumers — the fused solver hands just labels to its plan — skip
        that entirely.
        """
        return self.parent.labels[self.indices]

    @property
    def input_shape(self) -> tuple:
        """The parent's sample shape, without gathering any rows."""
        return self.parent.input_shape


class DataLoader:
    """Mini-batch iterator with optional seeded shuffling.

    Reshuffles on every iteration pass when ``shuffle`` is set, drawing from
    its own generator so epochs are reproducible.
    """

    def __init__(
        self,
        dataset: Dataset,
        batch_size: int,
        shuffle: bool = False,
        rng: np.random.Generator | None = None,
    ):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if shuffle and rng is None:
            raise ValueError("shuffle=True requires an explicit rng")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.rng = rng

    def __len__(self) -> int:
        return (len(self.dataset) + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        x, y = self.dataset.arrays()
        n = len(y)
        order = np.arange(n)
        if self.shuffle:
            order = self.rng.permutation(n)
        for start in range(0, n, self.batch_size):
            idx = order[start : start + self.batch_size]
            yield x[idx], y[idx]
