"""Multi-layer perceptron with the standard segment structure.

The cheapest segmented model; used pervasively in tests and smoke-scale
benchmarks where the WRN would dominate runtime without exercising any
additional FL logic.
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import ReLU
from repro.nn.flatten import Flatten
from repro.nn.linear import Linear
from repro.nn.module import Sequential
from repro.nn.segmented import SegmentedModel


class MLP(SegmentedModel):
    """Three hidden blocks mapped onto segments ``low``/``mid``/``up``.

    ``in_features`` is the flattened input size; image tensors are flattened
    by the ``stem`` segment.
    """

    def __init__(
        self,
        in_features: int,
        hidden: tuple[int, int, int],
        num_classes: int,
        rng: np.random.Generator,
    ):
        super().__init__()
        if len(hidden) != 3:
            raise ValueError("MLP requires exactly three hidden sizes (low/mid/up)")
        if num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        self.in_features = in_features
        self.num_classes = num_classes
        self.stem = Sequential(Flatten())
        self.low = Sequential(Linear(in_features, hidden[0], rng), ReLU())
        self.mid = Sequential(Linear(hidden[0], hidden[1], rng), ReLU())
        self.up = Sequential(Linear(hidden[1], hidden[2], rng), ReLU())
        self.head = Sequential(Linear(hidden[2], num_classes, rng))

    def new_head(self, num_classes: int, rng: np.random.Generator) -> Sequential:
        """Fresh classifier head for ``num_classes`` (source → target swap)."""
        in_features = self.head.layers[-1].in_features
        return Sequential(Linear(in_features, num_classes, rng))
