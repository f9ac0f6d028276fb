"""Loss functions."""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F


class CrossEntropyLoss:
    """Softmax cross-entropy over logits with mean reduction.

    ``forward`` returns the scalar loss; ``backward`` returns the gradient
    with respect to the logits, which is then fed to the model's backward
    pass. Optional label smoothing is provided for the centralised
    pretraining recipes.
    """

    def __init__(self, label_smoothing: float = 0.0):
        if not 0.0 <= label_smoothing < 1.0:
            raise ValueError("label_smoothing must be in [0, 1)")
        self.label_smoothing = label_smoothing
        self._cache: tuple | None = None

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> float:
        if logits.ndim != 2:
            raise ValueError(f"expected 2-D logits, got shape {logits.shape}")
        labels = np.asarray(labels)
        if labels.shape != (logits.shape[0],):
            raise ValueError("labels must be 1-D and match the batch size")
        n, c = logits.shape
        target = F.one_hot(labels, c)
        if self.label_smoothing:
            target = (1 - self.label_smoothing) * target + self.label_smoothing / c
        logp = F.log_softmax(logits)
        self._cache = (np.exp(logp), target, n)
        return float(-(target * logp).sum() / n)

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        probs, target, n = self._cache
        return (probs - target) / n

    def __call__(self, logits: np.ndarray, labels: np.ndarray) -> float:
        return self.forward(logits, labels)
