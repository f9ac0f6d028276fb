"""Loss functions."""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F


class CrossEntropyLoss:
    """Softmax cross-entropy over logits with mean reduction.

    ``forward`` returns the scalar loss; ``backward`` returns the gradient
    with respect to the logits, which is then fed to the model's backward
    pass.
    """

    def __init__(self):
        self._cache: tuple | None = None

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> float:
        if logits.ndim != 2:
            raise ValueError(f"expected 2-D logits, got shape {logits.shape}")
        labels = np.asarray(labels)
        if labels.shape != (logits.shape[0],):
            raise ValueError("labels must be 1-D and match the batch size")
        n, c = logits.shape
        target = F.one_hot(labels, c)
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
