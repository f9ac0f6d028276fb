"""Model evaluation helpers."""

from __future__ import annotations

from repro.data.dataset import Dataset
from repro.fl.selection import batched_logits
from repro.nn import functional as F
from repro.nn.module import Module


def evaluate_accuracy(
    model: Module, dataset: Dataset, batch_size: int = 512
) -> float:
    """Top-1 accuracy of ``model`` on ``dataset`` (eval mode, batched)."""
    x, y = dataset.arrays()
    logits = batched_logits(model, x, batch_size)
    return F.accuracy(logits, y)

