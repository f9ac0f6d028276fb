"""Partial model fine-tuning: the ϕ/θ split (paper §III-B to §III-D).

A pretrained source-domain model is adapted to the federated target task by
swapping its classifier head and freezing everything below the chosen
fine-tuning level. The frozen part ϕ is shared verbatim by server and
clients; only θ is trained, uploaded and aggregated.
"""

from __future__ import annotations

import numpy as np

from repro.nn.segmented import SegmentedModel


def adapt_to_task(
    model: SegmentedModel, num_classes: int, rng: np.random.Generator
) -> SegmentedModel:
    """Replace the classifier head for a ``num_classes`` downstream task.

    The body keeps its pretrained weights; the fresh head is what federated
    fine-tuning will learn. Done in place and returned for chaining.
    """
    model.head = model.new_head(num_classes, rng)
    if hasattr(model, "num_classes"):
        model.num_classes = num_classes
    return model


def prepare_partial_model(
    model: SegmentedModel,
    level: str = "moderate",
) -> SegmentedModel:
    """Apply a fine-tuning level and set mixed train/eval modes.

    Levels (paper Fig. 10a): ``full`` trains everything; ``large`` freezes
    the stem and low group; ``moderate`` — the paper's default, "fine-tune
    from layer 3" — freezes stem/low/mid; ``classifier`` trains only the
    head. Frozen segments are put in eval mode so their BatchNorm layers
    keep the pretrained statistics.
    """
    model.apply_fine_tune_level(level)
    model.set_partial_train_mode()
    return model

