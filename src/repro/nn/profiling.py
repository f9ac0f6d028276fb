"""FLOPs accounting used by the federated timing model.

The paper measures client training *time*; we simulate it from exact FLOPs
counts (see DESIGN.md, substitutions). The key structural facts preserved:

- a forward pass traverses the whole model (frozen layers included);
- the backward pass only traverses the segments at or above the lowest
  trainable one, which is where partial fine-tuning saves compute;
- entropy/random data selection costs one forward pass over all local data.
"""

from __future__ import annotations

from repro.nn.segmented import SegmentedModel

#: Conventional backward/forward cost ratio for SGD training.
BACKWARD_FORWARD_RATIO = 2.0


def forward_flops_per_sample(model: SegmentedModel, in_shape: tuple) -> int:
    """Exact forward FLOPs for one sample through the whole model."""
    flops, _ = model.flops_per_sample(in_shape)
    return flops


def training_flops_per_sample(model: SegmentedModel, in_shape: tuple) -> int:
    """FLOPs for one training sample: full forward + truncated backward.

    The backward pass costs ``BACKWARD_FORWARD_RATIO`` × the forward FLOPs of
    every segment from the lowest trainable one upward; segments below the
    frontier are never back-propagated through (``SegmentedModel.backward``).
    """
    return round_flops_per_sample(model, in_shape)[0]


def round_flops_per_sample(
    model: SegmentedModel, in_shape: tuple
) -> tuple[int, int]:
    """``(training, selection)`` FLOPs for one sample, from one segment walk.

    Training is :func:`training_flops_per_sample`'s count; selection is one
    forward pass (:func:`selection_flops_per_sample`), which is the forward
    total the training count already sums — so pricing a round needs the
    per-segment FLOPs once, not twice.
    """
    total_forward = 0
    backward = 0
    frontier_seen = False
    shape = in_shape
    for _, segment in model.segments():
        flops, shape = segment.flops_per_sample(shape)
        total_forward += flops
        frontier_seen = frontier_seen or segment.has_trainable()
        if frontier_seen:
            backward += flops
    if not frontier_seen:
        return total_forward, total_forward
    training = int(total_forward + BACKWARD_FORWARD_RATIO * backward)
    return training, total_forward


def selection_flops_per_sample(model: SegmentedModel, in_shape: tuple) -> int:
    """FLOPs to score one sample for data selection: a single forward pass."""
    return forward_flops_per_sample(model, in_shape)
