"""FLOPs accounting used by the federated timing model.

The paper measures client training *time*; we simulate it from exact FLOPs
counts (see DESIGN.md, substitutions). The key structural facts preserved:

- a forward pass traverses the whole model (frozen layers included);
- the backward pass only traverses the segments at or above the lowest
  trainable one, which is where partial fine-tuning saves compute;
- entropy/random data selection costs one forward pass over all local data.

The forward count alone is :meth:`SegmentedModel.flops_per_sample`.
"""

from __future__ import annotations

from repro.nn.segmented import SegmentedModel

#: Conventional backward/forward cost ratio for SGD training.
BACKWARD_FORWARD_RATIO = 2.0


def round_flops_per_sample(
    model: SegmentedModel, in_shape: tuple
) -> tuple[int, int]:
    """``(training, selection)`` FLOPs for one sample.

    Training is a full forward plus a backward of
    ``BACKWARD_FORWARD_RATIO`` × the forward FLOPs of every segment from
    the lowest trainable one upward (segments below it are never
    back-propagated through, see ``SegmentedModel.backward``). Selection
    is one forward pass, the forward total the training count already
    sums. The walk that counts both is kept in the model's structure memo
    (:meth:`SegmentedModel.structure`), once per input shape: a re-freeze
    or any other structural edit drops it with the rest of the memo.
    """
    walks = model.structure().flops
    flops = walks.get(in_shape)
    if flops is None:
        flops = walks[in_shape] = _walk(model, in_shape)
    return flops


def _walk(model: SegmentedModel, in_shape: tuple) -> tuple[int, int]:
    """One segment walk: :func:`round_flops_per_sample`'s answer, uncached."""
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
