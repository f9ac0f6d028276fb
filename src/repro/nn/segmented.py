"""Segmented models: the structural hook for partial fine-tuning.

The paper splits a model into a frozen feature extractor ϕ and a trainable
upper part θ, selecting the split point by named layer group ("fine-tune
from layer 3"). :class:`SegmentedModel` formalises that: a model is an
ordered chain of named segments ``stem → low → mid → up → head``, and
freezing/truncated-backward/activation-collection all key off segment names.
"""

from __future__ import annotations

import hashlib
import weakref

import numpy as np

from repro.nn.module import Module

#: Segment order shared by every model in this project.
SEGMENT_ORDER = ("stem", "low", "mid", "up", "head")

#: Paper fine-tuning levels → the lowest segment that remains trainable.
#: "full" trains everything; "large" freezes stem+low; "moderate" (the paper
#: default, "fine-tune from layer 3") freezes stem+low+mid; "classifier"
#: trains only the head.
FINE_TUNE_LEVELS = {
    "full": "stem",
    "large": "mid",
    "moderate": "up",
    "classifier": "head",
}

#: Per live model: the frozen content its ϕ prefix chain was last hashed
#: from, and that chain (see :meth:`SegmentedModel.phi_prefix_chain`).
#: Weakly keyed, so the memo never keeps a model alive and — living
#: outside the model — is never pickled to process workers.
_PHI_MEMO: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _hash_phi_content(type_name: str, segments: list) -> tuple[str, ...]:
    """The chained BLAKE2b prefix fingerprints of a model's frozen content
    (:meth:`SegmentedModel._phi_content`), one per frozen segment."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(type_name.encode())
    chain = []
    for name, tensors in segments:
        digest.update(name.encode())
        for t_name, dtype, shape, raw in tensors:
            digest.update(t_name.encode())
            digest.update(dtype.encode())
            digest.update(repr(shape).encode())
            digest.update(raw)
        chain.append(digest.copy().hexdigest())
    return tuple(chain)


class SegmentedModel(Module):
    """A model made of the ordered segments ``stem, low, mid, up, head``.

    Subclasses assign the five segments as attributes (each a
    :class:`Module`); this base class provides forward/backward with
    backward truncation below the trainable frontier, activation collection
    for CKA, and level-based freezing.
    """

    def segments(self) -> list[tuple[str, Module]]:
        return [(name, getattr(self, name)) for name in SEGMENT_ORDER]

    # -- compute -----------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        for _, segment in self.segments():
            x = segment(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray | None:
        """Backward pass that stops below the lowest trainable segment."""
        segs = self.segments()
        lowest = None
        for i, (_, segment) in enumerate(segs):
            if segment.has_trainable():
                lowest = i
                break
        grad = grad_out
        for i in range(len(segs) - 1, -1, -1):
            if lowest is not None and i < lowest:
                return None
            grad = segs[i][1].backward(grad)
        return grad

    def forward_collect(self, x: np.ndarray) -> dict[str, np.ndarray]:
        """Run forward, returning ``(n, features)`` activations per segment.

        Spatial activations are globally average-pooled; these matrices feed
        the CKA similarity analysis of Figs. 2–4.
        """
        collected: dict[str, np.ndarray] = {}
        for name, segment in self.segments():
            x = segment(x)
            feat = x.mean(axis=(2, 3)) if x.ndim == 4 else x
            collected[name] = feat
        return collected

    # -- frozen-prefix (ϕ) structure ----------------------------------------
    def frozen_split_index(self) -> int:
        """Number of leading segments with no trainable parameters.

        Segments ``[0, split)`` form the frozen feature extractor ϕ whose
        eval-mode output is deterministic per sample; segments ``[split, …)``
        are the trainable part θ. Returns 0 when the first segment is
        already trainable — or when *nothing* is trainable, since a model
        with no θ has no meaningful ϕ/θ split to cache against.
        """
        segs = self.segments()
        split = 0
        for _, segment in segs:
            if segment.has_trainable():
                return split
            split += 1
        return 0

    def forward_features(self, x: np.ndarray) -> np.ndarray:
        """Forward through the frozen prefix ϕ only (segments below θ)."""
        split = self.frozen_split_index()
        for _, segment in self.segments()[:split]:
            x = segment(x)
        return x

    def forward_head(self, features: np.ndarray) -> np.ndarray:
        """Forward from the trainable frontier given ϕ's output.

        Populates the forward caches of exactly the segments
        :meth:`backward` will visit, so a head-only forward/backward pair
        works without ever touching ϕ.
        """
        split = self.frozen_split_index()
        for _, segment in self.segments()[split:]:
            features = segment(features)
        return features

    def phi_fingerprint(self) -> str | None:
        """Content hash of the frozen prefix ϕ, or None without one.

        Keyed on the split structure (which segments are frozen) plus every
        frozen parameter's and buffer's name, dtype, shape and bytes — any
        change to ϕ (different pretrained weights, a different fine-tune
        level) yields a different fingerprint, which is what invalidates
        cached ϕ(x) feature arrays (see :mod:`repro.fl.features`).
        """
        chain = self.phi_prefix_chain()
        return chain[-1] if chain else None

    def phi_prefix_chain(self) -> list[str]:
        """Fingerprints of every frozen prefix ``segments[0:k)``, k = 1..split.

        The digest is chained segment by segment, so element ``k-1`` is the
        content hash a model whose frozen prefix were exactly the first
        ``k`` segments (with these same weights) would report as its
        :meth:`phi_fingerprint` — the last element *is* this model's
        fingerprint. Two models sharing pretrained weights but split at
        different depths therefore produce chains where one is a prefix of
        the other, which is what lets the feature cache derive the deeper
        split's ϕ(x) from the shallower split's cached arrays instead of
        re-running ϕ from the raw inputs (prefix-chain keying, see
        :mod:`repro.fl.features`). Empty without a frozen prefix.

        Memoized per live model on ϕ's exact content: the call collects
        everything the digest consumes (type name, split, segment and
        tensor names, dtypes, shapes and the raw bytes of every frozen
        parameter and buffer) and re-hashes only when that differs from
        what this model's chain was last hashed from — so a hit returns
        exactly what a recomputation would, and any mutation of ϕ, in
        place or by rebinding, still changes the result. Bytes, not
        values, are compared because the digest hashes bytes: ``0.0`` and
        ``-0.0`` are equal values with different fingerprints. A hit costs
        one copy and one comparison of ϕ's bytes instead of a BLAKE2b
        pass over them.
        """
        segments = self._phi_content()
        if not segments:
            return []
        content = (type(self).__name__, segments)
        memo = _PHI_MEMO.get(self)
        if memo is None or memo[0] != content:
            memo = (content, _hash_phi_content(*content))
            _PHI_MEMO[self] = memo
        return list(memo[1])

    def _phi_content(self) -> list:
        """``(segment name, tensors)`` per frozen segment, in chain order;
        ``tensors`` lists ``(name, dtype, shape, bytes)`` of the segment's
        parameters, then its buffers, each sorted by dotted name."""
        split = self.frozen_split_index()
        content = []
        for name, segment in self.segments()[:split]:
            arrays = [(p_name, param.data) for p_name, param in sorted(
                segment.named_parameters(name)
            )]
            arrays += sorted(segment.named_buffers(name))
            content.append((name, [
                (a_name, str(array.dtype), array.shape, array.tobytes())
                for a_name, array in arrays
            ]))
        return content

    # -- partial fine-tuning --------------------------------------------------
    def apply_fine_tune_level(self, level: str) -> "SegmentedModel":
        """Freeze every segment below ``level``'s trainable frontier."""
        if level not in FINE_TUNE_LEVELS:
            raise ValueError(
                f"unknown fine-tune level {level!r}; "
                f"expected one of {sorted(FINE_TUNE_LEVELS)}"
            )
        frontier = SEGMENT_ORDER.index(FINE_TUNE_LEVELS[level])
        for i, (_, segment) in enumerate(self.segments()):
            if i < frontier:
                segment.freeze()
            else:
                segment.unfreeze()
        return self

    def set_partial_train_mode(self) -> "SegmentedModel":
        """Train mode for trainable segments, eval mode for frozen ones.

        Keeps frozen BatchNorm layers on their (pretrained) running
        statistics during local fine-tuning — the standard frozen-feature-
        extractor convention — while trainable segments keep batch
        statistics.
        """
        for _, segment in self.segments():
            if segment.has_trainable():
                segment.train()
            else:
                segment.eval()
        return self

    def flops_per_sample(self, in_shape: tuple) -> tuple[int, tuple]:
        total = 0
        shape = in_shape
        for _, segment in self.segments():
            flops, shape = segment.flops_per_sample(shape)
            total += flops
        return total, shape
