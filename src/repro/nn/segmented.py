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

from repro.nn.module import Module, structure_epoch

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

#: Per live model: its structure memo (see :meth:`SegmentedModel.
#: structure`). Weakly keyed, so a memo never keeps a model alive and —
#: living outside the model — is never pickled to process workers.
_STRUCTURES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _hash_phi_content(type_name: str, segments: list) -> tuple[str, ...]:
    """The chained BLAKE2b prefix fingerprints of a model's frozen content,
    one per frozen segment: ``segments`` lists ``(segment name, tensors)``
    in chain order, ``tensors`` the ``(name, dtype, shape, bytes)`` of the
    segment's parameters, then its buffers, each sorted by dotted name."""
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


class _Structure:
    """What a model's split, ϕ digest and head derive from, taken once.

    ``params`` are the model's parameters in ``iter_parameters`` order,
    ``datas`` and ``flags`` the ``data`` objects and ``requires_grad``
    flags they held then; ``split`` is :meth:`SegmentedModel.frozen_split_index`'s answer;
    ``phi`` lists the frozen tensors as the digest reads them, ``(segment
    name, [(tensor name, dtype, shape), ...])`` per frozen segment, and
    ``arrays`` their live arrays in that order; ``phi_bytes`` and
    ``chain`` are the bytes the prefix chain was last hashed from and that
    chain; ``head`` is :func:`repro.nn.fused.head_ops`'s answer once asked
    (None before); ``flops`` maps an input shape to
    :func:`repro.nn.profiling.round_flops_per_sample`'s answer for it.
    """

    __slots__ = (
        "epoch", "params", "datas", "flags", "split", "phi", "arrays",
        "phi_bytes", "chain", "head", "flops",
    )

    def __init__(self, model: "SegmentedModel"):
        self.epoch = structure_epoch()
        self.params = tuple(model.iter_parameters())
        self.datas = tuple(param.data for param in self.params)
        self.flags = tuple(param.requires_grad for param in self.params)
        segments = model.segments()
        split = 0
        for _, segment in segments:
            if segment.has_trainable():
                break
            split += 1
        else:
            split = 0  # nothing trainable: no ϕ/θ split
        self.split = split
        self.phi = []
        self.arrays = []
        for name, segment in segments[:split]:
            arrays = [(p_name, param.data) for p_name, param in sorted(
                segment.named_parameters(name)
            )]
            arrays += sorted(segment.named_buffers(name))
            self.phi.append((name, [
                (a_name, str(array.dtype), array.shape)
                for a_name, array in arrays
            ]))
            self.arrays += [array for _, array in arrays]
        self.phi_bytes = None
        self.chain = ()
        self.head = None
        self.flops = {}

    def current(self) -> bool:
        """Whether no structural edit happened since this was taken: the
        epoch has not moved, and every parameter holds the ``data`` object
        and ``requires_grad`` flag it held then."""
        if self.epoch != structure_epoch():
            return False
        for param, data, flag in zip(self.params, self.datas, self.flags):
            if param.data is not data or param.requires_grad != flag:
                return False
        return True


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
        return self.structure().split

    def structure(self) -> _Structure:
        """The model's structure memo: its split, its ϕ tensors and, once
        asked, its head (:func:`repro.nn.fused.head_ops`) and its FLOPs
        walk per input shape (:func:`repro.nn.profiling.
        round_flops_per_sample`).

        Taken once and reused while it is :meth:`~_Structure.current`: a
        structural edit (binding a parameter or module, registering a
        buffer, rebinding a parameter's ``data``, flipping its
        ``requires_grad``) makes the next call take a fresh one. Edits to
        ϕ's values in place keep the memo; :meth:`phi_prefix_chain`
        compares ϕ's bytes itself.
        """
        entry = _STRUCTURES.get(self)
        if entry is None or not entry.current():
            entry = _STRUCTURES[self] = _Structure(self)
        return entry

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

        Memoized per live model: the :meth:`structure` memo holds the
        frozen tensors, so a call gathers only ϕ's bytes and re-hashes when
        they differ from the bytes the memo's chain was hashed from. A hit
        returns exactly what a recomputation would, and any mutation of
        ϕ, in place or by rebinding, still changes the result. Bytes, not
        values, are compared because the digest hashes bytes: ``0.0`` and
        ``-0.0`` are equal values with different fingerprints.
        """
        entry = self.structure()
        if not entry.phi:
            return []
        raw = [array.tobytes() for array in entry.arrays]
        if raw != entry.phi_bytes:
            chunks = iter(raw)
            entry.chain = _hash_phi_content(type(self).__name__, [
                (name, [
                    (t_name, dtype, shape, next(chunks))
                    for t_name, dtype, shape in tensors
                ])
                for name, tensors in entry.phi
            ])
            entry.phi_bytes = raw
        return list(entry.chain)

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
