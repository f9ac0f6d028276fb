"""Frozen-feature cache: materialised ϕ(x) for the partial-training split.

The paper's model splits into a frozen pretrained backbone ϕ and a
trainable head θ; only θ is ever updated or communicated, yet the baseline
hot path pays a full forward through ϕ on every training batch, every
selector scoring pass and every server evaluation — by far the dominant
FLOP cost. Because ``set_partial_train_mode`` runs ϕ in eval mode, ϕ(x) is
deterministic per sample: it can be computed once per distinct data shard
(and once for the test set) and reused for the rest of the campaign.

Bitwise-identity contract
-------------------------
The cached path must reproduce the full-forward path exactly: same
EventLog, same accuracies, same θ trajectory, under every execution
backend. That holds because

- ϕ runs in eval mode everywhere (selection scores the received model in
  eval mode; training freezes ϕ in eval mode; evaluation is eval mode), so
  dropout in ϕ is identity and BatchNorm in ϕ uses its frozen running
  statistics — per-sample deterministic;
- every layer's forward is *row-deterministic*: a sample's output does not
  depend on which other samples share its batch. Elementwise ops, pooling
  and eval-mode norms are row-deterministic trivially; convolution
  contracts per sample; ``Linear`` canonicalises the one BLAS edge (1-row
  gemv vs gemm) so a cached row equals the row any training minibatch
  would compute;
- consumers keep their exact batching: the head sees the same minibatch
  compositions (the DataLoader draws the same permutations from the same
  RNG stream), selection chunks features at the same batch size it chunked
  raw inputs, and pooled evaluation shards are aligned to the evaluation
  batch size.

``tests/test_feature_cache.py`` enforces the contract end to end; see
DESIGN.md ("Frozen-feature cache runtime").

Cache keying
------------
Entries are keyed by *shard identity* × *ϕ fingerprint*
(:meth:`~repro.nn.segmented.SegmentedModel.phi_fingerprint`): a client
carrying a campaign-stable ``shard_key`` shares one entry across every run
of a campaign, while anonymous clients are keyed weakly by object (the
entry dies with the client). A different pretrained ϕ or a different
fine-tune level changes the fingerprint and builds a fresh entry — stale
features can never be consumed.

Fingerprints chain per segment
(:meth:`~repro.nn.segmented.SegmentedModel.phi_prefix_chain`), so when a
requested split's fingerprint misses but a shallower split of the same
frozen weights is cached for the shard, the new features are *derived* by
running only the segments between the two splits over the cached arrays
(:func:`derive_features`) instead of re-running ϕ from the raw inputs.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING

import numpy as np

from repro.nn.segmented import SegmentedModel
from repro.obs import tracing
from repro.obs.metrics import CounterGroup

if TYPE_CHECKING:  # pragma: no cover - typing only (repro.store imports
    # the engine package, whose backends import this module)
    from repro.store import ArtifactStore

#: batch size used when materialising ϕ(x); any value is bitwise-equivalent
#: under the row-determinism invariant, this one just bounds peak memory.
FEATURE_BUILD_BATCH = 512


def compute_features(
    model: SegmentedModel, x: np.ndarray, batch_size: int = FEATURE_BUILD_BATCH
) -> np.ndarray:
    """Materialise ϕ(x) in eval mode, restoring every module's mode flag.

    The per-module train/eval flags are snapshotted and restored exactly
    (not just the root's), so a build can run between two training phases
    without observable mode drift.
    """
    if model.frozen_split_index() == 0:
        raise ValueError("model has no frozen prefix to cache features for")
    if len(x) == 0:
        raise ValueError("cannot build features for an empty dataset")
    flags = [(module, module.training) for _, module in model.named_modules()]
    model.eval()
    try:
        chunks = [
            model.forward_features(x[i : i + batch_size])
            for i in range(0, len(x), batch_size)
        ]
        return np.concatenate(chunks, axis=0)
    finally:
        for module, flag in flags:
            object.__setattr__(module, "training", flag)


def derive_features(
    model: SegmentedModel,
    base: np.ndarray,
    from_split: int,
    batch_size: int = FEATURE_BUILD_BATCH,
) -> np.ndarray:
    """ϕ(x) at the model's current split, derived from a shallower split's
    cached features instead of the raw inputs (prefix-chain keying).

    ``base`` must be the cached output of this model's first ``from_split``
    segments over the same samples — i.e. its fingerprint matches element
    ``from_split - 1`` of :meth:`~repro.nn.segmented.SegmentedModel.
    phi_prefix_chain`. Only the segments ``[from_split, split)`` run, in
    eval mode, chunked like :func:`compute_features`; by the
    row-determinism invariant the result is bitwise identical to a full
    rebuild from the raw inputs. (Derivation only works in this
    direction — a deeper prefix from a shallower one; a forward pass
    cannot be inverted.)
    """
    to_split = model.frozen_split_index()
    if not 0 < from_split < to_split:
        raise ValueError(
            f"cannot derive split {to_split} features from split {from_split}"
        )
    if len(base) == 0:
        raise ValueError("cannot derive features from an empty base")
    segments = model.segments()[from_split:to_split]
    flags = [(module, module.training) for _, module in model.named_modules()]
    model.eval()
    try:
        chunks = []
        for i in range(0, len(base), batch_size):
            x = base[i : i + batch_size]
            for _, segment in segments:
                x = segment(x)
            chunks.append(x)
        return np.concatenate(chunks, axis=0)
    finally:
        for module, flag in flags:
            object.__setattr__(module, "training", flag)


def batched_head_logits(
    model: SegmentedModel, features: np.ndarray, batch_size: int = 256
) -> np.ndarray:
    """Eval-mode head forward over cached features, in batches.

    Mirrors :func:`repro.fl.selection.batched_logits` exactly — same
    chunking, same whole-model eval/train mode save-restore — so swapping
    one for the other is invisible to everything downstream.
    """
    was_training = model.training
    model.eval()
    outputs = [
        model.forward_head(features[i : i + batch_size])
        for i in range(0, len(features), batch_size)
    ]
    if was_training:
        model.train()
    return np.concatenate(outputs, axis=0)


def feature_pool_key(shard_key: tuple, fingerprint: str) -> tuple:
    """Campaign-pool key of a shard's feature segment.

    Distinct from the raw-shard key (which is ``shard_key`` itself) and
    from other fingerprints' features, so one campaign pool can hold the
    shard plus one feature array per distinct ϕ.
    """
    return ("feat",) + tuple(shard_key) + (fingerprint,)


def eval_pool_key(
    test_key: tuple, fingerprint: str | None, batch_size: int, num_shards: int,
    shard_index: int,
) -> tuple:
    """Campaign-pool key of one pooled-evaluation test-set shard.

    Includes the shard geometry (count and batch alignment) so a backend
    re-configured mid-campaign can never consume segments split for a
    different geometry.
    """
    return (
        "eval", tuple(test_key), fingerprint, int(batch_size),
        int(num_shards), int(shard_index),
    )


class FeatureRuntime:
    """Campaign-scoped in-process cache of materialised ϕ(x) arrays.

    Used directly by the serial backend (which the training loops build
    when given no backend); the process backend shares only the *policy* (fingerprinting,
    keying, :func:`compute_features`) and keeps its arrays in shared-memory
    segments instead. One runtime per campaign gives cross-run reuse for
    clients that carry a stable ``shard_key``; anonymous clients get
    per-object entries that are garbage-collected with the client.

    Prefix-chain keying: when a requested fingerprint misses but a cached
    entry for the same shard matches a *prefix* of the model's fingerprint
    chain (same frozen weights, shallower split — e.g. a campaign mixing
    ``moderate`` and ``classifier`` fine-tune levels over one pretrained
    backbone), the new features are derived by running only the segments
    between the two splits over the cached arrays
    (:func:`derive_features`) instead of re-running ϕ from the raw inputs.

    With a durable ``store`` (:class:`repro.store.ArtifactStore`) keyed
    misses read through it before materialising (a warm campaign reads
    ϕ(x) instead of recomputing it — bitwise identical by the npz round
    trip), and fresh builds are written through. Anonymous entries stay
    memory-only (no stable cross-process identity).
    """

    def __init__(
        self,
        batch_size: int = FEATURE_BUILD_BATCH,
        store: "ArtifactStore | None" = None,
    ):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.batch_size = batch_size
        self.store = store
        self._keyed: dict[tuple, np.ndarray] = {}
        self._anonymous: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self.stats = CounterGroup(
            "features",
            {
                "builds": 0,
                "hits": 0,
                "derived": 0,
                "bytes": 0,
            },
        )

    def __len__(self) -> int:
        return len(self._keyed) + sum(len(v) for v in self._anonymous.values())

    def build(self, model: SegmentedModel, x: np.ndarray) -> np.ndarray:
        self.stats["builds"] += 1
        with tracing.span("features.build"):
            return compute_features(model, x, self.batch_size)

    def derive(
        self, model: SegmentedModel, base: np.ndarray, from_split: int
    ) -> np.ndarray:
        """Prefix-chain derivation (counted separately from full builds)."""
        self.stats["derived"] += 1
        with tracing.span("features.derive"):
            return derive_features(model, base, from_split, self.batch_size)

    def materialise(
        self,
        model: SegmentedModel,
        chain: list[str],
        lookup,
        x_factory,
    ) -> np.ndarray:
        """Build features at ``chain``'s split, deriving from the deepest
        cached prefix entry when one exists.

        ``lookup(fingerprint)`` probes the caller's cache directly — one
        O(1) probe per chain element, never a scan over unrelated shards'
        entries. This is the single authoritative derivation-precedence
        rule; the in-process cache and the process backend's segment
        publisher both route through it.
        """
        for split in range(len(chain) - 1, 0, -1):
            base = lookup(chain[split - 1])
            if base is not None:
                return self.derive(model, base, split)
        return self.build(model, x_factory())

    def features_for(
        self, client, model: SegmentedModel, chain=None
    ) -> np.ndarray | None:
        """Cached ϕ(shard) for ``client`` under ``model``'s frozen prefix.

        Returns None when the model has no frozen prefix (nothing to
        cache) or the client opts out (``supports_feature_cache`` False —
        e.g. tiered clients that re-freeze the model per round).

        The fingerprint chain is taken from ``model.phi_prefix_chain()``
        on every call, and the fingerprint *is* the invalidation
        mechanism: a mutated ϕ must never be served stale features. That
        call is memoized per model on ϕ's exact bytes, so an unchanged ϕ
        costs a byte comparison instead of a re-hash, and a hit returns
        exactly the chain a recomputation would — any mutation still
        yields a new fingerprint and a fresh entry. ``chain`` lets a
        scheduler dispatching a single round's wave probe the chain once
        and share it across the wave's lookups — nothing can mutate ϕ
        between two lookups of the same dispatch.
        """
        if not getattr(client, "supports_feature_cache", True):
            return None
        if chain is None:
            chain = model.phi_prefix_chain()
        if not chain:
            return None
        fingerprint = chain[-1]
        shard_key = getattr(client, "shard_key", None)
        if shard_key is not None:
            shard_key = tuple(shard_key)
            key = (shard_key, fingerprint)
            features = self._keyed.get(key)
            if features is None:

                def keyed_base(prefix_fp: str) -> np.ndarray | None:
                    return self._keyed.get((shard_key, prefix_fp))

                if self.store is not None:
                    stored, _ = self.store.get_or_build(
                        feature_pool_key(shard_key, fingerprint),
                        lambda: {
                            "f": self.materialise(
                                model, chain, keyed_base,
                                lambda: client.dataset.arrays()[0],
                            )
                        },
                    )
                    features = stored["f"]
                else:
                    features = self.materialise(
                        model, chain, keyed_base,
                        lambda: client.dataset.arrays()[0],
                    )
                self._keyed[key] = features
                self.stats["bytes"] += features.nbytes
            else:
                self.stats["hits"] += 1
            return features
        per_client = self._anonymous.setdefault(client, {})
        features = per_client.get(fingerprint)
        if features is None:
            features = self.materialise(
                model, chain, per_client.get,
                lambda: client.dataset.arrays()[0],
            )
            per_client[fingerprint] = features
        else:
            self.stats["hits"] += 1
        return features

    def clear(self) -> None:
        """Drop every cached array (the campaign is over)."""
        self._keyed = {}
        self._anonymous = weakref.WeakKeyDictionary()
        self.stats["bytes"] = 0
