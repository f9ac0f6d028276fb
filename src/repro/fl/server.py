"""Server: global model custody, broadcast, aggregation, evaluation."""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.fl.aggregation import weighted_average_flat
from repro.fl import fastpath
from repro.fl.features import batched_head_logits, compute_features
from repro.fl.selection import batched_logits
from repro.fl.slab import SlabLayout, make_slab_state, slab_successor
from repro.fl.strategies import LocalUpdate
from repro.nn import functional as F
from repro.nn.segmented import SegmentedModel
from repro.nn.serialization import theta_keys
from repro.obs import tracing
from repro.obs.metrics import CounterGroup


class Server:
    """Holds the global model ``w = {ϕ, θ}`` and applies Eq. 5 updates.

    The server's model doubles as the shared workspace in which clients run
    their local rounds; ``global_state`` snapshots make that safe.

    Every model version the server holds is a
    :class:`~repro.fl.slab.SlabState`: θ (the model's ``theta_keys`` at
    construction) lives in one float64 slab, ϕ entries are shared by
    reference between versions. A model whose θ cannot be one float64
    slab (nothing trainable, or another dtype) is refused at construction
    with ``ValueError``.

    Evaluation exploits the ϕ/θ split twice whenever the model has a
    frozen prefix (bitwise identical to a full load and a full forward):

    - versions that share ϕ by reference differ only in θ, so once ϕ is
      resident in the model, each evaluation loads just the θ keys
      instead of the full state (a version with other ϕ objects, or a
      workspace whose ϕ was trained, is loaded in full);
    - the frozen ϕ(test set) is materialised once per ϕ fingerprint and
      every evaluation runs only the head over it: through the head
      plan's broadcast-θ forward when :func:`~repro.fl.fastpath.head_lane`
      admits the head (θ then loads into the plan, not the model), else
      through the layer graph.

    A model without a frozen prefix (everything trainable) is evaluated
    with a full load and a full forward.

    ``evaluator``, when attached (see
    :class:`~repro.engine.backends.PooledEvaluator`), delegates evaluation
    to sharded jobs on the warm process-pool workers instead. The jobs
    score θ over ϕ(test) features built from the workspace model, so
    :meth:`evaluate` then touches the model only to install a version
    whose ϕ entries are new objects.
    """

    def __init__(self, model: SegmentedModel, test_set: Dataset):
        self.model = model
        self.test_set = test_set
        state = model.state_dict()
        #: θ packing of every model version the server holds
        self._slab_layout = SlabLayout.for_state(state, theta_keys(model))
        if self._slab_layout is None or not self._slab_layout.keys:
            raise ValueError(
                "the server holds θ as one float64 slab: the model needs "
                "at least one trainable parameter, all of them float64"
            )
        self.global_state = make_slab_state(state, self._slab_layout)
        #: packings of other θ key sets seen in aggregate(), by key set
        self._packings: dict[frozenset, SlabLayout] = {}
        self.round_index = 0
        #: pooled-evaluation hook; attached by campaign runtimes
        self.evaluator = None
        #: ϕ fingerprint of the model right after the last full load; the
        #: θ-only fast path is only taken while the resident ϕ still
        #: hashes to this, so code that trains ϕ in the workspace model
        #: (e.g. tiered clients re-freezing per round) self-heals into a
        #: full reload instead of evaluating a stale backbone
        self._resident_fingerprint: str | None = None
        #: the ϕ entries ``(key, array)`` of the state the model was last
        #: fully loaded from (the first version was copied from the model,
        #: so it holds them too); a version whose ϕ entries are other
        #: objects (a merge that retrained ϕ in a worker, an installed
        #: state) is loaded in full before it is scored
        self._resident_phi = self._phi_entries()
        self._test_features: tuple[str, np.ndarray] | None = None
        #: observability counters for the evaluation fast paths (a plain
        #: dict to callers; the namespace feeds the metrics registry)
        self.eval_stats = CounterGroup(
            "server.eval",
            {
                "local_evals": 0,
                "pooled_evals": 0,
                "full_loads": 0,
                "theta_loads": 0,
                "feature_builds": 0,
                "fused_evals": 0,
                "graph_evals": 0,
            },
        )
        #: (clients × params) aggregation matrix, grown to the largest
        #: cohort seen; rows are consumed as scratch by the flat kernel
        #: (it holds no model version, so reusing it rewrites none)
        self._stack_scratch: np.ndarray | None = None

    def broadcast(self) -> dict[str, np.ndarray]:
        """State sent to clients this round (full model; only θ changes)."""
        return self.global_state

    def communicated_parameters(self) -> int:
        """Scalar count actually exchanged per client per round: |θ|.

        ϕ never changes after pretraining, so only the upper part needs to
        travel (paper §III-D) — this drives the communication accounting.
        """
        return sum(
            p.size for _, p in self.model.named_parameters() if p.requires_grad
        )

    def set_global_state(self, state: dict[str, np.ndarray]) -> None:
        """Install a copy of ``state`` as the current global model version,
        its θ re-homed into a fresh slab in the server's packing — a
        checkpoint's state, or a per-key merge such as
        :func:`~repro.core.heterogeneous.aggregate_heterogeneous`'s. θ
        that does not fit the packing is refused (see
        :meth:`repro.fl.slab.SlabLayout.flatten`) and the current version
        stays."""
        self.global_state = make_slab_state(state, self._slab_layout)

    def aggregate(self, updates: list[LocalUpdate]) -> None:
        """Fuse client θ's weighted by selected counts and refresh ϕ∪θ.

        The Eq. 5 average runs as one ufunc pair over a (clients × params)
        stack (see :func:`repro.fl.aggregation.weighted_average_flat`).
        Updates that all carry one key set other than the server's θ
        (tiered clients at one other fine-tune level) are averaged over a
        cached packing of that key set and merged into the new version.
        Everything is checked before anything changes: updates whose key
        sets differ raise ``KeyError`` (``"state i keys differ from state
        0"``), keys the global state lacks raise ``KeyError``, and entries
        of the wrong shape or dtype raise ``ValueError``.
        """
        if not updates:
            raise ValueError("no client updates to aggregate")
        base = self.global_state
        layout = self._slab_layout
        packing = self._packing_for(updates[0].theta)
        n = len(updates)
        stack = self._stack_scratch
        if (
            stack is None
            or stack.shape[0] < n
            or stack.shape[1] != packing.total
        ):
            stack = self._stack_scratch = np.empty((n, packing.total))
        rows = stack[:n]
        for j, (row, update) in enumerate(zip(rows, updates)):
            try:
                flat = packing.flatten(update.theta, row)
            except KeyError:
                raise KeyError(f"state {j} keys differ from state 0") from None
            if flat is not row:
                row[...] = flat  # row memcpy: packing is offset-identical
        average = weighted_average_flat(rows, [u.num_selected for u in updates])
        if packing is layout:
            self.global_state = slab_successor(base, average, layout)
        else:
            merged = dict(base)
            merged.update(packing.views(average))
            self.global_state = make_slab_state(merged, layout)
        self.round_index += 1

    def _packing_for(self, theta: dict[str, np.ndarray]) -> SlabLayout:
        """The server's θ packing when ``theta`` carries its keys, else a
        cached packing of ``theta``'s key set (in global-state order)."""
        if theta.keys() == self._slab_layout.key_set:
            return self._slab_layout
        keys = frozenset(theta)
        packing = self._packings.get(keys)
        if packing is None:
            unknown = sorted(keys - self.global_state.keys())
            if unknown:
                raise KeyError(
                    f"update keys absent from the global state: {unknown}"
                )
            packing = SlabLayout.for_state(
                self.global_state, [k for k in self.global_state if k in keys]
            )
            if packing is None:
                raise ValueError("updated entries must be float64 arrays")
            self._packings[keys] = packing
        return packing

    def evaluate(self, batch_size: int = 512) -> float:
        """Top-1 accuracy of the current global model on the test set."""
        with tracing.span("server.evaluate"):
            return self._evaluate(batch_size)

    def _phi_entries(self) -> tuple:
        """The current version's ϕ entries, ``(key, array)`` in key order."""
        theta = self._slab_layout.key_set
        return tuple(
            (key, value)
            for key, value in self.global_state.items()
            if key not in theta
        )

    def _phi_resident(self) -> bool:
        """Whether the current version's ϕ entries are the very objects the
        model was last fully loaded from. Successive versions share ϕ by
        reference, so this holds for every version a θ-only run makes."""
        state = self.global_state
        resident = self._resident_phi
        if len(state) - len(self._slab_layout.keys) != len(resident):
            return False
        return all(state.get(key) is value for key, value in resident)

    def _load_full(self) -> None:
        self.model.load_state_dict(self.global_state)
        self._resident_phi = self._phi_entries()
        self.eval_stats["full_loads"] += 1

    def _evaluate(self, batch_size: int) -> float:
        if self.evaluator is not None:
            self.eval_stats["pooled_evals"] += 1
            if not self._phi_resident():
                # Pooled jobs score θ over the ϕ(test) features of the
                # workspace model: install this version's ϕ there first.
                self._load_full()
            return self.evaluator.evaluate(
                self.model, self.global_state, batch_size=batch_size
            )
        self.eval_stats["local_evals"] += 1
        fingerprint = self.model.phi_fingerprint()
        if fingerprint is None:
            # No frozen prefix: a full load and a full forward.
            self._load_full()
            self._resident_fingerprint = None
            x, y = self.test_set.arrays()
            logits = batched_logits(self.model, x, batch_size)
            return F.accuracy(logits, y)
        theta_in_model = (
            fingerprint != self._resident_fingerprint
            or not self._phi_resident()
        )
        if theta_in_model:
            # First evaluation, a version whose ϕ entries changed, or
            # something trained ϕ in the workspace (tiered clients, foreign
            # loads): restore the global model wholesale and re-fingerprint
            # the clean backbone.
            self._load_full()
            fingerprint = self.model.phi_fingerprint()
            self._resident_fingerprint = fingerprint
        else:
            # The resident ϕ still hashes to what the last full load left
            # behind, and this version's ϕ is that load's, so only θ can
            # differ from the global state: it is loaded below, into the
            # head plan or the model.
            self.eval_stats["theta_loads"] += 1
        if self._test_features is None or self._test_features[0] != fingerprint:
            x, _ = self.test_set.arrays()
            self._test_features = (
                fingerprint,
                compute_features(self.model, x, batch_size),
            )
            self.eval_stats["feature_builds"] += 1
        features = self._test_features[1]
        labels = self.test_set.labels
        lane = fastpath.head_lane(self.model, features.shape[1:])
        if lane is not None and len(labels) and lane.load(self.global_state):
            # The plan's broadcast-θ forward over the cached test features,
            # read in place; integer correct/total is bitwise equal to
            # F.accuracy (exact int sums < 2^53, one IEEE division either
            # way).
            self.eval_stats["fused_evals"] += 1
            correct = lane.plan.correct_count(features, labels, batch_size)
            return correct / len(labels)
        if not theta_in_model:
            self.model.load_state_dict(
                {k: self.global_state[k] for k in theta_keys(self.model)},
                strict=False,
            )
        self.eval_stats["graph_evals"] += 1
        logits = batched_head_logits(self.model, features, batch_size)
        return F.accuracy(logits, labels)
