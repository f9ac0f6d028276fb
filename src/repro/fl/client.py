"""Client logic: per-round data selection followed by local training.

Clients are lightweight descriptors (shard + rng + config); the actual
network weights live in a shared *workspace model* owned by the server and
loaded with the broadcast global state before each client runs. This mirrors
the paper's sequential simulation while avoiding one model copy per client.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.fl.selection import DataSelector, selected_count
from repro.fl.strategies import LocalSolver, LocalUpdate
from repro.fl.timing import TimingModel
from repro.nn.segmented import SegmentedModel
from repro.nn.serialization import theta_keys, theta_state


class Client:
    """One federated client with a fixed local shard.

    ``selection_fraction`` is the paper's ``Pds``; the selector decides *how*
    the fraction is chosen (entropy / random / all).

    ``shard_key``, when set, is a stable hashable identity of the shard's
    *contents* (the experiment harness uses world seed + partition key +
    client id). Execution backends with a campaign-scoped
    :class:`~repro.engine.campaign.CampaignSegmentPool` use it to publish
    each distinct shard into shared memory once per campaign instead of
    once per run; clients without a key keep per-run segments.

    ``supports_feature_cache`` gates the frozen-feature fast path
    (:mod:`repro.fl.features`): subclasses that change the model's ϕ/θ
    split per round (e.g. tiered clients) set it False so backends never
    hand them features materialised for a different split. The event
    engine refuses such clients: their round price depends on the split
    the previous client left, so it cannot be fixed at dispatch.

    Head-only rounds (cached features present) run through the fused
    kernel runtime (:mod:`repro.fl.fastpath`) whenever the trainable head
    is fusible: selection scoring and the local solve use one
    preallocated :class:`~repro.nn.fused.FusedHeadPlan` instead of the
    layer graph — bitwise identical, with per-round fallback to the graph
    when the head is not fusible. Backends may also stack this client's
    round with same-shaped peers into one block-stacked
    :class:`~repro.nn.fused.CohortPlan` solve (see
    ``repro.fl.fastpath.cohort_units``) — bitwise identical to this
    client running alone; singletons and clients that override
    :meth:`run_round` run alone.
    """

    #: whether backends may pass this client cached ϕ(x) features
    supports_feature_cache = True

    def __init__(
        self,
        client_id: int,
        dataset: Dataset,
        selector: DataSelector,
        solver: LocalSolver,
        selection_fraction: float,
        epochs: int,
        rng: np.random.Generator,
        shard_key: tuple | None = None,
    ):
        if len(dataset) == 0:
            raise ValueError(f"client {client_id} has an empty shard")
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        if not 0.0 < selection_fraction <= 1.0:
            raise ValueError("selection_fraction must be in (0, 1]")
        self.client_id = client_id
        self.dataset = dataset
        self.selector = selector
        self.solver = solver
        self.selection_fraction = selection_fraction
        self.epochs = epochs
        self.rng = rng
        self.shard_key = shard_key

    def planned_round_seconds(
        self,
        model: SegmentedModel,
        timing: TimingModel,
        flops: tuple[int, int] | None = None,
    ) -> float:
        """Simulated duration of this client's next round, known at dispatch.

        Every selector keeps a deterministic *count* of samples
        (``selected_count``), so the timing model can price a round before it
        runs — this is what lets the event engine schedule a completion event
        at dispatch time and bill the round exactly that duration, the same
        float the synchronous loop's ``LocalUpdate.train_seconds`` carries.
        ``flops`` passes a model walk the caller already made (see
        :meth:`TimingModel.round_seconds`).
        """
        num_selected = selected_count(len(self.dataset), self.selection_fraction)
        return timing.round_seconds(
            model,
            self.dataset.input_shape,
            num_selected=num_selected,
            num_local=len(self.dataset),
            epochs=self.epochs,
            selection_forward=self.selector.requires_forward,
            client_id=self.client_id,
            flops=flops,
        )

    def run_round(
        self,
        model: SegmentedModel,
        global_state: dict[str, np.ndarray],
        timing: TimingModel | None = None,
        features: np.ndarray | None = None,
    ) -> LocalUpdate:
        """Execute one local round in the given workspace model.

        Loads the broadcast state, re-selects training data (dynamic
        selection, §IV-A3), fine-tunes the trainable part, and returns the
        updated θ together with the selected count used as the aggregation
        weight.

        ``features`` is the cached eval-mode ϕ(x) of the whole shard (see
        :mod:`repro.fl.features`). When given, the round is head-only:
        just θ is loaded from the broadcast (ϕ is never read — the
        workspace model's resident ϕ is irrelevant), selection scores the
        head on cached features, and the solver trains on the selected
        features. Results are bitwise identical to the full-forward path;
        the billed ``train_seconds`` still price the full backbone — the
        cache accelerates the simulator, not the simulated device.
        """
        # Fused head-solver plan for head-only rounds: one preallocated
        # workspace per (head signature, feature shape), cached on the
        # workspace model and shared by every client that trains in it.
        # None → layer-graph path.
        fast = None
        if features is not None:
            from repro.fl import fastpath

            fast = fastpath.bind_head(model, features.shape[1:])
            if fast is not None and fast.load_theta(model, global_state):
                fastpath.STATS["theta_fast_loads"] += 1
            else:
                model.load_state_dict(
                    {k: global_state[k] for k in theta_keys(model)},
                    strict=False,
                )
        else:
            model.load_state_dict(global_state)
        # Selection scores with the *received* global model, eval mode.
        indices = self.selector.select(
            model, self.dataset, self.selection_fraction, self.rng,
            features=features, fastpath=fast,
        )
        selected = self.dataset.subset(indices)
        if fast is None:
            # Fusible chains contain no mode-dependent layers (that is the
            # fusibility condition), so the partial-train-mode walk is pure
            # overhead on the fused path; the closing eval() below leaves
            # the model in the same state either way.
            model.set_partial_train_mode()
        reference = (
            {k: global_state[k] for k, p in model.named_parameters() if p.requires_grad}
            if self.solver.prox_mu > 0
            else None
        )
        mean_loss = self.solver.run(
            model, selected, self.epochs, self.rng, global_reference=reference,
            features=features[indices] if features is not None else None,
            fastpath=fast,
        )
        model.eval()
        theta = fast.theta_snapshot(model) if fast is not None else None
        update = LocalUpdate(
            theta=theta if theta is not None else theta_state(model),
            num_selected=len(selected),
            num_local=len(self.dataset),
            mean_loss=mean_loss,
        )
        if timing is not None:
            # Billed here, after the round, when the caller passes timing
            # (backends do for a client that overrides this method). For
            # standard rounds backends pass none: they price each wave,
            # a lone ``submit`` included, with one model walk per input
            # shape. The event engine passes none either: it priced the
            # round once at dispatch (every selector keeps the
            # deterministic ``selected_count``) and bills the duration it
            # scheduled the completion with.
            update.train_seconds = self.planned_round_seconds(model, timing)
        return update
