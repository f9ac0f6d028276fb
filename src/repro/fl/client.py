"""Client logic: per-round data selection followed by local training.

Clients are lightweight descriptors (shard + rng + config); the actual
network weights live in a shared *workspace model* owned by the server and
loaded with the broadcast global state before each client runs. This mirrors
the paper's sequential simulation while avoiding one model copy per client.

A head-only round (cached features) whose head has a plan loads θ into the
model's :class:`~repro.nn.fused.CohortPlan` instead and runs there as a
one-lane solve, leaving the workspace model untouched; every other round
runs the layer graph in the workspace model.

A round's price is :meth:`Client.planned_round_seconds`, which the run
loops take when they dispatch it; running the round bills nothing.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.fl.selection import DataSelector, selected_count
from repro.fl.strategies import LocalSolver, LocalUpdate
from repro.fl.timing import TimingModel
from repro.nn.segmented import SegmentedModel
from repro.nn.serialization import theta_keys, theta_state
from repro.utils import check_count


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
    engine refuses such clients: their rounds re-freeze the shared model
    that every later dispatch is priced and trained on.

    Head-only rounds (cached features present) run on the workspace
    model's head plan (:func:`repro.fl.fastpath.head_lane`) whenever it
    can run the head: selection scores with the plan's broadcast-θ
    forward and the local solve trains as a one-lane
    :class:`~repro.nn.fused.CohortPlan` solve — bitwise identical to the
    layer graph, which runs every other head. Backends may also stack
    this client's round with same-shaped peers into one multi-lane solve
    (see ``repro.fl.fastpath.cohort_units``) — bitwise identical to this
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
        check_count("epochs", epochs)
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
        self, model: SegmentedModel, timing: TimingModel
    ) -> float:
        """Simulated duration of this client's next round, known at dispatch.

        Every selector keeps a deterministic *count* of samples
        (``selected_count``), so the timing model can price a round before it
        runs. Both run loops bill a round this price, taken when they
        dispatch it: the event engine schedules the completion event with
        it, and the synchronous loop sums its participants' prices.
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
        )

    def run_round(
        self,
        model: SegmentedModel,
        global_state: dict[str, np.ndarray],
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
        features. Results are bitwise identical to the full-forward path,
        and the round's price (:meth:`planned_round_seconds`) still
        covers the full backbone — the cache accelerates the simulator,
        not the simulated device.
        """
        # Head-only rounds run on the model's head plan as a one-lane
        # solve: θ goes into the plan, and the model (weights and mode
        # flags) is never touched. None → the layer graph, with θ loaded
        # into the model.
        lane = None
        if features is not None:
            from repro.fl import fastpath

            lane = fastpath.head_lane(model, features.shape[1:])
            if lane is not None and lane.load(global_state):
                fastpath.STATS["theta_fast_loads"] += 1
            else:
                lane = None
                model.load_state_dict(
                    {k: global_state[k] for k in theta_keys(model)},
                    strict=False,
                )
        else:
            model.load_state_dict(global_state)
        # Selection scores with the *received* global model, eval mode.
        indices = self.selector.select(
            model, self.dataset, self.selection_fraction, self.rng,
            features=features, fastpath=lane,
        )
        selected = self.dataset.subset(indices)
        if lane is None:
            model.set_partial_train_mode()
        reference = (
            {k: global_state[k] for k, p in model.named_parameters() if p.requires_grad}
            if self.solver.prox_mu > 0
            else None
        )
        mean_loss = self.solver.run(
            model, selected, self.epochs, self.rng, global_reference=reference,
            features=features[indices] if features is not None else None,
            fastpath=lane,
        )
        if lane is None:
            model.eval()
        return LocalUpdate(
            theta=lane.theta() if lane is not None else theta_state(model),
            num_selected=len(selected),
            num_local=len(self.dataset),
            mean_loss=mean_loss,
        )
