"""Fused head-solver runtime: FL-side dispatch for :mod:`repro.nn.fused`.

This module decides *when* the fused kernels run and owns their plan
lifecycle; the kernels themselves (and the bitwise-identity contract)
live in :mod:`repro.nn.fused`.

Dispatch rules — no option selects the solver: the fused path engages
whenever every one of these holds, and silently falls back to the layer
graph otherwise:

- the round is head-only (cached ϕ(x) features are present — a backend
  without a :class:`~repro.fl.features.FeatureRuntime` runs the full
  forward through the graph);
- the trainable head is fusible (:func:`repro.nn.fused.head_ops` — no
  dropout with ``p > 0``, no BatchNorm, no convolutions in θ);
- the head's trainable parameters are exactly the model's trainable
  parameters (a defensive identity check: the fused solver must cover
  precisely the update the graph solver would apply);
- with FedProx, the broadcast reference covers every trainable parameter
  (a missing key falls back so the graph path reports its usual error).

A backend plans every wave of rounds, a lone ``submit`` included, as
units: the eligible clients' cohorts (``cohort_units``, below), then
every other participant alone, through the rules above.

Plan caching: every plan a process holds — training, layout-probe,
evaluation and cohort plans — sits in one module-level
``WeakKeyDictionary`` that maps the workspace model a plan runs on to
``{plan key: plan}``. A plan is built once per model and key, shared by
every client that trains in that model, and freed with it: with the run
in the dispatching process, with the template replica in a process
worker. Keying by model keeps adoption sound: a training plan re-homes
the model's trainable parameters into its flat slab
(``FusedHeadPlan.adopt_params``), so two models must never share one.
The cache is not a model attribute because templates are pickled to
workers. In-process solves run one at a time, so it needs no lock.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.nn.fused import CohortPlan, FusedHeadPlan, head_ops
from repro.nn.segmented import SegmentedModel
from repro.obs import tracing
from repro.obs.metrics import export_group

#: fused-runtime counters; *exported* so increments made inside process
#: workers ride each job result back to the parent registry (see
#: repro.obs.metrics — the worker-shard merge protocol)
STATS = export_group(
    "solver.fused",
    {
        "plans_built": 0,
        "plan_failures": 0,
        "fused_solves": 0,
        "graph_solves": 0,
        "theta_fast_loads": 0,
        "theta_slab_loads": 0,
        "fused_eval_shards": 0,
        "graph_eval_shards": 0,
        # Jobs the process backend completed *inline* after exhausting
        # their retry budget (the faults-layer degradation ladder). Safe
        # to replay anywhere: a dispatched job is a pure function of its
        # blob's RNG state and the published segments, so the degraded
        # inline solve is bitwise identical to a worker execution.
        "degraded_jobs": 0,
    },
)

#: every plan this process holds: workspace model -> {plan key: plan}
#: (a ``None`` value remembers a key that failed to plan, so the fallback
#: decision is made once per model, not per round)
_PLANS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


class BoundHead:
    """A fusible head chain bound to one workspace model, plus its plan.

    Thin façade the FL call sites use: selection scores, the local solve
    and evaluation counts all run through the one plan, so a client round
    reuses the same workspaces end to end.
    """

    __slots__ = ("layers", "plan")

    def __init__(self, layers, plan: FusedHeadPlan):
        self.layers = layers
        self.plan = plan

    def entropy_scores(
        self, features: np.ndarray, temperature: float, batch_size: int
    ) -> np.ndarray:
        return self.plan.entropy_scores(
            self.layers, features, temperature, batch_size
        )

    def train_round(self, features, labels, **kwargs) -> float:
        return self.plan.train_round(self.layers, features, labels, **kwargs)

    def try_solve(
        self,
        model: SegmentedModel,
        features: np.ndarray,
        labels: np.ndarray,
        epochs: int,
        rng: np.random.Generator,
        solver,
        global_reference: dict[str, np.ndarray] | None,
    ) -> float | None:
        """The fused local solve, or None when the graph path must run.

        Eligibility rides the θ map (validated once per plan): a usable
        map certifies the communicated θ is exactly the plan's trainable
        parameters, i.e. the fused update covers precisely the update the
        graph solver would apply. Any trainable-set change reshapes the
        head signature and therefore lands on a fresh plan, so the
        per-plan verdict stays sound across rounds. With FedProx, every θ
        name must resolve in the broadcast reference; a miss falls back so
        the graph path reports its usual error.
        """
        mapping = self._theta_map(model)
        if mapping is None:
            return None
        refs = None
        if solver.prox_mu > 0:
            refs = {}
            layers = self.layers
            for name, i, attr in mapping:
                if global_reference is None or name not in global_reference:
                    return None
                layer = layers[i]
                param = layer.weight if attr == "w" else layer.bias
                refs[id(param)] = global_reference[name]
        return self.train_round(
            features,
            labels,
            epochs=epochs,
            batch_size=solver.batch_size,
            rng=rng,
            lr=solver.lr,
            momentum=solver.momentum,
            weight_decay=solver.weight_decay,
            prox_mu=solver.prox_mu,
            refs=refs,
        )

    def correct_count(self, features, labels, batch_size: int) -> int:
        return self.plan.correct_count(self.layers, features, labels, batch_size)

    def _theta_map(self, model: SegmentedModel) -> list[tuple] | None:
        """``(broadcast name, layer index, "w" | "b")`` per θ entry, or None.

        Built once per plan from ``theta_keys(model)``: the map is usable
        only when the communicated θ is exactly the plan's trainable
        parameters — no buffers (fusible heads carry none), nothing
        outside the chain. ``None`` (cached) sends θ loads and snapshots
        back through the generic state-dict path.
        """
        plan = self.plan
        if plan.theta_map is not None:
            return plan.theta_map or None
        from repro.nn.serialization import theta_keys

        params = dict(model.named_parameters())
        slot_by_id = {
            id(self.layers[i].weight if attr == "w" else self.layers[i].bias):
                (i, attr)
            for i, attr in plan.trainable_slots
        }
        mapping: list[tuple] = []
        for name in theta_keys(model):
            slot = slot_by_id.pop(id(params.get(name)), None)
            if slot is None:
                plan.theta_map = ()  # unusable; remember the verdict
                return None
            mapping.append((name, slot[0], slot[1]))
        if slot_by_id:
            plan.theta_map = ()
            return None
        plan.theta_map = mapping
        return mapping

    def _plan_theta_layout(self):
        """The plan's θ packing as a :class:`~repro.fl.slab.SlabLayout`.

        Built (and validated) once per plan: the layout packs the θ keys
        in ``theta_keys`` order with the module's shared alignment rule,
        so when its offsets coincide with the plan's own slot offsets —
        the common case, since ``named_parameters`` yields weight-then-
        bias in chain order, exactly the plan's packing order — a server
        slab and the plan's ``_data_flat`` are offset-identical and θ
        moves as one memcpy. Returns None (cached) when the orders
        diverge; callers then stay on the per-key path.
        """
        plan = self.plan
        if plan.theta_layout is not None:
            return plan.theta_layout or None
        mapping = plan.theta_map
        if not mapping:  # unbuilt (None) or unusable (()); don't cache unbuilt
            if mapping == ():
                plan.theta_layout = ()
            return None
        from repro.fl.slab import SlabLayout

        layers = self.layers
        layout = SlabLayout(
            [
                (
                    name,
                    (layers[i].weight if attr == "w" else layers[i].bias)
                    .data.shape,
                )
                for name, i, attr in mapping
            ]
        )
        slot_offsets = {
            (i, attr): offset
            for (i, attr), offset in zip(plan.trainable_slots, plan.slot_offsets)
        }
        aligned = layout.total == plan.slot_total and all(
            layout.offsets[j] == slot_offsets[(i, attr)]
            for j, (_, i, attr) in enumerate(mapping)
        )
        plan.theta_layout = layout if aligned else ()
        return plan.theta_layout or None

    def load_theta(
        self, model: SegmentedModel, global_state: dict[str, np.ndarray]
    ) -> bool:
        """θ-only broadcast load through the plan's slot map.

        Copies each communicated array straight into its bound parameter —
        the exact writes ``load_state_dict(θ, strict=False)`` performs,
        without rebuilding the name→parameter maps every round. When the
        broadcast is a :class:`~repro.fl.slab.SlabState` whose packing
        matches the plan's (verified once per plan), the whole load is a
        single memcpy into the plan's flat parameter slab instead.
        Returns False (caller falls back to the generic load) when the θ
        key set is not exactly the fused chain's trainable parameters.
        """
        mapping = self._theta_map(model)
        if mapping is None:
            return False
        layers = self.layers
        slab = getattr(global_state, "theta_slab", None)
        if slab is not None:
            layout = self._plan_theta_layout()
            if (
                layout is not None
                and layout.signature == global_state.layout.signature
            ):
                plan = self.plan
                plan.adopt_params(layers)
                plan._data_flat[...] = slab
                STATS["theta_slab_loads"] += 1
                return True
        for name, i, attr in mapping:
            layer = layers[i]
            param = layer.weight if attr == "w" else layer.bias
            value = global_state[name]
            if param.data.shape != value.shape:
                return False
            param.data[...] = value
        return True

    def theta_snapshot(
        self, model: SegmentedModel
    ) -> dict[str, np.ndarray] | None:
        """Copy of the communicated θ, bitwise equal to ``theta_state``.

        Same keys in the same order (the map is built from
        ``theta_keys``); None when the map is unusable. When the plan's
        packing admits a slab layout, the snapshot is returned as a
        :class:`~repro.fl.slab.SlabState` — the same values, but the
        server can then stack the update into its aggregation matrix by
        row memcpy instead of a per-key gather.
        """
        mapping = self._theta_map(model)
        if mapping is None:
            return None
        layers = self.layers
        layout = self._plan_theta_layout()
        if layout is not None:
            from repro.fl.slab import slab_successor

            plan = self.plan
            plan.adopt_params(layers)
            return slab_successor({}, plan._data_flat.copy(), layout)
        return {
            name: (layers[i].weight if attr == "w" else layers[i].bias).data.copy()
            for name, i, attr in mapping
        }


def make_plan(signature: tuple, feature_shape: tuple) -> FusedHeadPlan | None:
    """A fresh plan for the signature, or None when the shapes cannot feed
    the chain (the graph path then raises its usual shape error)."""
    try:
        plan = FusedHeadPlan(signature, feature_shape)
    except ValueError:
        STATS["plan_failures"] += 1
        return None
    STATS["plans_built"] += 1
    return plan


def _model_plan(model: SegmentedModel, key: tuple, build):
    """``model``'s plan under ``key``, made by ``build()`` on first use."""
    plans = _PLANS.get(model)
    if plans is None:
        plans = _PLANS[model] = {}
    plan = plans.get(key, False)
    if plan is False:
        plan = plans[key] = build()
    return plan


def bind_head(
    model: SegmentedModel, feature_shape: tuple, eval_mode: bool = False
) -> BoundHead | None:
    """The model's head bound to its cached plan, or None when it cannot fuse.

    None (→ layer-graph fallback) when the head is not fusible or features
    of ``feature_shape`` cannot feed it. The plan is built on first use and
    serves every later round of every client in ``model`` with this head
    shape — the "plan once, run many" property the round benchmark
    measures. ``eval_mode`` admits the wider inference-only op set
    (eval-mode BN as a precomputed affine, dropout as identity, convs and
    pools as module calls); such a plan refuses training entry points. A
    head fusible for training has the same signature in both modes, so
    its evaluation runs on the training plan.
    """
    layers, signature = head_ops(model, eval_mode=eval_mode)
    if layers is None:
        return None
    shape = tuple(feature_shape)
    plan = _model_plan(
        model, (signature, shape), lambda: make_plan(signature, shape)
    )
    return None if plan is None else BoundHead(layers, plan)


# ---------------------------------------------------------------------------
# Cohort solver: N clients' local rounds as one block-stacked solve.
#
# Grouping (``cohort_units``) keys this round's participants by everything
# that shapes the local solve — feature shape, selected count k, epochs,
# selector and solver hyperparameters — and hands each group of ≥2 to one
# :class:`~repro.nn.fused.CohortPlan` (``solve_cohort``). The shard size n
# is not in the key: lanes of different n share a cohort, padded to the
# largest shard for selection scoring, which leaves every real row's bits
# unchanged (see CohortPlan, "Ragged rows"). Training sees only the k
# selected rows, so k is what fixes the solve's shape (with the full
# selector k = n, so those cohorts still split by n).
# Everything else (singletons, clients without cached features, custom
# clients, unfusible heads, exotic selectors/solvers/broadcast states)
# runs alone through ``Client.run_round``, the reference the cohort must
# match bitwise; each fallback reason is counted on ``solver.cohort.*``.
# ---------------------------------------------------------------------------

#: cohort-runtime counters; exported like STATS so worker-side increments
#: (cohort_solves, plans_built) merge exactly into the parent registry
COHORT_STATS = export_group(
    "solver.cohort",
    {
        "cohorts": 0,
        "cohort_clients": 0,
        "cohort_solves": 0,
        "singletons": 0,
        "plans_built": 0,
        "fallback_features": 0,
        "fallback_custom_client": 0,
        "fallback_unfusible": 0,
        "fallback_selector": 0,
        "fallback_solver": 0,
        "fallback_config": 0,
        "fallback_state": 0,
    },
)


def _stackable(signature: tuple) -> bool:
    """Whether :class:`~repro.nn.fused.CohortPlan` can stack this head."""
    for op in signature:
        if op[0] == "linear":
            if not (op[4] and op[5] == op[3]):
                return False
        elif op[0] not in ("relu", "flatten"):
            return False
    return True


def aligned_cohort_layout(model, feature_shape):
    """The θ slab layout cohort lanes share with the server, or None.

    Probes the model's fusible head through its cached plan (the one its
    solo rounds train on) and returns the plan-aligned
    :class:`~repro.fl.slab.SlabLayout`: lane offsets equal server-slab
    offsets, so a matching broadcast slab loads by memcpy and lane rows
    ship back as :class:`~repro.fl.slab.SlabState` updates. None when the
    head is unfusible, the communicated θ is not exactly the head's
    trainable set, or the packings cannot align.
    """
    bound = bind_head(model, feature_shape)
    if bound is None or bound._theta_map(model) is None:
        return None
    return bound._plan_theta_layout()


def _cohort_key(client, model, global_state, shape, layouts):
    """``(None, grouping key)`` when the client can join a cohort, else
    ``(fallback reason, None)``; ``layouts`` caches shape → layout probes."""
    from repro.fl.client import Client
    from repro.fl.selection import (
        EntropySelector,
        FullSelector,
        RandomSelector,
        selected_count,
    )
    from repro.fl.strategies import LocalSolver

    if shape is None or not getattr(client, "supports_feature_cache", False):
        return "features", None
    # The cohort replays Client.run_round's exact sequence; a subclass
    # that overrides it (e.g. tiered clients) defines different semantics.
    if type(client).run_round is not Client.run_round:
        return "custom_client", None
    shape = tuple(shape)
    if len(shape) != 1:
        return "unfusible", None
    selector = client.selector
    stype = type(selector)
    if stype is EntropySelector:
        sel_key = ("entropy", float(selector.temperature), int(selector.batch_size))
    elif stype is RandomSelector:
        sel_key = ("random",)
    elif stype is FullSelector:
        sel_key = ("full",)
    else:
        return "selector", None
    solver = client.solver
    if type(solver) is not LocalSolver:
        return "solver", None
    n = len(client.dataset)
    epochs = int(client.epochs)
    if n < 1 or epochs < 1 or int(solver.batch_size) < 1:
        return "config", None
    if stype is FullSelector:
        if client.selection_fraction != 1.0:
            return "config", None  # per-client select() raises its usual error
        k = n
    else:
        try:
            k = selected_count(n, client.selection_fraction)
        except ValueError:
            return "config", None
    if shape not in layouts:
        layouts[shape] = aligned_cohort_layout(model, shape)
    layout = layouts[shape]
    if layout is None:
        return "unfusible", None
    # The broadcast must cover the lane layout: either the server slab
    # matches it outright (θ loads by one memcpy) or every layout key
    # resolves with its shape (θ loads by ``layout.gather``). Either way
    # FedProx references are covered too — they are these same values.
    slab = getattr(global_state, "theta_slab", None)
    if slab is None or global_state.layout.signature != layout.signature:
        get = getattr(global_state, "get", None)
        if get is None:
            return "state", None
        for key, kshape in layout.signature:
            value = get(key)
            if (
                not isinstance(value, np.ndarray)
                or value.shape != kshape
                or value.dtype != np.float64
            ):
                return "state", None
    solver_key = (
        float(solver.lr),
        float(solver.momentum),
        float(solver.weight_decay),
        float(solver.prox_mu),
        int(solver.batch_size),
    )
    return None, (shape, k, epochs, sel_key, solver_key)


def cohort_units(clients, model, global_state, feature_shapes, min_size=2):
    """Group a round's participants into stackable cohorts.

    ``feature_shapes[i]`` is client *i*'s cached-feature trailing shape
    (None when no features are available — that client can never join).
    Returns ``[(positions, layout), ...]`` — each a cohort of
    ``min_size``-plus positions into ``clients`` sharing one grouping key,
    with the θ slab layout its lanes use — or None when no cohort formed.
    Positions not covered by any cohort stay on the per-client path.
    """
    if len(clients) < int(min_size):
        return None
    layers, signature = head_ops(model)
    if layers is None or not _stackable(signature):
        COHORT_STATS["fallback_unfusible"] += len(clients)
        return None
    layouts: dict[tuple, object] = {}
    groups: dict[tuple, list[int]] = {}
    for pos, (client, shape) in enumerate(zip(clients, feature_shapes)):
        reason, key = _cohort_key(client, model, global_state, shape, layouts)
        if key is None:
            COHORT_STATS["fallback_" + reason] += 1
            continue
        groups.setdefault(key, []).append(pos)
    units = []
    for key, positions in groups.items():
        if len(positions) < int(min_size):
            COHORT_STATS["singletons"] += len(positions)
            continue
        units.append((positions, layouts[key[0]]))
        COHORT_STATS["cohorts"] += 1
        COHORT_STATS["cohort_clients"] += len(positions)
    return units or None


def _make_cohort_plan(signature, shape, batch_size, epochs):
    """A fresh cohort plan for the kernel key, or None if unplannable.

    The key is what a plan's kernel programs are compiled for. Lane count,
    shard size and selected count are per solve
    (:meth:`CohortPlan.prepare`), so a model needs one plan per key.
    """
    try:
        plan = CohortPlan(signature, shape, batch_size, epochs)
    except ValueError:
        return None
    COHORT_STATS["plans_built"] += 1
    return plan


def solve_cohort(clients, model, global_state, features_list, layout):
    """Solve one cohort's local rounds in a single block-stacked plan.

    Preconditions (``cohort_units`` guarantees them): the clients share
    one grouping key, ``features_list[i]`` is client *i*'s full-shard
    features, and ``layout`` is their shared θ slab layout. Returns
    ``(theta stack (N × params), per-lane mean losses, selected, per-lane
    shard sizes)`` or None on a late disagreement (the caller then
    dispatches the members per client, which reproduces reference
    behaviour exactly).

    Lanes may hold different shard sizes n_i (same selected count k).
    Scoring runs over the plan's padded stride, but everything that
    reduces over a lane's own rows sees exactly its n_i: the label copy,
    the entropy top-k and the random draw below are per-lane slices.

    Bitwise contract: every RNG draw is taken from each client's own
    generator in exactly ``Client.run_round``'s order — the selection
    draw (random selector only), then one ``permutation(k)`` per epoch —
    and every kernel replays the per-client fused op sequence (see
    :class:`~repro.nn.fused.CohortPlan`), so lane *i*'s θ bytes, losses
    and RNG end state equal client *i*'s solo fused round.
    """
    from repro.fl.selection import (
        EntropySelector,
        FullSelector,
        RandomSelector,
        selected_count,
    )

    first = clients[0]
    shape = tuple(features_list[0].shape[1:])
    selector = first.selector
    stype = type(selector)
    full = stype is FullSelector
    sizes = [len(client.dataset) for client in clients]
    k = sizes[0] if full else selected_count(sizes[0], first.selection_fraction)
    for client, feats, n in zip(clients, features_list, sizes):
        if feats is None or feats.shape != (n,) + shape:
            return None
        if (n if full else selected_count(n, client.selection_fraction)) != k:
            return None
    solver = first.solver
    epochs = int(first.epochs)
    lanes = len(clients)
    layers, signature = head_ops(model)
    if layers is None:
        return None
    kernel_key = (signature, shape, int(solver.batch_size), epochs)
    plan = _model_plan(
        model, ("cohort",) + kernel_key, lambda: _make_cohort_plan(*kernel_key)
    )
    if plan is None:
        return None
    plan.prepare(lanes, max(sizes), k)
    slab = getattr(global_state, "theta_slab", None)
    if slab is not None and global_state.layout.signature == layout.signature:
        plan.theta_row[...] = slab
    else:
        layout.gather(global_state, plan.theta_row)
    for i, (client, feats, n) in enumerate(zip(clients, features_list, sizes)):
        plan.features[i, :n] = feats
        plan.labels[i, :n] = client.dataset.arrays()[1]
    if stype is EntropySelector:
        with tracing.span("selection.entropy"):
            entropy = plan.entropy_scores(selector.temperature)
        stride = plan.rows
        for i, n in enumerate(sizes):
            lane = entropy[i * stride : i * stride + n]
            top = np.argpartition(lane, n - k)[n - k:]
            plan.selected_idx[i] = np.sort(top)
    elif stype is RandomSelector:
        for i, (client, n) in enumerate(zip(clients, sizes)):
            plan.selected_idx[i] = np.sort(
                client.rng.choice(n, size=k, replace=False)
            )
    else:
        plan.selected_idx[...] = np.arange(k)  # k == n_i on every lane
    plan.gather_selected()
    for i, client in enumerate(clients):
        for epoch in range(epochs):
            plan.perms[epoch, i] = client.rng.permutation(k)
    with tracing.span("solver.cohort"):
        mean_losses = plan.train(
            lr=solver.lr,
            momentum=solver.momentum,
            weight_decay=solver.weight_decay,
            prox_mu=solver.prox_mu,
        )
    theta_stack = plan._data_stack.copy()
    COHORT_STATS["cohort_solves"] += 1
    return theta_stack, mean_losses, k, sizes


def cohort_updates(layout, theta_stack, mean_losses, num_selected, sizes):
    """The lanes of a :func:`solve_cohort` result (unpacked after
    ``layout``) as slab-backed LocalUpdates in client order, each θ a row
    of the stack."""
    from repro.fl.slab import slab_successor
    from repro.fl.strategies import LocalUpdate

    return [
        LocalUpdate(
            theta=slab_successor({}, theta_stack[i], layout),
            num_selected=int(num_selected),
            num_local=int(num_local),
            mean_loss=float(mean_loss),
        )
        for i, (num_local, mean_loss) in enumerate(zip(sizes, mean_losses))
    ]


def run_cohort(clients, model, global_state, features_list, layout):
    """Solve one cohort in-process; LocalUpdates in client order, or None.

    ``layout`` is the lane layout :func:`cohort_units` grouped the cohort
    under. None sends every member to the exact per-client path (the
    grouping was optimistic; late disagreements like feature-shape drift
    or unplannable dimensions must not change results). The dispatcher
    prices the rounds (see :func:`cohort_round_seconds`).
    """
    solved = solve_cohort(clients, model, global_state, features_list, layout)
    return None if solved is None else cohort_updates(layout, *solved)


def cohort_round_seconds(clients, model, timing, walks=None) -> list[float]:
    """Each client's ``planned_round_seconds(model, timing)``, in order.

    Rounds priced on one model share its FLOPs walk
    (:func:`repro.nn.profiling.round_flops_per_sample`): it runs once per
    distinct input shape instead of once per client, and each client then
    applies its own counts and speed multiplier, giving the same float as
    pricing it alone. ``walks`` (input shape → walk) carries the walks
    across calls, so a backend prices a whole wave — cohort lanes and solo
    rounds alike — with one walk per input shape; whoever changes the
    model's trainable set between two calls must clear it.
    """
    from repro.nn.profiling import round_flops_per_sample

    if walks is None:
        walks = {}
    seconds = []
    for client in clients:
        shape = client.dataset.input_shape
        flops = walks.get(shape)
        if flops is None:
            flops = walks[shape] = round_flops_per_sample(model, shape)
        seconds.append(client.planned_round_seconds(model, timing, flops=flops))
    return seconds


def plan_cache_nbytes() -> int:
    """Bytes held by every plan this process caches, over all live models."""
    return sum(
        plan.nbytes
        for plans in _PLANS.values()
        for plan in plans.values()
        if plan is not None
    )
