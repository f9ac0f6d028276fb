"""Head-solver runtime: FL-side dispatch for :mod:`repro.nn.fused`.

This module decides *when* rounds, scoring and evaluation run on a
:class:`~repro.nn.fused.CohortPlan` and owns the plans' lifecycle; the
kernels themselves (and the bitwise-identity contract) live in
:mod:`repro.nn.fused`.

One plan per model and head: :func:`head_lane` returns the workspace
model's plan for its head and a feature shape, wrapped with θ's lane
layout (a :class:`HeadLane`). A solo round (``Client.run_round``) trains
as a one-lane solve on it, entropy selection and evaluation run its
broadcast-θ forward, and a cohort (below) stacks lanes on it. No option
selects the solver: the plan engages whenever all of these hold, and the
layer graph runs otherwise:

- the round is head-only (cached ϕ(x) features are present — a backend
  without a :class:`~repro.fl.features.FeatureRuntime` runs the full
  forward through the graph);
- :func:`repro.nn.fused.head_ops` admits the head (Linear/ReLU/Flatten,
  every Linear parameter trainable) and the plan can run it: a chain
  that starts with a Linear, over 1-D features of that Linear's width;
- the communicated θ is exactly the head's parameters, in the plan's
  slot order (:func:`aligned_cohort_layout`);
- the broadcast holds every θ key as a float64 array of its shape.

A backend plans every wave of rounds, a lone ``submit`` included, as
units: the eligible clients' cohorts (``cohort_units``, below), then
every other participant alone, through the rules above.

Plan caching: every plan a process holds sits in one module-level
``WeakKeyDictionary`` that maps the workspace model a plan runs on to
``{(head signature, feature shape): HeadLane}``. A plan is built once per
model and key, shared by every client that trains in that model, and
freed with it: with the run in the dispatching process, with the template
replica in a process worker. The cache is not a model attribute because
templates are pickled to workers. In-process solves run one at a time, so
it needs no lock.
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.fl.slab import SlabLayout, slab_successor
from repro.nn.fused import CohortPlan, head_ops
from repro.nn.linear import Linear
from repro.nn.segmented import SegmentedModel
from repro.nn.serialization import theta_keys
from repro.obs import tracing
from repro.obs.metrics import export_group

#: head-solver counters; *exported* so increments made inside process
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

#: every plan this process holds: workspace model -> {plan key: lane}
#: (a ``None`` value remembers a key that cannot plan, so the fallback
#: decision is made once per model, not per round)
_PLANS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


class HeadLane:
    """A model's :class:`~repro.nn.fused.CohortPlan` for one head and
    feature shape, with θ's lane layout.

    ``layout`` packs ``theta_keys`` exactly as the plan packs its slots,
    so a lane's θ row and a server slab are offset-identical.
    """

    __slots__ = ("plan", "layout")

    def __init__(self, plan: CohortPlan, layout: SlabLayout):
        self.plan = plan
        self.layout = layout

    def covers(self, state) -> bool:
        """Whether ``state`` can broadcast θ into the plan: a slab with this
        packing, or every θ key as a float64 array of its shape."""
        slab = getattr(state, "theta_slab", None)
        if slab is not None and state.layout.signature == self.layout.signature:
            return True
        get = getattr(state, "get", None)
        if get is None:
            return False
        for key, shape in self.layout.signature:
            value = get(key)
            if (
                not isinstance(value, np.ndarray)
                or value.shape != shape
                or value.dtype != np.float64
            ):
                return False
        return True

    def load(self, state) -> bool:
        """Broadcast ``state``'s θ into the plan's ``theta_row``: one memcpy
        from a slab with this packing, else a gather. False (nothing
        written) when the state does not :meth:`cover <covers>` θ; the
        caller then runs the graph, which reports its usual error."""
        slab = getattr(state, "theta_slab", None)
        if slab is not None and state.layout.signature == self.layout.signature:
            np.copyto(self.plan.theta_row, slab)
            STATS["theta_slab_loads"] += 1
            return True
        if not self.covers(state):
            return False
        self.layout.gather(state, self.plan.theta_row)
        return True

    def solve(self, features, labels, epochs: int, rng, solver) -> float:
        """One client's local solve as a one-lane cohort; the mean step loss.

        Trains from the θ :meth:`load` broadcast, which is also the
        FedProx reference. Draws one ``rng.permutation(k)`` per epoch, in
        epoch order, as ``DataLoader(shuffle=True)`` does.
        """
        plan = self.plan
        k = len(labels)
        plan.prepare(1, k, int(solver.batch_size), epochs)
        for epoch in range(epochs):
            plan.perms[epoch, 0] = rng.permutation(k)
        losses = plan.train(
            features,
            labels,
            lr=solver.lr,
            momentum=solver.momentum,
            prox_mu=solver.prox_mu,
        )
        return float(losses[0])

    def theta(self):
        """A copy of the lane's trained θ, as a slab-backed update."""
        return slab_successor({}, self.plan.theta_stack[0].copy(), self.layout)


def aligned_cohort_layout(model: SegmentedModel, layers) -> SlabLayout | None:
    """θ's lane layout for the head chain ``layers``, or None.

    A plan packs each Linear's weight then bias in chain order with the
    aligned packing :class:`~repro.fl.slab.SlabLayout` uses too, so the
    layout is ``theta_keys`` in that order — when ``theta_keys`` names
    exactly those parameters in that order (``named_parameters`` yields
    weight-then-bias in chain order, so it does for every standard
    model). None when θ holds anything else: the head then runs on the
    graph, since a plan would not cover precisely the update the graph
    solver applies.
    """
    names = {id(param): name for name, param in model.named_parameters()}
    items = [
        (names.get(id(param)), param.data.shape)
        for layer in layers
        if isinstance(layer, Linear)
        for param in (layer.weight, layer.bias)
        if param is not None
    ]
    if [name for name, _ in items] != theta_keys(model):
        return None
    return SlabLayout(items)


def _build_lane(model, layers, signature, shape) -> HeadLane | None:
    try:
        plan = CohortPlan(signature, shape)
    except ValueError:
        STATS["plan_failures"] += 1
        return None
    layout = aligned_cohort_layout(model, layers)
    if layout is None:
        STATS["plan_failures"] += 1
        return None
    STATS["plans_built"] += 1
    return HeadLane(plan, layout)


def head_lane(model: SegmentedModel, feature_shape: tuple) -> HeadLane | None:
    """The model's plan for its head over ``feature_shape`` features, or
    None when the head runs on the layer graph.

    Built on first use and shared by every later round, scoring pass and
    evaluation of every client in ``model`` with this head shape. The
    head's layers and signature come from the model's structure memo
    (:func:`~repro.nn.fused.head_ops`), so a lookup walks no modules.
    """
    layers, signature = head_ops(model)
    if layers is None:
        return None
    plans = _PLANS.get(model)
    if plans is None:
        plans = _PLANS[model] = {}
    key = (signature, tuple(feature_shape))
    lane = plans.get(key, False)
    if lane is False:
        lane = plans[key] = _build_lane(model, layers, signature, key[1])
    return lane


# ---------------------------------------------------------------------------
# Cohort solver: N clients' local rounds as one block-stacked solve.
#
# Grouping (``cohort_units``) keys this round's participants by everything
# that shapes the local solve — feature shape, selected count k, epochs,
# selector and solver hyperparameters — and hands each group of ≥2 to the
# model's plan (``solve_cohort``). The shard size n is not in the key:
# lanes of different n share a cohort, padded to the largest shard for
# selection scoring, which leaves every real row's bits unchanged (see
# CohortPlan, "Ragged rows"). Training sees only the k selected rows, so k
# is what fixes the solve's shape (with the full selector k = n, so those
# cohorts still split by n).
# Everything else (singletons, clients without cached features, custom
# clients, graph heads, exotic selectors/solvers/broadcast states) runs
# alone through ``Client.run_round``, the reference the cohort must match
# bitwise; each fallback reason is counted on ``solver.cohort.*``.
# ---------------------------------------------------------------------------

#: cohort-runtime counters; exported like STATS so worker-side increments
#: (cohort_solves) merge exactly into the parent registry
COHORT_STATS = export_group(
    "solver.cohort",
    {
        "cohorts": 0,
        "cohort_clients": 0,
        "cohort_solves": 0,
        "singletons": 0,
        "fallback_features": 0,
        "fallback_custom_client": 0,
        "fallback_unfusible": 0,
        "fallback_selector": 0,
        "fallback_solver": 0,
        "fallback_config": 0,
        "fallback_state": 0,
    },
)


def _cohort_key(client, model, global_state, shape, lanes):
    """``(None, grouping key)`` when the client can join a cohort, else
    ``(fallback reason, None)``; ``lanes`` caches shape → head lane."""
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
    selector = client.selector
    stype = type(selector)
    # No entropy-selection chunk size: cohorts score whole tiles, and
    # row-determinism makes chunking invisible.
    if stype is EntropySelector:
        sel_key = ("entropy", float(selector.temperature))
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
    if shape not in lanes:
        lanes[shape] = head_lane(model, shape)
    lane = lanes[shape]
    if lane is None:
        return "unfusible", None
    # The broadcast must cover the lane layout, so θ loads by one memcpy
    # or by ``layout.gather``; FedProx references are these same values.
    if not lane.covers(global_state):
        return "state", None
    solver_key = (
        float(solver.lr),
        float(solver.momentum),
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
    if head_ops(model)[0] is None:
        COHORT_STATS["fallback_unfusible"] += len(clients)
        return None
    lanes: dict[tuple, HeadLane | None] = {}
    groups: dict[tuple, list[int]] = {}
    for pos, (client, shape) in enumerate(zip(clients, feature_shapes)):
        reason, key = _cohort_key(client, model, global_state, shape, lanes)
        if key is None:
            COHORT_STATS["fallback_" + reason] += 1
            continue
        groups.setdefault(key, []).append(pos)
    units = []
    for key, positions in groups.items():
        if len(positions) < int(min_size):
            COHORT_STATS["singletons"] += len(positions)
            continue
        units.append((positions, lanes[key[0]].layout))
        COHORT_STATS["cohorts"] += 1
        COHORT_STATS["cohort_clients"] += len(positions)
    return units or None


def solve_cohort(clients, model, global_state, features_list, out=None):
    """Solve one cohort's local rounds in a single block-stacked plan.

    Preconditions (``cohort_units`` guarantees them): the clients share
    one grouping key and ``features_list[i]`` is client *i*'s full-shard
    features. Returns ``(theta stack (N × params), per-lane mean losses,
    selected, per-lane shard sizes)``, the stack packed by the model's
    lane layout, or None on a late disagreement (the caller then
    dispatches the members per client, which reproduces reference
    behaviour exactly). The stack is written into ``out`` (an N × params
    float64 array) when given — a process worker's rows of a shared
    result slot — and is otherwise a fresh copy of the plan's.

    Lanes may hold different shard sizes n_i (same selected count k).
    Entropy scoring runs over the plan's padded lane stack, but
    everything that reduces over a lane's own rows sees exactly its n_i:
    the entropy top-k and the random draw below are per-lane slices, and
    each lane's selected rows are gathered straight from its own features
    (no stack at all without scoring).

    Bitwise contract: every RNG draw is taken from each client's own
    generator in exactly ``Client.run_round``'s order — the selection
    draw (random selector only), then one ``permutation(k)`` per epoch —
    and every kernel replays the solo op sequence (see
    :class:`~repro.nn.fused.CohortPlan`), so lane *i*'s θ bytes, losses
    and RNG end state equal client *i*'s solo round.
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
    lane = head_lane(model, shape)
    if lane is None or not lane.load(global_state):
        return None
    plan = lane.plan
    solver = first.solver
    epochs = int(first.epochs)
    plan.prepare(len(clients), k, int(solver.batch_size), epochs)
    if stype is EntropySelector:
        stack = plan.score_stack(len(clients), max(sizes))
        for lane_rows, feats, n in zip(stack, features_list, sizes):
            lane_rows[:n] = feats
        with tracing.span("selection.entropy"):
            entropy = plan.entropy_scores(
                stack.reshape(-1, shape[0]), selector.temperature
            ).reshape(len(clients), -1)
    features, labels = plan.selected_rows()
    for i, (client, feats, n) in enumerate(zip(clients, features_list, sizes)):
        rows = slice(i * k, (i + 1) * k)
        if stype is EntropySelector:
            top = np.argpartition(entropy[i, :n], n - k)[n - k :]
            chosen = np.sort(top)
        elif stype is RandomSelector:
            chosen = np.sort(client.rng.choice(n, size=k, replace=False))
        else:  # k == n: every row, in order
            features[rows] = feats
            labels[rows] = client.dataset.labels
            continue
        feats.take(chosen, axis=0, out=features[rows])
        client.dataset.labels.take(chosen, out=labels[rows])
    for i, client in enumerate(clients):
        for epoch in range(epochs):
            plan.perms[epoch, i] = client.rng.permutation(k)
    with tracing.span("solver.cohort"):
        mean_losses = plan.train(
            features,
            labels,
            lr=solver.lr,
            momentum=solver.momentum,
            prox_mu=solver.prox_mu,
        )
    if out is None:
        out = plan.theta_stack.copy()
    else:
        out[...] = plan.theta_stack
    COHORT_STATS["cohort_solves"] += 1
    return out, mean_losses, k, sizes


def cohort_updates(layout, theta_stack, mean_losses, num_selected, sizes):
    """The lanes of a :func:`solve_cohort` result (unpacked after
    ``layout``) as slab-backed LocalUpdates in client order, each θ a row
    of the stack."""
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
    must not change results). The dispatcher prices the rounds (see
    :func:`cohort_round_seconds`).
    """
    solved = solve_cohort(clients, model, global_state, features_list)
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
        lane.plan.nbytes
        for lanes in _PLANS.values()
        for lane in lanes.values()
        if lane is not None
    )
