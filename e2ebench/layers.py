"""Per-layer attribution for the traced run.

The benchmark times the calls into each layer's public functions from its
own code: :class:`Tracer` replaces every function in :data:`HOOKS` with a
wrapper that records a span (name, bucket, start, end, parent span and
round id) in an in-memory :class:`SpanLog`. Nothing under ``src/`` is
edited; module-level functions are rebound wherever a ``repro`` module
holds a reference to them, methods are replaced on their class, and
:meth:`Tracer.uninstall` puts every original back.

A span's *self time* is its duration minus the part of it that its child
spans cover. Each bucket belongs to one layer of the program (see
:data:`BUCKET_LAYERS`); the ``other`` bucket holds the benchmark's own
code and program code no hook names, so the named layers' share of the
traced wall time is ``1 - other / wall``.

Spans of one synchronous round, or of one processed asynchronous event,
share a round id. Spans stay in memory and are exported once, at the
end, as Chrome trace-event JSON (:func:`chrome_trace`) that Perfetto and
``chrome://tracing`` load.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass

#: bucket -> the layer (module) its self time is charged to; ``other``
#: is the unattributed remainder
BUCKET_LAYERS = {
    "data.gen": "repro.data",
    "data.partition": "repro.data",
    "pretrain": "repro.pretrain",
    "model": "repro.nn",
    "store.get": "repro.store",
    "store.put": "repro.store",
    "features.lookup": "repro.fl.features",
    "features.build": "repro.fl.features",
    "selection.entropy": "repro.fl.selection",
    "selection.random": "repro.fl.selection",
    "solve.graph": "repro.fl.strategies",
    "solve.fused": "repro.fl.fastpath",
    "solve.client": "repro.fl.client",
    "aggregate": "repro.fl.server",
    "eval": "repro.fl.server",
    "loop": "repro.fl.rounds",
    "dispatch.submit": "repro.engine.backends",
    "dispatch.wait": "repro.engine.backends",
    "dispatch.teardown": "repro.engine.backends",
    "ckpt.save": "repro.fl.checkpoint",
    "other": None,
}


@dataclass(frozen=True)
class Hook:
    """One traced callable: ``module`` + dotted ``attr`` (``Class.method``
    or a module-level function), charged to ``bucket``.

    ``starts_round`` opens a new round id before the span begins (the
    sync loop's participant draw, the event loop's queue pop). ``split``
    is ``(namespace, key, bucket)``: when that exported counter grows
    during the call, the call is charged to that bucket instead.
    """

    bucket: str
    module: str
    attr: str
    starts_round: bool = False
    split: tuple[str, str, str] | None = None


#: Every traced entry point, grouped by layer. ``other``-bucket hooks are
#: program glue (harness and one-call runner) recorded for the trace
#: view only; their self time stays unattributed.
HOOKS: tuple[Hook, ...] = (
    Hook("other", "repro.core.fedft_eds", "run_fedft_eds"),
    Hook("other", "repro.experiments.common", "ExperimentHarness.federated"),
    Hook("other", "repro.experiments.common", "ExperimentHarness.build_federation"),
    # repro.data
    Hook("data.gen", "repro.data.synthetic", "make_vision_world"),
    Hook("data.gen", "repro.data.synthetic", "make_small_imagenet"),
    Hook("data.gen", "repro.data.synthetic", "make_cifar10"),
    Hook("data.gen", "repro.data.synthetic", "make_cifar100"),
    Hook("data.gen", "repro.data.synthetic", "_source_domain"),
    Hook("data.partition", "repro.data.partition", "dirichlet_partition"),
    # repro.pretrain and model construction
    Hook("pretrain", "repro.pretrain.pretrainer", "pretrain_model"),
    Hook("model", "repro.core.fedft_eds", "build_model"),
    Hook("model", "repro.experiments.common", "ExperimentHarness.build_model"),
    Hook("model", "repro.core.partial", "adapt_to_task"),
    Hook("model", "repro.core.partial", "prepare_partial_model"),
    # repro.store
    Hook("store.get", "repro.store", "ArtifactStore.get"),
    # a get_or_build that misses builds and writes the entry
    Hook(
        "store.get", "repro.store", "ArtifactStore.get_or_build",
        split=("store", "writes", "store.put"),
    ),
    Hook("store.get", "repro.store", "ArtifactStore.contains"),
    Hook("store.put", "repro.store", "ArtifactStore.put"),
    Hook("store.put", "repro.store", "ArtifactStore.spill"),
    # repro.fl.features
    Hook("features.lookup", "repro.fl.features", "FeatureRuntime.features_for"),
    Hook("features.build", "repro.fl.features", "compute_features"),
    Hook("features.build", "repro.fl.features", "derive_features"),
    # repro.fl.selection
    Hook("selection.entropy", "repro.fl.selection", "EntropySelector.select"),
    Hook("selection.random", "repro.fl.selection", "RandomSelector.select"),
    # local solve: the fused plan or the layer graph, whichever ran
    Hook(
        "solve.graph", "repro.fl.strategies", "LocalSolver.run",
        split=("solver.fused", "fused_solves", "solve.fused"),
    ),
    Hook("solve.fused", "repro.fl.fastpath", "run_cohort"),
    Hook("solve.fused", "repro.fl.fastpath", "cohort_units"),
    Hook("solve.client", "repro.fl.client", "Client.run_round"),
    # repro.fl.server, engine.aggregators
    Hook("aggregate", "repro.fl.server", "Server.aggregate"),
    Hook("aggregate", "repro.engine.aggregators", "FedBuffAggregator.apply"),
    Hook("aggregate", "repro.engine.aggregators", "FedBuffAggregator.flush"),
    Hook("eval", "repro.fl.server", "Server.evaluate"),
    Hook("eval", "repro.engine.backends", "PooledEvaluator.evaluate"),
    # repro.fl.rounds, engine.runner
    Hook("loop", "repro.fl.rounds", "run_federated_training"),
    Hook("loop", "repro.engine.runner", "run_async_federated_training"),
    Hook("loop", "repro.fl.sampling", "FullParticipation.participants", True),
    Hook("loop", "repro.engine.clock", "EventQueue.pop", True),
    # repro.engine.backends, engine.campaign
    Hook("dispatch.submit", "repro.engine.backends", "SerialBackend.submit"),
    Hook("dispatch.submit", "repro.engine.backends", "SerialBackend.submit_many"),
    Hook("dispatch.submit", "repro.engine.backends", "ProcessPoolBackend.submit"),
    Hook("dispatch.submit", "repro.engine.backends", "ProcessPoolBackend.submit_many"),
    Hook("dispatch.wait", "repro.engine.backends", "ExecutionBackend.map_round"),
    Hook("dispatch.wait", "repro.engine.backends", "ExecutionBackend.result"),
    Hook("dispatch.teardown", "repro.engine.backends", "ProcessPoolBackend.close"),
    Hook("dispatch.teardown", "repro.engine.campaign", "CampaignSegmentPool.close"),
    # repro.fl.checkpoint
    Hook("ckpt.save", "repro.fl.checkpoint", "save_async_checkpoint"),
    Hook("ckpt.save", "repro.fl.checkpoint", "save_checkpoint"),
)


class SpanLog:
    """Spans of one traced repetition, as parallel lists (cheap appends)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.buckets: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.rounds: list[int] = []
        self.round = 0
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def begin(self, name: str, bucket: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.buckets.append(bucket)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.rounds.append(self.round)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def end(self, index: int, bucket: str | None = None) -> None:
        self.ends[index] = self.clock()
        if bucket is not None:
            self.buckets[index] = bucket
        # Spans close in stack order; an exception unwinding through
        # several wrappers still closes each of them in turn.
        while self._stack and self._stack.pop() != index:
            pass

    def self_times(self) -> list[float]:
        return self_times(self.starts, self.ends, self.parents)

    def rollup(self) -> dict[str, dict]:
        """Per bucket: summed self time, span count and longest span."""
        out: dict[str, dict] = {}
        for i, own in enumerate(self.self_times()):
            entry = out.setdefault(
                self.buckets[i], {"self_s": 0.0, "count": 0, "max_s": 0.0}
            )
            entry["self_s"] += own
            entry["count"] += 1
            entry["max_s"] = max(entry["max_s"], self.ends[i] - self.starts[i])
        return out


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(
    starts: list[float], ends: list[float], parents: list[int]
) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span (overlapping children are not counted twice)."""
    covered: list[list[tuple[float, float]]] = [[] for _ in starts]
    for i, parent in enumerate(parents):
        if parent >= 0:
            covered[parent].append(
                (max(starts[i], starts[parent]), min(ends[i], ends[parent]))
            )
    return [
        (ends[i] - starts[i]) - _union_length(covered[i])
        for i in range(len(starts))
    ]


def _resolve(hook: Hook):
    """(owner, name, original) for a hook: a class or a module."""
    owner = importlib.import_module(hook.module)
    *path, name = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, vars(owner)[name]


class Tracer:
    """Installs the span wrappers and holds the current repetition's log.

    While :attr:`log` is None (untraced repetitions) or in a forked
    worker process, every wrapper calls straight through.
    """

    def __init__(self):
        self.log: SpanLog | None = None
        self.pid = os.getpid()
        self.patcher = Patcher()

    def _wrap(self, hook: Hook, original):
        tracer = self
        name = hook.attr
        bucket = hook.bucket
        starts_round = hook.starts_round
        counters = key = moved = None
        if hook.split is not None:
            from repro.obs.metrics import export_group

            namespace, key, moved = hook.split
            counters = export_group(namespace)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            log = tracer.log
            if log is None or os.getpid() != tracer.pid:
                return original(*args, **kwargs)
            if starts_round:
                log.round += 1
            before = counters[key] if counters is not None else None
            index = log.begin(name, bucket)
            try:
                return original(*args, **kwargs)
            finally:
                log.end(
                    index,
                    moved if counters is not None and counters[key] > before else None,
                )

        return wrapper

    def install(self) -> "Tracer":
        for hook in HOOKS:
            owner, name, original = _resolve(hook)
            wrapper = self._wrap(hook, original)
            if isinstance(owner, type):
                self.patcher.set(owner, name, wrapper)
            else:
                self.patcher.rebind(original, wrapper)
        return self

    def uninstall(self) -> None:
        self.patcher.restore()


class Patcher:
    """Replaces attributes of classes and modules, and puts them back."""

    def __init__(self):
        self._undo: list[tuple] = []

    def set(self, owner, name, value) -> None:
        """``owner.name = value`` for a class, or ``owner[name] = value``
        for a namespace or other dict, remembering the old value."""
        if isinstance(owner, dict):
            self._undo.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._undo.append((owner, name, vars(owner)[name]))
            setattr(owner, name, value)

    def rebind(self, original, replacement) -> None:
        """Point every reference a ``repro`` module holds to ``original``
        at ``replacement``: module globals (``from x import f`` copies
        included) and the values of module-level plain dicts (dispatch
        tables)."""
        for modname, module in list(sys.modules.items()):
            if module is None or modname.split(".")[0] != "repro":
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    self.set(namespace, key, replacement)
                elif type(value) is dict:
                    for inner, item in list(value.items()):
                        if item is original:
                            self.set(value, inner, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)


def chrome_trace(logs: list[SpanLog]) -> dict:
    """Chrome trace-event JSON of ``logs``, one thread lane per log."""
    events: list[dict] = []
    origin = min((log.starts[0] for log in logs if len(log)), default=0.0)
    for lane, log in enumerate(logs, start=1):
        events.append(
            {
                "name": "thread_name", "ph": "M", "pid": 1, "tid": lane,
                "args": {"name": f"traced repetition {lane}"},
            }
        )
        own = log.self_times()
        for i in range(len(log)):
            events.append(
                {
                    "name": log.names[i],
                    "cat": log.buckets[i],
                    "ph": "X",
                    "pid": 1,
                    "tid": lane,
                    "ts": (log.starts[i] - origin) * 1e6,
                    "dur": (log.ends[i] - log.starts[i]) * 1e6,
                    "args": {
                        "round": log.rounds[i],
                        "parent": log.parents[i],
                        "self_us": own[i] * 1e6,
                    },
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
