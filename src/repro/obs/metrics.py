"""Unified metrics registry: typed counters/gauges/histograms in one tree.

PRs 3–5 each grew their own ad-hoc stats dict (``Server.eval_stats``,
``FeatureRuntime.stats``, ``CampaignSegmentPool.stats``,
``ProcessPoolBackend.stats``, and the fused-solver plan caches) with no
single place to read them. This module gives every counter a home in one
hierarchical namespace::

    campaign.pool.*      shm entry publishes / hits / bytes, batches
    server.eval.*        evaluation fast-path counters
    features.*           frozen-ϕ cache builds / hits / derived / bytes
    checkpoint.*         journal appends / rewrites / payload bytes
    comm.*               simulated θ / full-model traffic
    solver.fused.*       fused-kernel plan builds and solve counts
    backend.process.*    warm-worker job dispatch and payload sizes
    faults.*             retries / respawns / timeouts / degradations and
                         injected chaos events (see repro.engine.faults)

Three design constraints shape the types here:

1. **Compatibility** — the existing stats dicts are asserted against with
   plain dict equality in tests and benchmarks, so :class:`CounterGroup`
   *is* a dict (subclass) that merely knows its namespace. Call sites keep
   writing ``stats["hits"] += 1``.
2. **Worker-shard merge** — counters incremented inside
   ``ProcessPoolBackend`` workers (the fused solver runs there) must end
   up in the parent registry *exactly*, not sampled. Module-level groups
   register themselves via :func:`export_group`; workers snapshot them
   before a job (:func:`shard_baseline`), diff after
   (:func:`shard_delta`), and the delta rides the existing job-result
   tuple back to the parent, which folds it in with
   :func:`merge_exported`. Serial backends increment the very same group
   objects directly, which is what makes the merge *exactness* testable:
   work counters must sum to the serial counts.
3. **Determinism** — nothing here touches an RNG stream or feeds back
   into control flow; counters are write-only from the engine's point of
   view.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Iterator


class CounterGroup(dict):
    """A namespaced bundle of counters; behaves exactly like its dict.

    The subclass carries only the ``namespace`` used to flatten entries
    into dotted metric names — everything else (equality, iteration,
    ``+=`` updates, ``dict(group)`` copies) is inherited, so the ad-hoc
    stats dicts PRs 3–5 exposed keep their exact observable behaviour.
    """

    def __init__(self, namespace: str, initial: dict | None = None):
        super().__init__(initial or {})
        self.namespace = namespace

    def flat(self) -> dict[str, int | float]:
        """Entries as ``{"<namespace>.<key>": value}``."""
        prefix = self.namespace + "."
        return {prefix + key: value for key, value in self.items()}

    def add(self, other: dict) -> None:
        """Accumulate another group's (or plain dict's) counts into this."""
        for key, value in other.items():
            self[key] = self.get(key, 0) + value

    def __reduce__(self):
        # dict subclass with an extra attribute: make pickling explicit so
        # worker-side groups survive a spawn-context round trip unchanged.
        return (_rebuild_group, (self.namespace, dict(self)))


def _rebuild_group(namespace: str, items: dict) -> "CounterGroup":
    return CounterGroup(namespace, items)


class Histogram:
    """Streaming summary of an observed quantity (count/total/min/max).

    Deliberately bucket-free: telemetry must stay allocation-light on hot
    paths, and the run summaries only ever need totals and extremes.
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def summary(self) -> dict[str, float]:
        if not self.count:
            return {"count": 0, "total": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.total / self.count,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """One queryable tree over every counter group, gauge and histogram.

    Groups register directly (:meth:`register`) or through *sources* —
    callables returning the groups that exist right now
    (:meth:`add_source`). Sources cover the lazily-created runtime
    objects: a harness only builds its segment pool / feature runtime /
    campaign backend on first use, so the registry resolves them at
    snapshot time instead of at attach time.
    """

    def __init__(self):
        self._groups: dict[str, CounterGroup] = {}
        self._sources: list[Callable[[], Iterable[CounterGroup]]] = []
        self._gauges: dict[str, Callable[[], float]] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def register(self, group: CounterGroup) -> CounterGroup:
        with self._lock:
            self._groups[group.namespace] = group
        return group

    def group(self, namespace: str, initial: dict | None = None) -> CounterGroup:
        """The registered group for ``namespace``, created if absent."""
        with self._lock:
            group = self._groups.get(namespace)
            if group is None:
                group = CounterGroup(namespace, initial)
                self._groups[namespace] = group
            return group

    def add_source(self, source: Callable[[], Iterable[CounterGroup]]) -> None:
        with self._lock:
            self._sources.append(source)

    def gauge(self, name: str, read: Callable[[], float]) -> None:
        with self._lock:
            self._gauges[name] = read

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = Histogram(name)
                self._histograms[name] = hist
            return hist

    def _live_groups(self) -> Iterator[CounterGroup]:
        seen: set[int] = set()
        with self._lock:
            groups = list(self._groups.values())
            sources = list(self._sources)
        for group in groups:
            seen.add(id(group))
            yield group
        for source in sources:
            for group in source():
                if group is not None and id(group) not in seen:
                    seen.add(id(group))
                    yield group

    def counters(self) -> dict[str, float]:
        """Flat counter entries only (no gauges / histogram summaries).

        This is the baseline-able part of a snapshot: sessions diff two
        ``counters()`` calls to report "what happened while I was active"
        even though module-level groups outlive any one session.
        """
        out: dict[str, float] = {}
        for group in self._live_groups():
            out.update(group.flat())
        return out

    def snapshot(self) -> dict[str, float]:
        """Flat ``{dotted.name: value}`` view of the whole tree.

        Later registrations win on namespace collisions, matching the
        "session-owned accumulators shadow per-run groups" convention in
        :class:`repro.obs.report.TelemetrySession`.
        """
        out = self.counters()
        with self._lock:
            gauges = list(self._gauges.items())
            hists = list(self._histograms.values())
        for name, read in gauges:
            try:
                out[name] = read()
            except Exception:  # a gauge must never take a run down
                out[name] = float("nan")
        for hist in hists:
            for key, value in hist.summary().items():
                out[f"{hist.name}.{key}"] = value
        return out

    def merge(self, deltas: dict[str, float]) -> None:
        """Fold flat dotted-name deltas into the matching groups."""
        for name, value in deltas.items():
            namespace, _, key = name.rpartition(".")
            group = self.group(namespace)
            group[key] = group.get(key, 0) + value


# --------------------------------------------------------------------------
# Exported (module-level) groups and the worker-shard merge protocol.
#
# Code that runs inside worker processes (the fused solver, eval shards)
# cannot hold a reference to the parent's registry. It increments
# per-process singleton groups registered here; the shard helpers below
# diff them around each job so the parent can reconstruct exact totals.

_EXPORTED: dict[str, CounterGroup] = {}
_EXPORT_LOCK = threading.Lock()


def export_group(namespace: str, initial: dict | None = None) -> CounterGroup:
    """The per-process singleton group for ``namespace`` (idempotent)."""
    with _EXPORT_LOCK:
        group = _EXPORTED.get(namespace)
        if group is None:
            group = CounterGroup(namespace, initial)
            _EXPORTED[namespace] = group
        elif initial:
            for key, value in initial.items():
                group.setdefault(key, value)
        return group


def exported_groups() -> list[CounterGroup]:
    """Every module-level group in this process (a registry source)."""
    with _EXPORT_LOCK:
        return list(_EXPORTED.values())


def shard_baseline() -> dict[str, float]:
    """Snapshot of the exported counters, taken at worker-job entry."""
    out: dict[str, float] = {}
    for group in exported_groups():
        out.update(group.flat())
    return out


def shard_delta(baseline: dict[str, float]) -> dict[str, float] | None:
    """What this job added on top of ``baseline`` (``None`` if nothing).

    Returning ``None`` for idle jobs keeps the serialized job-result
    payload unchanged in the common no-counters case.
    """
    delta = {
        name: value - baseline.get(name, 0)
        for name, value in shard_baseline().items()
        if value != baseline.get(name, 0)
    }
    return delta or None


def merge_exported(delta: dict[str, float] | None) -> None:
    """Parent-side fold of a worker shard delta into this process's groups."""
    if not delta:
        return
    for name, value in delta.items():
        namespace, _, key = name.rpartition(".")
        group = export_group(namespace)
        group[key] = group.get(key, 0) + value


def reset_exported() -> None:
    """Zero every exported counter (tests and benchmarks only)."""
    for group in exported_groups():
        for key in group:
            group[key] = 0
