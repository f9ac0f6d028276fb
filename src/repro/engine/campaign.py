"""Campaign-scoped shared-memory runtime: cross-run segment reuse.

A *campaign* (one :class:`~repro.experiments.common.ExperimentHarness`
driving the full experiment matrix) runs many federated runs over the same
partitioned worlds. Before this module, every run's
:class:`~repro.engine.backends.ProcessPoolBackend` re-published each
client's shard into fresh ``multiprocessing.shared_memory`` segments —
O(dataset) copy work and segment churn per run, for bytes that are
identical across every method of a table (the harness caches partitions
precisely so methods compare on the same shards).

:class:`CampaignSegmentPool` lifts shard segments to campaign scope: a
refcounted registry keyed by the shard's *identity* — the harness uses
``(seed, dataset, alpha, num_clients, model_kind, client_id)``, i.e. the
world + partition seed + client id — so each distinct shard is published
once per campaign and every subsequent run (and its warm worker pool)
attaches to the existing segment. Lifecycle:

- ``acquire(key, factory)`` returns the segment for ``key``, publishing it
  with the factory's arrays only on first use; each acquire takes one
  reference.
- ``release(key)`` drops a reference (a backend releases its shards when
  its run ends). Zero-reference segments stay resident — the next run
  re-acquires them for free — until ``close()`` unlinks everything.

The module also owns the *emergency cleanup registry*: shared-memory
segments are files under ``/dev/shm`` that outlive a crashed process, so
pools and backends register themselves for a best-effort unlink on
interpreter exit (``atexit``) and on fatal signals (SIGTERM/SIGHUP —
deliveries that normally bypass ``atexit``). Handlers chain to whatever
was installed before them and guard on the registering PID, so forked
worker processes inheriting the handler never unlink the parent's
segments.
"""

from __future__ import annotations

import atexit
import os
import signal
import threading
import weakref
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Callable, Hashable

import numpy as np

from repro.obs import tracing
from repro.obs.metrics import CounterGroup

# ---------------------------------------------------------------------------
# Emergency cleanup registry (atexit + fatal-signal best effort)
# ---------------------------------------------------------------------------

_CLEANUP_LOCK = threading.Lock()
_CLEANUP: "weakref.WeakSet" = weakref.WeakSet()
_HANDLERS_INSTALLED = False
#: signals that terminate the process without running ``atexit`` hooks
_FATAL_SIGNALS = tuple(
    sig
    for name in ("SIGTERM", "SIGHUP")
    if (sig := getattr(signal, name, None)) is not None
)


def _run_emergency_cleanup() -> None:
    """Unlink every registered owner's segments; never raises."""
    pid = os.getpid()
    with _CLEANUP_LOCK:
        owners = list(_CLEANUP)
    for owner in owners:
        # Fork children inherit the registry; only the creating process
        # owns the segments' lifetime.
        if getattr(owner, "_owner_pid", pid) != pid:
            continue
        try:
            owner._emergency_cleanup()
        except Exception:  # pragma: no cover - cleanup must never throw
            pass


def _cleanup_and_reraise(signum: int, frame) -> None:
    _run_emergency_cleanup()
    # Restore the default disposition and re-deliver so the exit status
    # still reports death-by-signal.
    signal.signal(signum, signal.SIG_DFL)
    os.kill(os.getpid(), signum)


def _install_signal_handlers() -> None:
    """Intercept fatal signals that would bypass ``atexit`` — and only those.

    A signal is taken over only while its disposition is ``SIG_DFL``
    (terminate without cleanup). Anything else is the application's
    decision and must keep working: ``SIG_IGN`` (e.g. ``nohup``'s SIGHUP)
    keeps the process alive, and a custom handler may shut down gracefully
    — in both cases segments must stay valid, and a graceful exit reaches
    the ``atexit`` hook anyway.
    """
    global _HANDLERS_INSTALLED
    if _HANDLERS_INSTALLED:
        return
    for sig in _FATAL_SIGNALS:
        try:
            if signal.getsignal(sig) is signal.SIG_DFL:
                signal.signal(sig, _cleanup_and_reraise)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            return  # leave _HANDLERS_INSTALLED False; atexit still covers us
    _HANDLERS_INSTALLED = True


def register_emergency_cleanup(owner) -> None:
    """Best-effort segment unlink for ``owner`` if the process dies uncleanly.

    ``owner`` must expose an idempotent ``_emergency_cleanup()``; it is held
    weakly, so explicit ``close()`` + garbage collection unregisters it
    naturally. Registration is per-process (``_owner_pid`` is stamped here).
    """
    owner._owner_pid = os.getpid()
    with _CLEANUP_LOCK:
        _CLEANUP.add(owner)
    _install_signal_handlers()


def unregister_emergency_cleanup(owner) -> None:
    with _CLEANUP_LOCK:
        _CLEANUP.discard(owner)


atexit.register(_run_emergency_cleanup)


def unlink_segment(shm: shared_memory.SharedMemory) -> None:
    """Detach and unlink a segment, tolerating one already unlinked.

    The single unlink idiom shared by the pool, the process backend and
    the emergency-cleanup paths, so lifetime fixes land in one place.
    """
    shm.close()
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass


# ---------------------------------------------------------------------------
# Campaign segment pool
# ---------------------------------------------------------------------------


def _key_kind(key: Hashable) -> object:
    """A pool key's kind: the first element of tuple keys ("shard", "feat",
    "eval", …), "other" for everything else."""
    return key[0] if isinstance(key, tuple) and key else "other"


@dataclass
class PoolSegment:
    """One published shard segment plus its bookkeeping."""

    key: Hashable
    shm: shared_memory.SharedMemory
    #: packed layout ``name -> (offset, shape, dtype.str)`` (see backends)
    layout: dict
    nbytes: int
    #: backends currently holding this segment (a run in progress)
    refs: int = 0
    #: BLAKE2b fingerprint of the published bytes, checked on every
    #: re-acquire (see :func:`repro.engine.faults.segment_fingerprint`)
    fingerprint: bytes | None = None
    #: the most recent arrays factory for ``key`` — the repair path
    #: republishes a corrupted segment from it
    factory: Callable[[], dict[str, np.ndarray]] | None = None


class CampaignSegmentPool:
    """Refcounted, campaign-lifetime registry of shared-memory segments.

    Not thread-safe for concurrent acquire/release from multiple scheduler
    threads; a campaign runs its federated runs sequentially, which is the
    supported pattern. ``stats`` counts ``publishes`` (segments actually
    created — the number the campaign benchmark pins to the distinct-client
    count), ``hits`` (acquires served from the registry) and ``segments``
    (currently resident).
    """

    #: key kinds that read through the durable store: derived artefacts
    #: that can be rebuilt (feature arrays, sharded test sets) — never the
    #: raw shards, which the caller's factory always supplies.
    READ_THROUGH_KINDS = ("feat", "eval")

    def __init__(self, store=None):
        #: optional durable :class:`repro.store.ArtifactStore`: publishes of
        #: :data:`READ_THROUGH_KINDS` read through it
        self.store = store
        self._segments: dict[Hashable, PoolSegment] = {}
        self._closed = False
        self.stats = CounterGroup(
            "campaign.pool",
            {
                "publishes": 0, "hits": 0, "segments": 0, "bytes": 0,
                "verifies": 0, "corruptions": 0,
            },
        )
        #: publishes broken down by key kind — tuple keys' first element
        #: ("feat" / "eval" for the feature runtime's segments, "shard" or
        #: campaign-specific for raw shards); what the campaign benchmarks
        #: assert publish-once economics against.
        self.publishes_by_kind: dict = CounterGroup(
            "campaign.pool.publishes_by_kind"
        )
        register_emergency_cleanup(self)

    def __len__(self) -> int:
        return len(self._segments)

    def acquire(
        self,
        key: Hashable,
        arrays_factory: Callable[[], dict[str, np.ndarray]],
    ) -> PoolSegment:
        """The segment for ``key``, published on first use; takes one ref.

        ``arrays_factory`` is only called (and its arrays only copied into
        shared memory) when the key is new — the point of the pool.
        """
        # Import here: backends imports campaign consumers lazily and the
        # layout helpers live next to the other segment code.
        from repro.engine.backends import _array_layout, _write_arrays

        from repro.engine.faults import segment_fingerprint

        if self._closed:
            raise RuntimeError("segment pool is closed")
        segment = self._segments.get(key)
        if segment is None:
            kind = _key_kind(key)
            with tracing.span("pool.publish"):
                if self.store is not None and kind in self.READ_THROUGH_KINDS:
                    # durable read-through for rebuildable kinds: a warm
                    # campaign publishes from a verified disk read instead
                    # of re-running the factory (bitwise identical bytes)
                    arrays, _ = self.store.get_or_build(key, arrays_factory)
                else:
                    arrays = arrays_factory()
                layout, nbytes = _array_layout(arrays)
                shm = shared_memory.SharedMemory(create=True, size=nbytes)
                _write_arrays(shm.buf, layout, arrays)
            segment = PoolSegment(
                key=key,
                shm=shm,
                layout=layout,
                nbytes=nbytes,
                fingerprint=segment_fingerprint(shm.buf, nbytes),
                factory=arrays_factory,
            )
            self._segments[key] = segment
            self.stats["publishes"] += 1
            self.stats["bytes"] += nbytes
            self.publishes_by_kind[kind] = self.publishes_by_kind.get(kind, 0) + 1
            self.stats["segments"] = len(self._segments)
            segment.refs += 1
            return segment
        self.stats["hits"] += 1
        # Re-attach verification: a campaign-lifetime segment may have been
        # silently corrupted since it was published (a wild write from any
        # attached process); check the stored fingerprint before handing it
        # to a new run and republish from the fresh factory on mismatch.
        segment.factory = arrays_factory
        self.stats["verifies"] += 1
        if segment_fingerprint(segment.shm.buf, segment.nbytes) != (
            segment.fingerprint
        ):
            self.stats["corruptions"] += 1
            self._rewrite(segment)
        segment.refs += 1
        return segment

    def _rewrite(self, segment: PoolSegment) -> None:
        """Republish a corrupted segment's bytes from its arrays factory."""
        from repro.engine.backends import _write_arrays
        from repro.engine.faults import FAULTS, segment_fingerprint

        with tracing.span("pool.repair"):
            _write_arrays(segment.shm.buf, segment.layout, segment.factory())
        segment.fingerprint = segment_fingerprint(
            segment.shm.buf, segment.nbytes
        )
        FAULTS["segment_repairs"] += 1

    def repair(self, key: Hashable) -> bool:
        """Rewrite ``key``'s segment from its factory (backend repair hook).

        Returns whether a resident segment was rewritten. Used by the
        process backend when a worker reports :class:`SegmentCorruption`
        on a pool-owned segment.
        """
        segment = self._segments.get(key)
        if segment is None or segment.factory is None:
            return False
        self._rewrite(segment)
        return True

    def release(self, key: Hashable) -> None:
        """Drop one reference; the segment stays resident for the next run."""
        segment = self._segments.get(key)
        if segment is None:
            return
        segment.refs = max(0, segment.refs - 1)

    def peek(self, key: Hashable) -> PoolSegment | None:
        """The resident segment for ``key`` without publishing or taking a
        reference (e.g. a prefix-chain derivation base); None on miss."""
        return self._segments.get(key)

    def close(self) -> None:
        """Unlink every segment; the pool may not be reused after."""
        for segment in self._segments.values():
            unlink_segment(segment.shm)
        self._segments = {}
        self.stats["segments"] = 0
        self.stats["bytes"] = 0
        self._closed = True
        unregister_emergency_cleanup(self)

    def _emergency_cleanup(self) -> None:
        """Crash-path unlink (atexit/signal); idempotent, never raises."""
        for segment in list(self._segments.values()):
            try:
                unlink_segment(segment.shm)
            except Exception:  # pragma: no cover - best effort
                pass
        self._segments = {}
        self._closed = True

    def __enter__(self) -> "CampaignSegmentPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
