"""Campaign-scoped shared-memory runtime: the one owner of data entries.

A *campaign* (one :class:`~repro.experiments.common.ExperimentHarness`
driving the full experiment matrix) runs many federated runs over the same
partitioned worlds. Re-publishing each client's shard into fresh
``multiprocessing.shared_memory`` segments every run would be O(dataset)
copy work and segment churn per run, for bytes that are identical across
every method of a table (the harness caches partitions precisely so
methods compare on the same shards).

:class:`CampaignSegmentPool` owns every data entry a
:class:`~repro.engine.backends.ProcessPoolBackend` publishes — shards,
client descriptors, cached features and evaluation shards; each backend
creates its own. It is a refcounted registry keyed by the data's
*identity* — the harness keys shards by ``(seed, dataset, alpha,
num_clients, model_kind, client_id)``, i.e. the world + partition seed +
client id — so each distinct shard is published once per pool and every
later run (and its warm worker pool) reads the existing entry. An entry
is a byte range of a *batch* segment: one ``acquire_many`` publishes all
its new entries in one segment, so a dispatch wave creates a handful of
segments, not one per client and kind. Lifecycle:

- ``acquire_many([(key, factory, fingerprint), …])`` returns each key's
  entry, publishing the new ones with their factories' arrays — keyed
  and run-scoped keys in separate batches; each acquire takes one
  reference. ``acquire`` is the one-key form.
- ``release(key)`` drops a reference (a backend releases its entries when
  its run ends). Zero-reference entries stay resident — the next run
  re-acquires them for free — until ``close()`` unlinks every segment.
  Data with no stable identity takes a run-scoped key
  (:data:`RUN_KIND`), dropped with its last reference; its segment is
  unlinked with the batch's last entry.

The module also owns the *emergency cleanup registry*: shared-memory
segments are files under ``/dev/shm`` that outlive a crashed process, so
pools and backends (for their weight and template segments) register
themselves for a best-effort unlink on interpreter exit (``atexit``) and
on fatal signals (SIGTERM/SIGHUP — deliveries that normally bypass
``atexit``). Handlers chain to whatever was installed before them and
guard on the registering PID, so forked worker processes inheriting the
handler never unlink the parent's segments.
"""

from __future__ import annotations

import atexit
import os
import signal
import threading
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Callable, Hashable

import numpy as np

from repro.engine.faults import FAULTS, segment_fingerprint
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
# Entry layout and the campaign segment pool
# ---------------------------------------------------------------------------

#: alignment of every array inside a segment (cache line / SIMD friendly)
_ALIGN = 64


def _aligned(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


def _array_layout(
    arrays: dict[str, np.ndarray], start: int = 0
) -> tuple[dict[str, tuple[int, tuple, str]], int]:
    """Plan the packed layout ``key -> (offset, shape, dtype.str)`` of
    ``arrays`` from byte ``start`` on; returns it with its end offset."""
    layout: dict[str, tuple[int, tuple, str]] = {}
    offset = start
    for key in sorted(arrays):
        arr = np.ascontiguousarray(arrays[key])
        offset = _aligned(offset)
        layout[key] = (offset, tuple(arr.shape), arr.dtype.str)
        offset += arr.nbytes
    return layout, offset


def _write_arrays(buf, layout, arrays) -> None:
    for key, (offset, shape, dtype) in layout.items():
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=buf, offset=offset)
        view[...] = arrays[key]


#: kind of a run-scoped key: data with no stable identity (a client with
#: no ``shard_key``, a test set with no ``test_key``) is published under
#: ``(RUN_KIND, …)`` and unlinked when the run holding it releases it
RUN_KIND = "run"


def _key_kind(key: Hashable) -> object:
    """A pool key's kind: the first element of tuple keys ("shard", "feat",
    "eval", :data:`RUN_KIND`, …), "other" for everything else."""
    return key[0] if isinstance(key, tuple) and key else "other"


class _Batch:
    """One shared-memory segment holding the entries of one publish."""

    __slots__ = ("shm", "live")

    def __init__(self, shm: shared_memory.SharedMemory, live: int):
        self.shm = shm
        #: entries still registered; a run-scoped batch is unlinked with
        #: its last one
        self.live = live


@dataclass(eq=False)
class PoolEntry:
    """One published key: its arrays at a byte range of a batch segment."""

    key: Hashable
    batch: _Batch
    #: the entry's first byte in the segment, and its length
    offset: int
    nbytes: int
    #: packed layout ``name -> (offset, shape, dtype.str)``, offsets into
    #: the segment
    layout: dict
    #: backends currently holding this entry (a run in progress)
    refs: int = 0
    #: BLAKE2b fingerprint of the entry's byte range, taken at publish
    #: only when something will check it (see
    #: :meth:`CampaignSegmentPool.acquire_many`)
    fingerprint: bytes | None = None
    #: the most recent arrays factory for ``key`` — the repair path
    #: rewrites a corrupted entry from it
    factory: Callable[[], dict[str, np.ndarray]] | None = None

    @property
    def shm(self) -> shared_memory.SharedMemory:
        """The segment the entry lives in (shared with its batch)."""
        return self.batch.shm

    def digest(self) -> bytes:
        """Fingerprint of the entry's byte range as it reads now."""
        return segment_fingerprint(self.shm.buf[self.offset :], self.nbytes)

    def intact(self) -> bool:
        """Whether a fingerprinted entry still holds its published bytes."""
        return self.digest() == self.fingerprint


class CampaignSegmentPool:
    """Refcounted registry of shared-memory data entries.

    Not thread-safe for concurrent acquire/release from multiple scheduler
    threads; a campaign runs its federated runs sequentially, which is the
    supported pattern. ``stats`` counts ``publishes`` (entries actually
    published — the number the campaign benchmark pins to the
    distinct-client count), ``hits`` (acquires served from the registry),
    ``entries`` and ``bytes`` (currently resident), ``batches`` (shared-
    memory segments created, one per publish batch), and the re-acquire
    ``verifies`` and the ``corruptions`` they found.
    """

    #: key kinds that read through the durable store: derived artefacts
    #: that can be rebuilt (feature arrays, sharded test sets) — never the
    #: raw shards, which the caller's factory always supplies.
    READ_THROUGH_KINDS = ("feat", "eval")

    def __init__(self, store=None):
        #: optional durable :class:`repro.store.ArtifactStore`: publishes of
        #: :data:`READ_THROUGH_KINDS` read through it
        self.store = store
        self._entries: dict[Hashable, PoolEntry] = {}
        #: every segment not yet unlinked
        self._batches: list[_Batch] = []
        self._closed = False
        self.stats = CounterGroup(
            "campaign.pool",
            {
                "publishes": 0, "hits": 0, "entries": 0, "bytes": 0,
                "batches": 0, "verifies": 0, "corruptions": 0,
            },
        )
        #: publishes broken down by key kind — tuple keys' first element
        #: ("feat" / "eval" for the feature runtime's entries, "shard" or
        #: campaign-specific for shard labels, "raw" for raw shards,
        #: "client" for client descriptors, :data:`RUN_KIND` for
        #: run-scoped ones); what the campaign benchmarks assert
        #: publish-once economics against.
        self.publishes_by_kind: dict = CounterGroup(
            "campaign.pool.publishes_by_kind"
        )
        register_emergency_cleanup(self)

    def __len__(self) -> int:
        return len(self._entries)

    def acquire(
        self,
        key: Hashable,
        arrays_factory: Callable[[], dict[str, np.ndarray]],
        *,
        fingerprint: bool,
    ) -> PoolEntry:
        """The entry for ``key``, published on first use; takes one ref.

        A batch of one: see :meth:`acquire_many`.
        """
        return self.acquire_many([(key, arrays_factory, fingerprint)])[0]

    def acquire_many(self, requests) -> list[PoolEntry]:
        """The entries for ``requests``, ``(key, factory, fingerprint)``
        triples, in order; each takes one ref.

        Every key the pool does not hold yet is published in one
        shared-memory segment, keyed and run-scoped ones in separate
        batches: a run-scoped batch is unlinked with its last entry, a
        keyed one at :meth:`close`. A factory is only called (and its
        arrays only copied into shared memory) when its key is new — the
        point of the pool. ``fingerprint`` says whether anything will
        check the entry (a later run re-acquiring it, or a fault layer
        verifying it); only then is the fingerprint of its byte range
        taken, once, at publish. A caller passes the same value for every
        acquire of one key. Every re-acquire of a fingerprinted entry
        verifies it and rewrites it from the fresh factory on mismatch (a
        wild write from any attached process may have corrupted it
        since).
        """
        if self._closed:
            raise RuntimeError("segment pool is closed")
        new: dict = {}
        for key, factory, fingerprint in requests:
            if key not in self._entries and key not in new:
                new[key] = (key, factory, fingerprint)
        scoped = [key for key in new if _key_kind(key) == RUN_KIND]
        keyed = [key for key in new if _key_kind(key) != RUN_KIND]
        for batch in (keyed, scoped):
            if batch:
                self._publish([new[key] for key in batch])
        entries = []
        for key, factory, _ in requests:
            entry = self._entries[key]
            if new.pop(key, None) is None:
                self._hit(entry, factory)
            entry.refs += 1
            entries.append(entry)
        return entries

    def _publish(self, items) -> None:
        """Publish new ``(key, factory, fingerprint)`` items in one segment."""
        with tracing.span("pool.publish"):
            built = []
            end = 0
            for key, factory, _ in items:
                kind = _key_kind(key)
                if self.store is not None and kind in self.READ_THROUGH_KINDS:
                    # durable read-through for rebuildable kinds: a warm
                    # campaign publishes from a verified disk read instead
                    # of re-running the factory (bitwise identical bytes)
                    arrays, _ = self.store.get_or_build(key, factory)
                else:
                    arrays = factory()
                start = _aligned(end)
                layout, end = _array_layout(arrays, start)
                built.append((arrays, layout, start, end - start))
            shm = shared_memory.SharedMemory(create=True, size=max(end, 1))
            batch = _Batch(shm, len(items))
            self._batches.append(batch)
            for item, (arrays, layout, start, nbytes) in zip(items, built):
                key, factory, fingerprint = item
                _write_arrays(shm.buf, layout, arrays)
                entry = PoolEntry(
                    key=key, batch=batch, offset=start, nbytes=nbytes,
                    layout=layout, factory=factory,
                )
                if fingerprint:
                    entry.fingerprint = entry.digest()
                self._entries[key] = entry
                kind = _key_kind(key)
                by_kind = self.publishes_by_kind
                by_kind[kind] = by_kind.get(kind, 0) + 1
                self.stats["publishes"] += 1
                self.stats["bytes"] += nbytes
        self.stats["batches"] += 1
        self.stats["entries"] = len(self._entries)

    def _hit(self, entry: PoolEntry, factory) -> None:
        self.stats["hits"] += 1
        entry.factory = factory
        if entry.fingerprint is not None:
            self.stats["verifies"] += 1
            if not entry.intact():
                self.stats["corruptions"] += 1
                self._rewrite(entry)

    def _rewrite(self, entry: PoolEntry) -> None:
        """Rewrite a corrupted entry's bytes from its arrays factory."""
        with tracing.span("pool.repair"):
            _write_arrays(entry.shm.buf, entry.layout, entry.factory())
        entry.fingerprint = entry.digest()
        FAULTS["segment_repairs"] += 1

    def repair(self, key: Hashable) -> bool:
        """Rewrite ``key``'s entry from its factory (backend repair hook).

        Returns whether a resident entry was rewritten. Used by the
        process backend when a job's entry fails verification.
        """
        entry = self._entries.get(key)
        if entry is None or entry.factory is None:
            return False
        self._rewrite(entry)
        return True

    def release(self, key: Hashable) -> None:
        """Drop one reference. A keyed entry stays resident for the next
        run; a run-scoped one goes with its last reference, and its
        batch's segment with the batch's last entry."""
        entry = self._entries.get(key)
        if entry is None:
            return
        entry.refs = max(0, entry.refs - 1)
        if entry.refs == 0 and _key_kind(key) == RUN_KIND:
            del self._entries[key]
            self.stats["entries"] = len(self._entries)
            self.stats["bytes"] -= entry.nbytes
            batch = entry.batch
            batch.live -= 1
            if batch.live == 0:
                self._batches.remove(batch)
                unlink_segment(batch.shm)

    def peek(self, key: Hashable) -> PoolEntry | None:
        """The resident entry for ``key`` without publishing or taking a
        reference (e.g. a prefix-chain derivation base); None on miss."""
        return self._entries.get(key)

    def close(self) -> None:
        """Unlink every segment; the pool may not be reused after."""
        batches, self._batches = self._batches, []
        for batch in batches:
            unlink_segment(batch.shm)
        self._entries = {}
        self.stats["entries"] = 0
        self.stats["bytes"] = 0
        self._closed = True
        unregister_emergency_cleanup(self)

    def _emergency_cleanup(self) -> None:
        """Crash-path unlink (atexit/signal); idempotent, never raises."""
        batches, self._batches = self._batches, []
        for batch in batches:
            try:
                unlink_segment(batch.shm)
            except Exception:  # pragma: no cover - best effort
                pass
        self._entries = {}
        self._closed = True

    def __enter__(self) -> "CampaignSegmentPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
