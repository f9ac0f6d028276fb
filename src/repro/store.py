"""Durable content-addressed artifact store: crash-safe cross-campaign caching.

Campaigns repeatedly rebuild artifacts that are pure functions of their
configuration — pretrained ϕ backbones, materialised feature segments
(keyed by the BLAKE2b ϕ fingerprints / ``phi_prefix_chain()`` digests the
backends already publish), benchmark baselines. This module persists them
under ``${REPRO_CACHE:-~/.cache/repro}`` so the experiment matrix
warm-starts across processes and days, **bitwise identical** to a cold
run.

Robustness is the contract, not a best effort:

- **Every write is durable or invisible.** Payload and CRC sidecar are
  each staged, fsynced and ``os.replace``-committed (the shared
  :func:`repro.utils.commit_staged` primitive extracted from the PR 9
  checkpoint writers); the sidecar commit is the entry's commit point, so
  a crash at any instant leaves either a complete entry or a torn one —
  never a partial read.
- **Every read is verified.** Loads CRC-check the payload against the
  sidecar; corrupt or torn entries are quarantined to ``quarantine/``
  and transparently rebuilt. A rebuilt entry must be byte-identical
  (content digest) to the quarantined one, otherwise the key is counted
  as *poisoned* and reported — a poisoned key means the key under-pins
  its inputs, which would silently break bitwise reproducibility.
- **Concurrent campaigns coordinate.** Per-entry ``O_CREAT|O_EXCL`` file
  locks (pid + timestamp) serialise builders; waiters re-probe under the
  lock and read the winner's entry instead of rebuilding (single-builder
  semantics). Locks from dead processes are detected and broken.
- **In-memory caches read through.** ``FeatureRuntime`` and
  ``CampaignSegmentPool`` (feature and test-set segments) probe the store
  on a miss and write fresh builds through; the disk budget GCs
  least-recently-used entries, skipping refcount-pinned ones.

Chaos hooks: ``ChaosPlan``'s ``disk-tear`` / ``disk-corrupt`` kinds fire
inside :meth:`ArtifactStore._put_locked`, tearing a write between the
payload and sidecar commits or flipping a committed byte, so the
quarantine/rebuild path is testable with the same seeded replayable
matrices as the rest of the fault layer.

On-disk layout (see DESIGN.md "Persistent artifact store")::

    <root>/objects/<kind>-<keydigest>.npz    payload (npz or json codec)
    <root>/objects/<kind>-<keydigest>.meta   CRC sidecar (JSON, commit point)
    <root>/objects/<kind>-<keydigest>.lock   per-entry builder lock
    <root>/quarantine/<entryname>.<pid>-<n>  quarantined corrupt/torn files

Everything observable lands in the exported ``store.*`` counter group so
telemetry sessions pick it up with zero wiring.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
import warnings
import zlib
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import numpy as np

from repro.engine.faults import FAULTS, active_chaos
from repro.obs import metrics as obs_metrics
from repro.utils import commit_staged

#: every store event, exported for exact worker-shard merge and telemetry
STORE = obs_metrics.export_group(
    "store",
    {
        "hits": 0,
        "misses": 0,
        "builds_avoided": 0,
        "verifies": 0,
        "corruptions": 0,
        "quarantines": 0,
        "rebuilds": 0,
        "poisoned": 0,
        "writes": 0,
        "bytes": 0,
        "spills": 0,
        "evictions": 0,
        "lock_waits": 0,
        "locks_broken": 0,
    },
)

#: bump when the sidecar or payload encoding changes incompatibly
FORMAT = 1

_KIND_RE = re.compile(r"[^a-z0-9_-]+")
_SUFFIXES = (".npz", ".json", ".meta", ".lock")


def default_root() -> str:
    """``$REPRO_CACHE`` if set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def _canonical(key: Any) -> Any:
    """Normalise a key to a JSON-stable structure (bytes → hex)."""
    if key is None or isinstance(key, (bool, int, str)):
        return key
    if isinstance(key, float):
        return repr(key)  # repr round-trips; json would localise precision
    if isinstance(key, bytes):
        return "0x" + key.hex()
    if isinstance(key, (tuple, list)):
        return [_canonical(item) for item in key]
    raise TypeError(f"unsupported artifact key component: {key!r}")


def canonical_key(key: Any) -> str:
    """Deterministic string form of ``key`` (what the digest covers)."""
    return json.dumps(_canonical(key), separators=(",", ":"))


def key_digest(key: Any) -> str:
    """Content address of ``key``: BLAKE2b-16 of its canonical form."""
    return hashlib.blake2b(
        canonical_key(key).encode("utf-8"), digest_size=16
    ).hexdigest()


def arrays_digest(arrays: dict[str, np.ndarray]) -> str:
    """Order-independent content digest of a named-array payload.

    Hashes (name, dtype, shape, bytes) per array in sorted key order —
    the identity a rebuilt entry must reproduce exactly. Deliberately not
    a digest of the npz file bytes: zip containers embed timestamps, so
    identical arrays would hash differently across writes.
    """
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(arrays):
        value = np.ascontiguousarray(arrays[name])
        h.update(name.encode("utf-8"))
        h.update(str(value.dtype).encode("ascii"))
        h.update(repr(value.shape).encode("ascii"))
        h.update(value.tobytes())
    return h.hexdigest()


def _json_digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def check_store_knobs(
    artifact_store: "ArtifactStore | bool | None",
    cache_dir: str | os.PathLike | None,
) -> None:
    """Refuse a ``cache_dir`` for a store that ``artifact_store=False``
    turns off: one of the two settings would be silently dropped."""
    if artifact_store is False and cache_dir is not None:
        raise ValueError(
            f"cache_dir={os.fspath(cache_dir)!r} names an artifact store "
            f"directory, but artifact_store=False turns the store off; "
            f"set only one of them"
        )


def resolve_store(
    artifact_store: "ArtifactStore | bool | None" = None,
    cache_dir: str | os.PathLike | None = None,
) -> "ArtifactStore | None":
    """The config-knob convention shared by the runner, campaign and harness.

    An :class:`ArtifactStore` instance passes through; ``True`` forces a
    store at ``cache_dir`` (or :func:`default_root`); ``False`` forces it
    off, and refuses a ``cache_dir`` (:func:`check_store_knobs`); ``None``
    enables one exactly when ``cache_dir`` is set — so programmatic
    callers never touch ``~/.cache`` unless they ask to.
    """
    check_store_knobs(artifact_store, cache_dir)
    if isinstance(artifact_store, ArtifactStore):
        return artifact_store
    if artifact_store is None:
        artifact_store = cache_dir is not None
    return ArtifactStore(cache_dir) if artifact_store else None


class ArtifactStore:
    """Disk-backed content-addressed store of named-array / JSON entries.

    Keys are arbitrary nests of str/int/float/bytes/None/tuple (the repo
    convention: ``("feat", *shard_key, fingerprint)``, ``("pretrain",
    ...)`` — the BLAKE2b fingerprint bytes go in verbatim). ``byte_budget``
    bounds total on-disk size; ``trim`` evicts LRU unpinned entries.
    """

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        byte_budget: int | None = None,
        lock_timeout: float = 60.0,
        stale_lock_after: float = 60.0,
    ):
        self.root = os.path.abspath(os.fspath(root) if root else default_root())
        self.objects_dir = os.path.join(self.root, "objects")
        self.quarantine_dir = os.path.join(self.root, "quarantine")
        os.makedirs(self.objects_dir, exist_ok=True)
        os.makedirs(self.quarantine_dir, exist_ok=True)
        self.byte_budget = byte_budget
        self.lock_timeout = lock_timeout
        self.stale_lock_after = stale_lock_after
        #: entry base name → pin refcount (pinned entries survive trim)
        self._pins: dict[str, int] = {}
        #: entry base name → last quarantined sidecar; keeps the rebuild /
        #: poison accounting intact when the quarantine happened on an
        #: earlier ``get`` and the rebuild on a later ``get_or_build``
        self._stale_meta: dict[str, dict] = {}
        self._quarantine_seq = 0

    # -- paths ---------------------------------------------------------

    def _base(self, key: Any) -> str:
        kind = "obj"
        if isinstance(key, (tuple, list)) and key and isinstance(key[0], str):
            kind = _KIND_RE.sub("-", key[0].lower()) or "obj"
        return os.path.join(self.objects_dir, f"{kind}-{key_digest(key)}")

    # -- quarantine ----------------------------------------------------

    def _quarantine(self, *paths: str) -> bool:
        """Move existing ``paths`` aside; True if anything was moved."""
        moved = False
        for path in paths:
            if not os.path.exists(path):
                continue
            self._quarantine_seq += 1
            dest = os.path.join(
                self.quarantine_dir,
                f"{os.path.basename(path)}.{os.getpid()}-{self._quarantine_seq}",
            )
            try:
                os.replace(path, dest)
                moved = True
            except OSError:  # cross-device or raced away: drop instead
                try:
                    os.unlink(path)
                    moved = True
                except OSError:
                    pass
        return moved

    # -- probe / load --------------------------------------------------

    def _probe(self, key: Any) -> tuple[Any | None, dict | None]:
        """(value, sidecar) — or (None, stale sidecar) after quarantining.

        The stale sidecar (returned only when a corrupt/torn entry was
        just quarantined) carries the recorded content digest, which
        ``get_or_build`` compares against the rebuilt value to detect
        poisoned keys.
        """
        base = self._base(key)
        name = os.path.basename(base)
        meta_path = base + ".meta"
        lock_path = base + ".lock"
        payload_candidates = (base + ".npz", base + ".json")
        if not os.path.exists(meta_path):
            # payload without sidecar: a torn write (crash or disk-tear
            # chaos between the payload and sidecar commits) — unless a
            # live builder holds the lock, in which case the write is
            # simply in flight and this is an ordinary miss
            if os.path.exists(lock_path) and not self._lock_is_stale(lock_path):
                return None, None
            if self._quarantine(*payload_candidates):
                STORE["quarantines"] += 1
                self._stale_meta[name] = {"torn": True}
                return None, {"torn": True}
            return None, None
        try:
            with open(meta_path, "r", encoding="utf-8") as f:
                meta = json.load(f)
        except (OSError, ValueError):
            STORE["quarantines"] += 1
            self._quarantine(meta_path, *payload_candidates)
            self._stale_meta[name] = {"torn": True}
            return None, None
        payload_path = os.path.join(
            self.objects_dir, os.path.basename(str(meta.get("payload", "")))
        )
        if not meta.get("payload") or not os.path.exists(payload_path):
            STORE["quarantines"] += 1
            self._quarantine(meta_path, *payload_candidates)
            self._stale_meta[name] = meta
            return None, meta
        try:
            with open(payload_path, "rb") as f:
                data = f.read()
        except OSError:
            STORE["quarantines"] += 1
            self._quarantine(meta_path, *payload_candidates)
            self._stale_meta[name] = meta
            return None, meta
        STORE["verifies"] += 1
        if (
            meta.get("format") != FORMAT
            or len(data) != meta.get("nbytes")
            or zlib.crc32(data) != meta.get("crc")
        ):
            STORE["corruptions"] += 1
            STORE["quarantines"] += 1
            self._quarantine(meta_path, *payload_candidates)
            self._stale_meta[name] = meta
            return None, meta
        if meta.get("codec") == "json":
            value: Any = json.loads(data.decode("utf-8"))
        else:
            import io

            with np.load(io.BytesIO(data), allow_pickle=False) as archive:
                value = {name: archive[name].copy() for name in archive.files}
        # touch for LRU recency (trim orders by payload mtime)
        try:
            os.utime(payload_path)
        except OSError:
            pass
        return value, meta

    # -- locks ---------------------------------------------------------

    def _lock_is_stale(self, lock_path: str) -> bool:
        try:
            with open(lock_path, "r", encoding="utf-8") as f:
                pid = int(f.read().split()[0])
        except (OSError, ValueError, IndexError):
            pid = None  # mid-write or mangled: fall through to age check
        if pid is not None:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return True  # owner is gone
            except (PermissionError, OSError):
                pass  # alive under another uid, or not checkable
        try:
            age = time.time() - os.stat(lock_path).st_mtime
        except OSError:
            return False  # raced away; not ours to break
        return age > self.stale_lock_after

    @contextmanager
    def _entry_lock(self, key: Any) -> Iterator[None]:
        """Per-entry builder lock with stale-lock breaking."""
        lock_path = self._base(key) + ".lock"
        start = time.monotonic()
        waited = False
        while True:
            try:
                fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if self._lock_is_stale(lock_path) or (
                    time.monotonic() - start > self.lock_timeout
                ):
                    try:
                        os.unlink(lock_path)
                        STORE["locks_broken"] += 1
                    except FileNotFoundError:
                        pass
                    continue
                if not waited:
                    waited = True
                    STORE["lock_waits"] += 1
                time.sleep(0.01)
                continue
            try:
                os.write(fd, f"{os.getpid()} {time.time():.3f}".encode("ascii"))
            finally:
                os.close(fd)
            break
        try:
            yield
        finally:
            try:
                os.unlink(lock_path)
            except FileNotFoundError:
                pass

    # -- write ---------------------------------------------------------

    def _put_locked(self, key: Any, value: Any, codec: str) -> bool:
        """Write an entry (caller holds the lock). True once durable."""
        base = self._base(key)
        payload_path = base + (".json" if codec == "json" else ".npz")
        if codec == "json":
            body = json.dumps(value, sort_keys=True).encode("utf-8")
            content = _json_digest(body)

            def write_payload(staging: str) -> None:
                with open(staging, "wb") as f:
                    f.write(body)

        else:
            content = arrays_digest(value)

            def write_payload(staging: str) -> None:
                with open(staging, "wb") as f:
                    # an open file handle, not a path: np.savez would
                    # append ".npz" to the staging name otherwise
                    np.savez(f, **{k: np.asarray(v) for k, v in value.items()})

        plan = active_chaos()
        fault = plan.disk_fault_for_write() if plan is not None else None
        commit_staged(payload_path, write_payload)
        with open(payload_path, "rb") as f:
            data = f.read()
        STORE["writes"] += 1
        STORE["bytes"] += len(data)
        if fault == "disk-tear":
            # crash window between payload and sidecar commit: the entry
            # stays torn until a reader quarantines and rebuilds it
            FAULTS["chaos_disk_tears"] += 1
            return False
        meta = {
            "format": FORMAT,
            "key": canonical_key(key),
            "payload": os.path.basename(payload_path),
            "codec": codec,
            "crc": zlib.crc32(data),
            "nbytes": len(data),
            "content": content,
        }

        def write_meta(staging: str) -> None:
            with open(staging, "w", encoding="utf-8") as f:
                json.dump(meta, f, sort_keys=True)

        commit_staged(base + ".meta", write_meta)
        if fault == "disk-corrupt":
            FAULTS["chaos_disk_corruptions"] += 1
            offset = plan.corrupt_offset(len(data))
            with open(payload_path, "r+b") as f:
                f.seek(offset)
                byte = f.read(1)
                f.seek(offset)
                f.write(bytes([byte[0] ^ 0xFF]))
        if self.byte_budget is not None:
            self.trim()
        return True

    # -- public API ----------------------------------------------------

    def contains(self, key: Any) -> bool:
        """Cheap existence check (stat only, no CRC verification)."""
        base = self._base(key)
        if not os.path.exists(base + ".meta"):
            return False
        return os.path.exists(base + ".npz") or os.path.exists(base + ".json")

    def get(self, key: Any) -> dict[str, np.ndarray] | None:
        """CRC-verified load; None on miss (corrupt entries quarantined)."""
        value, _ = self._probe(key)
        if value is None:
            STORE["misses"] += 1
            return None
        STORE["hits"] += 1
        return value

    def put(
        self, key: Any, arrays: dict[str, np.ndarray], overwrite: bool = False
    ) -> bool:
        """Durably store ``arrays`` under ``key``; False if already present."""
        if not overwrite and self.contains(key):
            return False
        with self._entry_lock(key):
            if not overwrite and self.contains(key):
                return False
            return self._put_locked(key, dict(arrays), "npz")

    def spill(self, key: Any, arrays: dict[str, np.ndarray]) -> bool:
        """``put`` counted as ``store.spills``: the write-back of an entry
        a memory cache drops (no cache in ``repro`` drops entries; the
        end-to-end benchmark's tracer hooks this name)."""
        if self.put(key, arrays):
            STORE["spills"] += 1
            return True
        return False

    def get_or_build(
        self,
        key: Any,
        factory: Callable[[], dict[str, np.ndarray]],
        codec: str = "npz",
    ) -> tuple[Any, bool]:
        """Return ``(value, built)`` with single-builder coordination.

        A verified hit avoids the build entirely (``builds_avoided``).
        On a miss the builder lock is taken, the entry re-probed (another
        process may have just built it), and only then is ``factory()``
        run and its result committed. When the miss was a quarantined
        corrupt/torn entry the build counts as a *rebuild*, and the new
        content digest must match the quarantined sidecar's — otherwise
        the key is poisoned (under-pinned inputs) and reported.
        """
        name = os.path.basename(self._base(key))
        value, stale_meta = self._probe(key)
        if value is not None:
            STORE["hits"] += 1
            STORE["builds_avoided"] += 1
            self._stale_meta.pop(name, None)  # someone already rebuilt it
            return value, False
        STORE["misses"] += 1
        with self._entry_lock(key):
            value, stale2 = self._probe(key)
            if value is not None:
                STORE["hits"] += 1
                STORE["builds_avoided"] += 1
                self._stale_meta.pop(name, None)
                return value, False
            stale_meta = stale2 or stale_meta or self._stale_meta.get(name)
            built = factory()
            if stale_meta is not None:
                STORE["rebuilds"] += 1
                if codec == "json":
                    rebuilt_digest = _json_digest(
                        json.dumps(built, sort_keys=True).encode("utf-8")
                    )
                else:
                    rebuilt_digest = arrays_digest(built)
                recorded = stale_meta.get("content")
                if recorded is not None and rebuilt_digest != recorded:
                    STORE["poisoned"] += 1
                    warnings.warn(
                        f"artifact store key {canonical_key(key)} is poisoned: "
                        f"rebuilt content digest {rebuilt_digest} != recorded "
                        f"{recorded}; the key under-pins its inputs",
                        RuntimeWarning,
                        stacklevel=2,
                    )
            self._put_locked(key, built, codec)
            self._stale_meta.pop(name, None)
            return built, True

    # JSON entries (benchmark baselines, small metadata)

    def get_json(self, key: Any) -> Any | None:
        value, _ = self._probe(key)
        if value is None:
            STORE["misses"] += 1
            return None
        STORE["hits"] += 1
        return value

    def put_json(self, key: Any, value: Any, overwrite: bool = False) -> bool:
        if not overwrite and self.contains(key):
            return False
        with self._entry_lock(key):
            if not overwrite and self.contains(key):
                return False
            return self._put_locked(key, value, "json")

    # -- pins & GC -----------------------------------------------------

    def pin(self, key: Any) -> None:
        """Refcount-protect ``key`` from ``trim`` eviction."""
        name = os.path.basename(self._base(key))
        self._pins[name] = self._pins.get(name, 0) + 1

    def unpin(self, key: Any) -> None:
        name = os.path.basename(self._base(key))
        count = self._pins.get(name, 0) - 1
        if count <= 0:
            self._pins.pop(name, None)
        else:
            self._pins[name] = count

    @contextmanager
    def pinned(self, key: Any) -> Iterator[None]:
        self.pin(key)
        try:
            yield
        finally:
            self.unpin(key)

    def _entries(self) -> list[tuple[float, int, str, list[str]]]:
        """(payload mtime, total bytes, base name, file paths) per entry."""
        grouped: dict[str, list[str]] = {}
        for name in os.listdir(self.objects_dir):
            stem, ext = os.path.splitext(name)
            if ext not in _SUFFIXES or ext == ".lock" or name.endswith(".tmp"):
                continue
            grouped.setdefault(stem, []).append(
                os.path.join(self.objects_dir, name)
            )
        entries = []
        for stem, paths in grouped.items():
            mtime, nbytes = 0.0, 0
            for path in paths:
                try:
                    st = os.stat(path)
                except OSError:
                    continue
                nbytes += st.st_size
                if not path.endswith(".meta"):
                    mtime = max(mtime, st.st_mtime)
            entries.append((mtime, nbytes, stem, paths))
        entries.sort(key=lambda e: (e[0], e[2]))
        return entries

    def total_bytes(self) -> int:
        return sum(nbytes for _, nbytes, _, _ in self._entries())

    def trim(self, byte_budget: int | None = None) -> int:
        """Evict LRU unpinned entries until under budget; returns count."""
        budget = self.byte_budget if byte_budget is None else byte_budget
        if budget is None:
            return 0
        entries = self._entries()
        total = sum(nbytes for _, nbytes, _, _ in entries)
        evicted = 0
        for _, nbytes, stem, paths in entries:
            if total <= budget:
                break
            if self._pins.get(stem):
                continue
            for path in paths:
                try:
                    os.unlink(path)
                except OSError:
                    pass
            total -= nbytes
            evicted += 1
            STORE["evictions"] += 1
        return evicted
