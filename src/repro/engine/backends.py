"""Pluggable execution backends for client local training.

A backend answers one question: *where does a client's local round actually
run?* The simulation semantics (virtual time, event order, RNG streams) are
owned by the training loops; backends only move the numeric work, so every
backend must produce bitwise-identical results for the same dispatch
sequence:

- :class:`SerialBackend` — runs the round inline in the server's shared
  workspace model, exactly like the original sequential simulator. It is
  the one in-process round path: both training loops build one when they
  are given no backend.
- :class:`ProcessPoolBackend` — runs rounds in long-lived worker processes
  that read the model template, global weights, client descriptors and
  shards from ``multiprocessing.shared_memory`` segments. Only a small job
  descriptor (entry locations, RNG state) crosses the pipe per round; a
  cohort's θ lanes come back through a shared result slot, and only
  losses, counts and advanced RNG states through the pipe. Every data
  entry (shards, client descriptors, cached features, evaluation shards)
  lives in the :class:`~repro.engine.campaign.CampaignSegmentPool` the
  backend creates and closes itself, which publishes each wave's new
  entries in one segment, and with ``persistent=True`` the workers and
  keyed entries survive across the runs of one campaign (each shard is
  published once per campaign, not once per run).

Every client is in at most one in-flight job at a time (the schedulers
guarantee this), so per-client RNG streams advance in the same order under
every backend. Backends are driven by a single scheduler thread; they are
not thread-safe for concurrent ``submit``/``result`` callers.

All backends optionally run the *frozen-feature cache* fast path
(:mod:`repro.fl.features`): with a ``feature_runtime`` the frozen backbone
ϕ(x) of each distinct shard is materialised once (per campaign, with a
pool) and client rounds execute head-only — bitwise identical to the full
forward. The process backend additionally pools test-set shards for
:class:`PooledEvaluator`, which turns ``Server.evaluate`` into parallel
worker jobs with an exact parent-side count reduction.

Fault tolerance (see :mod:`repro.engine.faults` and DESIGN.md
"Fault-tolerant runtime"): with a :class:`~repro.engine.faults.FaultPolicy`
the process backend detects dead workers, verifies segment fingerprints on
worker attach and before a retry, enforces per-job deadlines through a
watchdog thread, and redispatches the *exact* job blob with seeded
exponential backoff — every job is a pure function of its dispatch-time
RNG state and the published segments, so recovery is bitwise invisible.
After ``max_retries`` consecutive failures a job runs in the parent
instead (on a private thread, else inline) with identical bytes, counted
on the exported ``faults.*`` group. A
:class:`~repro.engine.faults.ChaosPlan` injects seeded kills / delays /
corruptions for replayable failure testing.

See DESIGN.md ("Shared-memory process backend") for the segment layout and
worker lifecycle.
"""

from __future__ import annotations

import copy
import hashlib
import os
import pickle
import threading
import time
from concurrent.futures import BrokenExecutor, Future
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field
from multiprocessing import get_context, resource_tracker, shared_memory

import numpy as np

from repro.engine.campaign import (
    RUN_KIND,
    CampaignSegmentPool,
    PoolEntry,
    _aligned,
    _write_arrays,
    register_emergency_cleanup,
    unlink_segment,
    unregister_emergency_cleanup,
)
from repro.engine.faults import (
    FAULTS,
    ChaosPlan,
    FaultPolicy,
    SegmentCorruption,
    segment_fingerprint,
)

from repro.data.dataset import ArrayDataset, Dataset
from repro.fl import fastpath
from repro.fl.client import Client
from repro.fl.features import FeatureRuntime, eval_pool_key, feature_pool_key
from repro.fl.strategies import LocalUpdate
from repro.fl.timing import TimingModel
from repro.nn.segmented import SegmentedModel
from repro.nn.serialization import theta_keys
from repro.obs import metrics as obs_metrics
from repro.obs import tracing
from repro.obs.metrics import CounterGroup, export_group

#: environment override for the worker start method ("fork" | "spawn" |
#: "forkserver"); CI runs the determinism suite under spawn through this.
START_METHOD_ENV = "REPRO_PROCESS_START_METHOD"


class _Resolved:
    """A pre-computed result with a Future-compatible ``result()``."""

    __slots__ = ("_value",)

    def __init__(self, value):
        self._value = value

    def result(self):
        return self._value


class ExecutionBackend:
    """Interface: submit client rounds, collect their LocalUpdates."""

    def submit(
        self,
        client: Client,
        template: SegmentedModel,
        global_state: dict[str, np.ndarray],
        timing: TimingModel | None,
    ):
        """Start one client round; returns a handle for :meth:`result`."""
        raise NotImplementedError

    def submit_many(
        self,
        clients: list[Client],
        template: SegmentedModel,
        global_state: dict[str, np.ndarray],
        timing: TimingModel | None,
    ) -> list:
        """Start one round per client; handles in input order.

        The grouped entry point lets backends batch compatible clients into
        cohort solves (one block-stacked job instead of N per-client jobs)
        while still returning one handle per client — results are bitwise
        identical to N :meth:`submit` calls, each handle resolving to its
        client's LocalUpdate. The base implementation is exactly that loop.
        """
        return [
            self.submit(client, template, global_state, timing)
            for client in clients
        ]

    def result(self, handle) -> LocalUpdate:
        """Block until the handle's round is finished and return its update."""
        return handle.result()

    def map_round(
        self,
        clients: list[Client],
        template: SegmentedModel,
        global_state: dict[str, np.ndarray],
        timing: TimingModel | None,
    ) -> list[LocalUpdate]:
        """Run one synchronous round's participants, preserving input order."""
        handles = self.submit_many(clients, template, global_state, timing)
        return [self.result(h) for h in handles]

    def close(self) -> None:
        """Release worker resources; the backend may not be reused after."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: lanes per cohort solve, on both backends. On the process backend one
#: job per cohort would serialise a whole round onto a single worker and
#: balloon the per-job payload; chunking keeps every worker busy and
#: bounds blob sizes. In either process a bigger stack stops paying: the
#: 194-lane k = 1 cohort of a 512-client round made ``CohortPlan._step``
#: memory-bound (19.6 → 30.4 µs per lane-step), and 64 lanes bound every
#: plan's lane capacity. Lanes are mutually independent inside a plan —
#: each replays its own client's kernel tiling and RNG draws — so any
#: chunking is bitwise invisible.
_COHORT_JOB_LANES = 64


def _wave_units(clients, template, global_state, shapes) -> list:
    """Plan one dispatch wave as ``[(positions, layout), ...]`` units.

    Both backends run every wave through this plan, a lone ``submit`` as
    a wave of one. The cohorts :func:`~repro.fl.fastpath.cohort_units`
    forms come first, in chunks of at most :data:`_COHORT_JOB_LANES`
    lanes (``layout`` is their θ lane layout); every other participant
    follows as a one-member unit (``layout`` None) in client order: a
    one-lane solve when its head has a plan.
    ``shapes`` holds each client's cached-feature trailing shape, or is
    None when the backend has no feature runtime and nothing groups.
    """
    units = []
    if shapes is not None:
        cohorts = fastpath.cohort_units(clients, template, global_state, shapes)
        for positions, layout in cohorts or ():
            units += [
                (positions[start : start + _COHORT_JOB_LANES], layout)
                for start in range(0, len(positions), _COHORT_JOB_LANES)
            ]
    grouped = {pos for positions, _ in units for pos in positions}
    units += [([i], None) for i in range(len(clients)) if i not in grouped]
    return units


def _bills_itself(client) -> bool:
    """Whether ``client`` prices its own rounds.

    The dispatching process bills every standard round of a wave from one
    FLOPs walk per input shape (:func:`_bill`). A client that overrides
    ``Client.run_round`` may change the model it runs in (tiered clients
    re-freeze it), so it receives the timing model and prices itself.
    """
    return type(client).run_round is not Client.run_round


def _bill(updates, clients, model, timing, walks) -> None:
    """Price standard rounds with the wave's shared ``walks`` (see
    :func:`~repro.fl.fastpath.cohort_round_seconds`)."""
    if timing is not None:
        seconds = fastpath.cohort_round_seconds(clients, model, timing, walks)
        for update, sec in zip(updates, seconds):
            update.train_seconds = sec


class SerialBackend(ExecutionBackend):
    """Inline execution in the shared workspace model (the seed behaviour).

    The one in-process round path: ``run_federated_training`` and
    ``run_async_federated_training`` build one when given no backend.
    With a :class:`~repro.fl.features.FeatureRuntime`, client rounds
    consume cached ϕ(x) features (head-only execution, bitwise identical)
    and :meth:`submit_many` groups compatible clients into cohort solves;
    without one, the full-forward seed path runs.
    """

    #: class-level default so lightweight subclasses (tests wrap submit
    #: without chaining __init__) keep the uncached seed behaviour
    feature_runtime: FeatureRuntime | None = None

    def __init__(self, feature_runtime: FeatureRuntime | None = None):
        self.feature_runtime = feature_runtime

    def submit(self, client, template, global_state, timing):
        return self._run_wave([client], template, global_state, timing)[0]

    def submit_many(self, clients, template, global_state, timing):
        # A subclass overriding ``submit`` customises per-client behaviour
        # that a planned wave would bypass.
        if type(self).submit is not SerialBackend.submit:
            return super().submit_many(clients, template, global_state, timing)
        return self._run_wave(clients, template, global_state, timing)

    def _run_wave(self, clients, template, global_state, timing):
        features: list = [None] * len(clients)
        shapes = None
        if self.feature_runtime is not None:
            # One ϕ fingerprint probe and one lookup per client serve the
            # whole wave: nothing can mutate the frozen prefix between two
            # clients of one wave.
            chain = template.phi_prefix_chain()
            features = [
                self.feature_runtime.features_for(client, template, chain=chain)
                for client in clients
            ]
            shapes = [None if f is None else tuple(f.shape[1:]) for f in features]
        updates: list = [None] * len(clients)
        walks: dict = {}  # one FLOPs walk per input shape prices the wave
        for positions, layout in _wave_units(
            clients, template, global_state, shapes
        ):
            members = [clients[i] for i in positions]
            feats = [features[i] for i in positions]
            own = _bills_itself(members[0])  # only a lone client can
            solved = None
            if layout is not None:
                solved = fastpath.run_cohort(
                    members, template, global_state, feats, layout
                )
            if solved is None:  # a lone client, or a late disagreement
                solved = [
                    client.run_round(
                        template, global_state,
                        timing=timing if own else None, features=f,
                    )
                    for client, f in zip(members, feats)
                ]
            if own:
                # It may have re-frozen the shared model: rounds after it
                # walk the model afresh.
                walks.clear()
            else:
                _bill(solved, members, template, timing, walks)
            for pos, update in zip(positions, solved):
                updates[pos] = update
        return [_Resolved(update) for update in updates]


# ---------------------------------------------------------------------------
# Shared-memory process backend
# ---------------------------------------------------------------------------

def _slab_wire_layout(
    state: dict[str, np.ndarray], slab_layout
) -> tuple[dict[str, tuple[int, tuple, str]], int, int, list[str]]:
    """Wire layout for a slab-backed state: sorted ϕ keys, then the θ slab.

    The θ keys' entries point *into* one trailing block that mirrors the
    server slab's internal packing, so publishing θ is a single memcpy of
    ``state.theta_slab`` — workers keep reading the ordinary per-key
    ``(offset, shape, dtype)`` entries and never see the difference.
    Returns ``(layout, nbytes, theta_offset, phi_keys)``.
    """
    layout: dict[str, tuple[int, tuple, str]] = {}
    theta = set(slab_layout.keys)
    phi_keys = [key for key in sorted(state) if key not in theta]
    offset = 0
    for key in phi_keys:
        arr = state[key]
        offset = _aligned(offset)
        layout[key] = (offset, tuple(arr.shape), arr.dtype.str)
        offset += arr.nbytes
    offset = _aligned(offset)
    theta_offset = offset
    itemsize = np.dtype(np.float64).itemsize
    dtype_str = np.dtype(np.float64).str
    for key, shape, elem_offset in zip(
        slab_layout.keys, slab_layout.shapes, slab_layout.offsets
    ):
        layout[key] = (theta_offset + elem_offset * itemsize, shape, dtype_str)
    nbytes = theta_offset + slab_layout.total * itemsize
    return layout, max(nbytes, 1), theta_offset, phi_keys


def _view_arrays(buf, layout) -> dict[str, np.ndarray]:
    return {
        key: np.ndarray(shape, dtype=np.dtype(dtype), buffer=buf, offset=offset)
        for key, (offset, shape, dtype) in layout.items()
    }


def _untracked_attach(name: str) -> shared_memory.SharedMemory:
    """Attach to a parent-owned segment without resource-tracker custody.

    On POSIX Pythons before 3.13, merely *attaching* registers the segment
    with the resource tracker, which would unlink it when this worker exits
    — destroying a segment the parent still owns (and, under fork, racing
    the tracker the parent shares). The parent manages segment lifetime, so
    suppress the registration for the duration of the attach; the worker is
    single-threaded, so the swap cannot be observed concurrently.
    """
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


#: per-worker caches: model replicas by template-segment name (workers are
#: campaign-lived, so a new run's template arrives as a new segment, not a
#: pool restart), attached segments by name, and reconstructed clients by
#: (template name, client-descriptor digest, shard entry location) — the
#: same shard hosts a different client descriptor per method of a
#: campaign.
#: Solver and evaluation plans are cached on the replica they run on (see
#: :mod:`repro.fl.fastpath`) and go when it is evicted. All of it is plain
#: per-process memory: a killed worker takes its plans with it, leaving
#: nothing to clean up.
_WORKER: dict = {
    "models": {},
    "segments": {},
    # Mapping custody (see _worker_segment): how many cached clients hold
    # each name, and the mapped names nobody holds, least recent first.
    "holds": {},
    "unheld": {},
    "clients": {},
    # offsets of the entries verified in each mapped segment (fault layer)
    "verified": {},
    # segments the running job reads; never unmapped while it runs
    "job_pins": set(),
}

#: model replicas a worker keeps alive at once, each with its plans; a
#: campaign uses one template per run, so 2 covers the running run plus
#: its predecessor.
_WORKER_MODEL_CACHE = 2

#: worker mapping churn — segments attached, and unheld mappings the LRU
#: closed — counted inside the workers and merged into the parent with
#: each job's counter shard (exported, like the solver groups).
WORKER_STATS = export_group("backend.worker", {"attaches": 0, "closes": 0})


def _shm_worker_init() -> None:
    """Worker startup: reset the caches (fresh under spawn, paranoid under
    fork, where the parent's module state was inherited). Inherited plans
    need no reset: they are keyed by the parent's models, which no job
    names."""
    _WORKER.update(
        models={}, segments={}, holds={}, unheld={}, clients={},
        verified={}, job_pins=set(),
    )


#: mappings a worker keeps that no cached client holds: state and result
#: slots, eval batches, and the shard and feature segments of clients
#: dropped with an evicted template or no longer named. A campaign names
#: new ones run after run, so an unbounded cache would keep every dead
#: mapping resident.
_WORKER_SEGMENT_CACHE = 32


def _worker_segment(name: str) -> shared_memory.SharedMemory:
    """This worker's mapping of segment ``name``, attached on first use.

    A cached client *holds* its shard and feature mappings (its next job
    reads both again), and held mappings stay open however many there
    are. The rest form an LRU of at most :data:`_WORKER_SEGMENT_CACHE`
    mappings, so an attach unmaps only what it evicts.
    """
    seg = _WORKER["segments"].get(name)
    if seg is not None:
        unheld = _WORKER["unheld"]
        if name in unheld:
            unheld[name] = unheld.pop(name)  # LRU touch
        return seg
    seg = _untracked_attach(name)
    WORKER_STATS["attaches"] += 1
    _WORKER["segments"][name] = seg
    if name not in _WORKER["holds"]:
        _WORKER["unheld"][name] = None
        _trim_unheld(keep=name)
    return seg


def _trim_unheld(keep: str | None = None) -> None:
    """Close least recently used unheld mappings beyond the cap.

    The running job's segments are skipped (numpy views do not reliably
    trip the ``BufferError`` guard below, so an LRU victim mid-job would
    unmap memory the job still reads), as is ``keep``, the name just
    attached. A closed mapping forgets which of its entries were verified.
    """
    unheld = _WORKER["unheld"]
    excess = len(unheld) - _WORKER_SEGMENT_CACHE
    if excess <= 0:
        return
    pins = _WORKER["job_pins"]
    victims = []
    for name in unheld:
        if name in pins or name == keep:
            continue
        victims.append(name)
        if len(victims) == excess:
            break
    segments = _WORKER["segments"]
    for name in victims:
        del unheld[name]
        seg = segments.pop(name)
        try:
            seg.close()
        except BufferError:  # a live view still pins it; keep it
            segments[name] = seg
            unheld[name] = None
        else:
            _WORKER["verified"].pop(name, None)
            WORKER_STATS["closes"] += 1


def _hold(name: str) -> None:
    """Keep ``name`` mapped for one more cached client."""
    holds = _WORKER["holds"]
    holds[name] = holds.get(name, 0) + 1
    _WORKER["unheld"].pop(name, None)


def _release(name: str) -> None:
    """Drop one client's hold; the last one hands the mapping to the LRU."""
    holds = _WORKER["holds"]
    count = holds.pop(name) - 1
    if count:
        holds[name] = count
    elif name in _WORKER["segments"]:
        _WORKER["unheld"][name] = None
        _trim_unheld()


class _CachedClient:
    """A worker-cached client and the feature segment it holds mapped."""

    __slots__ = ("client", "features_name")

    def __init__(self, client):
        self.client = client
        self.features_name = None


class _LabelsOnlyShard(Dataset):
    """A worker shard published as labels only.

    Its client trains on cached ϕ(x) features, so no raw input row was
    published; anything that reads them fails loudly.
    """

    def __init__(self, labels: np.ndarray):
        self._labels = labels

    def __len__(self) -> int:
        return len(self._labels)

    @property
    def labels(self) -> np.ndarray:
        return self._labels

    def arrays(self):
        raise RuntimeError(
            "this worker shard holds labels only: its client trains on "
            "cached features, and no raw input was published"
        )


def _entry_arrays(wire) -> dict[str, np.ndarray]:
    """Views of a pool entry's arrays; ``wire`` is its ``(segment name,
    offset, layout)`` (see :func:`_wire`)."""
    return _view_arrays(_worker_segment(wire[0]).buf, wire[2])


def _cache_client(key: tuple, client) -> _CachedClient:
    """Cache ``client`` under ``(template, digest, shard segment, shard
    offset)``; it holds its shard mapping until :func:`_drop_client`."""
    entry = _CachedClient(client)
    _WORKER["clients"][key] = entry
    _hold(key[2])
    return entry


def _drop_client(key: tuple) -> None:
    # The entry (and the client's views) goes first: releasing the last
    # hold may unmap the segments they view.
    features_name = _WORKER["clients"].pop(key).features_name
    _release(key[2])
    if features_name:
        _release(features_name)


def _worker_client(template_name: str, spec: dict):
    """The client a job (or cohort member) ``spec`` names, and its features.

    The client is rebuilt once per (template, descriptor, shard entry):
    its descriptor is read from the pool entry the spec locates, its
    dataset views the shard entry (labels only, or raw inputs too), and
    it gets one generator, whose state is set to the dispatch-time state
    on every job. Returns ``(client, features)``, features None when the
    job ships none. A job naming a different feature segment than the
    client holds (ϕ changed) moves the hold and releases the old mapping
    to the LRU.
    """
    digest, descriptor = spec["client"]
    shard = spec["shard"]
    key = (template_name, digest, shard[0], shard[1])
    entry = _WORKER["clients"].get(key)
    if entry is None:
        client = pickle.loads(_entry_arrays(descriptor)["blob"].tobytes())
        arrays = _entry_arrays(shard)
        # float64/int64 views pass through ArrayDataset without a copy.
        client.dataset = (
            ArrayDataset(arrays["x"], arrays["y"])
            if "x" in arrays
            else _LabelsOnlyShard(arrays["y"])
        )
        client.rng = np.random.default_rng(0)
        entry = _cache_client(key, client)
    client = entry.client
    client.rng.bit_generator.state = spec["rng_state"]
    features = spec["features"]
    name = features[0] if features else None
    if name != entry.features_name:
        if name:
            _hold(name)
        if entry.features_name:
            _release(entry.features_name)
        entry.features_name = name
    if not name:
        return client, None
    return client, _entry_arrays(features)["f"]


def _worker_model(name: str, nbytes: int) -> SegmentedModel:
    """The worker's replica of the template published in segment ``name``.

    The pickled template is read from shared memory exactly once per
    (worker, template); the attachment is closed immediately — only the
    unpickled replica is cached. Older replicas (with their plans, and the
    clients rebuilt against them — a client cached for run N must not
    train in run N+1's replica — with their mapping holds) are evicted
    beyond a small window so a long campaign's workers do not accumulate
    one model per run.
    """
    model = _WORKER["models"].get(name)
    if model is None:
        seg = _untracked_attach(name)
        try:
            model = pickle.loads(bytes(seg.buf[:nbytes]))
        finally:
            seg.close()
        while len(_WORKER["models"]) >= _WORKER_MODEL_CACHE:
            evicted = next(iter(_WORKER["models"]))
            del _WORKER["models"][evicted]
            for key in [k for k in _WORKER["clients"] if k[0] == evicted]:
                _drop_client(key)
        _WORKER["models"][name] = model
    return model


def _job_preamble(job: dict) -> None:
    """Fault-layer job prologue: injected chaos delay + attach verification.

    ``chaos_delay`` (set by a :class:`~repro.engine.faults.ChaosPlan`, and
    only on a job's first dispatch — a retry must not stall again) stalls
    the job to drive it past a watchdog deadline. ``fingerprints`` lists
    the job's pool entries as ``(segment name, offset, nbytes, digest)``:
    every entry this process has not read since it mapped the entry's
    segment is verified against its published BLAKE2b fingerprint before
    the solve reads it, and a mismatch raises
    :class:`~repro.engine.faults.SegmentCorruption` back to the parent,
    which repairs the entry's bytes (in place — cached attachments see
    the repair) and redispatches. Both fields are absent when the fault
    layer is off, so the fast path pays two dict lookups.
    """
    delay = job.get("chaos_delay")
    if delay:
        time.sleep(delay)
    fingerprints = job.get("fingerprints")
    if fingerprints:
        verified = _WORKER["verified"]
        for name, offset, nbytes, digest in fingerprints:
            if offset in verified.get(name, ()):
                continue  # verified when this process first read it
            seg = _worker_segment(name)
            if segment_fingerprint(seg.buf[offset:], nbytes) != digest:
                raise SegmentCorruption(name, offset)
            verified.setdefault(name, set()).add(offset)


def _run_job(job: dict, names, solve):
    """Run ``solve(job, baseline)`` with the job's segments pinned.

    Pins keep every segment the job reads mapped for its whole duration
    (see :func:`_trim_unheld`). ``baseline`` is the counter snapshot
    taken before the preamble, so attaches made while verifying count in
    the job's metric shard too.
    """
    pins = _WORKER["job_pins"]
    pins.update(name for name in names if name)
    baseline = obs_metrics.shard_baseline()
    try:
        _job_preamble(job)
        return solve(job, baseline)
    finally:
        pins.clear()


def _shm_round(job_blob: bytes) -> tuple:
    """Worker entry point: one training job, a cohort chunk or a lone client.

    The job descriptor carries only entry locations and each member's RNG
    state; the template, weights, descriptors, shards and features are
    read from the attached segments, and each member is rebuilt once per
    worker (:func:`_worker_client`). A cohort job (``job["result"]`` set)
    solves its members together as lanes of the template replica's head
    plan (:class:`~repro.nn.fused.CohortPlan`) and writes their θ stack
    into its rows of the wave's result slot (:func:`_result_rows`);
    otherwise, or when the plan declines late, each member runs
    ``Client.run_round`` — itself a one-lane solve on that plan when the
    head allows — with ``job["timing"]`` (set only for a client that
    bills itself). Returns ``(solved, updates, rng_states,
    metric_shard)``: either ``solved`` is
    :func:`~repro.fl.fastpath.solve_cohort`'s tuple without the θ stack
    (the parent reads that from the slot), or ``updates`` holds the
    members' LocalUpdates. ``metric_shard`` is what the job added to this
    worker's exported metric groups (see :mod:`repro.obs.metrics`).
    """
    job = pickle.loads(job_blob)
    names = [job["state_name"], job["result"] and job["result"][0]]
    for member in job["members"]:
        features = member["features"]
        names += (
            member["shard"][0],
            member["client"][1][0],
            features and features[0],
        )
    return _run_job(job, names, _shm_solve)


def _result_rows(job: dict) -> np.ndarray:
    """A cohort job's rows of its wave's result slot: ``job["result"]`` is
    ``(segment name, offset, (members, params))``."""
    name, offset, shape = job["result"]
    return np.ndarray(
        shape, dtype=np.float64, buffer=_worker_segment(name).buf,
        offset=offset,
    )


def _shm_solve(job: dict, baseline: dict) -> tuple:
    model = _worker_model(job["template_name"], job["template_nbytes"])
    state_seg = _worker_segment(job["state_name"])
    global_state = _view_arrays(state_seg.buf, job["state_layout"])
    clients = []
    features = []
    for member in job["members"]:
        client, feats = _worker_client(job["template_name"], member)
        clients.append(client)
        features.append(feats)
    solved = updates = None
    if job["result"]:
        solved = fastpath.solve_cohort(
            clients, model, global_state, features, out=_result_rows(job)
        )
    if solved is None:
        updates = [
            client.run_round(
                model, global_state, timing=job["timing"], features=feats
            )
            for client, feats in zip(clients, features)
        ]
    else:
        solved = solved[1:]  # the θ stack went into the result rows
    return (
        solved,
        updates,
        [client.rng.bit_generator.state for client in clients],
        obs_metrics.shard_delta(baseline),
    )


def _shm_eval_shard(job_blob: bytes) -> tuple[int, int, dict | None]:
    """Worker entry point: score one aligned test-set shard with current θ.

    Over cached features it loads only θ — into the template replica's
    head plan, or into the replica when the head runs on the graph — and
    runs the head; the parent built the features from the version's ϕ
    (``Server`` installs a new ϕ in the workspace model first). Over raw
    inputs it loads the whole version and runs the full model. The
    replica first takes the template's ``requires_grad`` flags back, so
    a tiered round that re-froze it scores under the template's split.
    Returns the exact integer correct count — the parent-side reduction
    ``Σcorrect / Σn`` is then bitwise equal to ``np.mean`` over the whole
    logits matrix.
    """
    job = pickle.loads(job_blob)
    names = (job["state_name"], job["eval"][0])
    return _run_job(job, names, _shm_eval_solve)


def _shm_eval_solve(job: dict, baseline: dict) -> tuple[int, int, dict | None]:
    model = _worker_model(job["template_name"], job["template_nbytes"])
    state_seg = _worker_segment(job["state_name"])
    state = _view_arrays(state_seg.buf, job["state_layout"])
    arrays = _entry_arrays(job["eval"])
    labels = arrays["y"]
    inputs = arrays["f"] if "f" in arrays else arrays["x"]
    batch = int(job["batch_size"])
    for param, flag in zip(model.iter_parameters(), job["requires_grad"]):
        param.requires_grad = flag
    if "f" in arrays:
        # Head-only shards count through the replica's head plan: θ goes
        # into the plan and its broadcast-θ forward reads the shard in
        # place, bitwise identical to the module loop below
        # (repro.nn.fused).
        lane = fastpath.head_lane(model, inputs.shape[1:])
        if lane is not None and lane.load(state):
            fastpath.STATS["fused_eval_shards"] += 1
            return (
                lane.plan.correct_count(inputs, labels, batch),
                int(len(labels)),
                obs_metrics.shard_delta(baseline),
            )
    fastpath.STATS["graph_eval_shards"] += 1
    if "f" in arrays:
        model.load_state_dict(
            {key: state[key] for key in job["theta_keys"]}, strict=False
        )
        forward = model.forward_head
    else:
        model.load_state_dict(state)
        forward = model
    was_training = model.training
    model.eval()
    correct = 0
    for i in range(0, len(labels), batch):
        preds = np.argmax(forward(inputs[i : i + batch]), axis=-1)
        correct += int(np.count_nonzero(preds == labels[i : i + batch]))
    if was_training:
        model.train()
    return correct, int(len(labels)), obs_metrics.shard_delta(baseline)


@dataclass
class _StateSlot:
    """One shared-memory segment holding a published version of the weights.

    ``refs`` counts in-flight jobs reading from the slot; the buffer is only
    rewritten with a newer version once every reader has been collected, so
    a job dispatched from an old version keeps seeing that version's bytes.
    ``state`` pins the exact dict object published, making the identity
    check in ``_publish_state`` safe against id reuse.
    """

    shm: shared_memory.SharedMemory
    nbytes: int
    layout: dict = field(default_factory=dict)
    refs: int = 0
    state: dict | None = None
    #: slab publication stamps: the θ SlabLayout signature and the ϕ array
    #: identities last written into this buffer. When a successor version
    #: matches both, only the θ block needs rewriting (one memcpy) — the ϕ
    #: bytes are already resident. ``state`` pins the stamped arrays, so
    #: the ids cannot be recycled while the stamp is consulted.
    slab_signature: object = None
    phi_stamp: tuple = ()


@dataclass(eq=False)
class _ResultSlot:
    """One shared-memory segment the workers write cohort θ rows into.

    A wave with cohort units takes a free slot big enough for all their
    lanes, or creates one; each of its cohort jobs holds the slot
    (``refs``) until the parent has collected the job and copied its rows
    out. Only then may a later wave reuse it, so a synchronous run needs
    one slot.
    """

    shm: shared_memory.SharedMemory
    nbytes: int
    refs: int = 0


@dataclass(eq=False)
class _ClientRecord:
    """Parent-side registration of one client for the run.

    ``digest`` fingerprints the dataset-free client descriptor ``blob``,
    published once as the ``descriptor`` entry; workers cache one rebuilt
    client per (template, descriptor, shard entry). ``labels`` and
    ``raw`` are the client's shard entries, labels only or raw inputs and
    labels, acquired when a member first reads one (see
    :meth:`ProcessPoolBackend._wave_entries`). The backend holds one pool
    reference on each for the run.
    """

    client: Client  # pins the client object so the id() key stays valid
    blob: bytes
    digest: str
    descriptor: PoolEntry | None = None
    labels: PoolEntry | None = None
    raw: PoolEntry | None = None


def _wire(entry: PoolEntry) -> tuple:
    """A pool entry's location as a job names it: ``(segment name, offset,
    layout)``."""
    return entry.shm.name, entry.offset, entry.layout


@dataclass
class _TemplateRecord:
    """One model template published into shared memory for the workers.

    ``refs`` counts in-flight jobs dispatched against the template; a
    superseded template's segment is only unlinked once every such job has
    been collected (workers read the segment lazily on their first job).
    """

    shm: shared_memory.SharedMemory
    nbytes: int
    template: SegmentedModel  # pins the object so the id() key stays valid
    refs: int = 0


class _JobRecord:
    """One dispatched job's redispatch state.

    Holds the job *dict* (re-pickled per attempt: the injected
    ``chaos_delay`` only ships on the first dispatch) plus everything the
    retry loop needs — the live future, the attempt count, the watchdog's
    timeout mark, and the pool entries the job reads (a member's features,
    then its shard and descriptor; an evaluation job's one shard), which
    the fault layer verifies and repairs. Redispatch is bitwise-safe
    because the dict carries the dispatch-time RNG state and only entry
    *locations*: a retried job reads the same published bytes, draws the
    same stream and rewrites the same result rows.
    """

    __slots__ = (
        "entry", "job", "index", "segments", "future", "attempts",
        "timed_out",
    )

    def __init__(self, entry, job: dict, index: int, segments):
        self.entry = entry
        self.job = job
        self.index = index
        self.segments = segments
        self.future: Future | None = None
        self.attempts = 0
        self.timed_out = False


class _Watchdog:
    """Deadline enforcement for in-flight process jobs.

    A daemon thread scans the watched records; an expired one is marked
    timed out and every worker process is killed, so the scheduler's
    blocked ``result()`` raises ``BrokenProcessPool`` promptly and the
    retry loop takes over. Killing the whole pool is deliberately coarse
    — ``concurrent.futures`` has no per-job cancel once a job runs — and
    safe: every other in-flight job is redispatched bitwise-exactly by
    the same machinery.
    """

    def __init__(self, backend: "ProcessPoolBackend", interval: float = 0.02):
        self._backend = backend
        self._interval = interval
        self._deadlines: dict[_JobRecord, float] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def watch(self, record: _JobRecord, seconds: float) -> None:
        with self._lock:
            self._deadlines[record] = time.monotonic() + seconds
            if self._thread is None:
                self._stop.clear()
                self._thread = threading.Thread(
                    target=self._run, name="repro-watchdog", daemon=True
                )
                self._thread.start()

    def unwatch(self, record: _JobRecord) -> None:
        with self._lock:
            self._deadlines.pop(record, None)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            now = time.monotonic()
            with self._lock:
                expired = [
                    record
                    for record, deadline in self._deadlines.items()
                    if deadline <= now
                ]
                for record in expired:
                    del self._deadlines[record]
            for record in expired:
                if record.future is not None and record.future.done():
                    continue  # finished between the scan and now
                record.timed_out = True
                FAULTS["timeouts"] += 1
                self._backend._kill_workers()

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        self._thread = None
        if thread is not None:
            thread.join(timeout=5.0)
        with self._lock:
            self._deadlines.clear()


def _run_all(steps) -> None:
    """Run every teardown step even if some raise; re-raise the first.

    The exception-safety idiom for ``end_run``/``shutdown``: a failing
    step (a broken executor, an already-unlinked segment) must not leave
    the later segments leaked under ``/dev/shm``.
    """
    error: BaseException | None = None
    for step in steps:
        try:
            step()
        except BaseException as exc:
            if error is None:
                error = exc
    if error is not None:
        raise error


class _SharedCohortResult:
    """Parent-side resolution of one training job, shared by its members'
    handles.

    Collection goes through the backend's retry loop
    (:meth:`ProcessPoolBackend._collect`). The first member collected
    resolves the worker future exactly once: copies a cohort's θ rows out
    of the result slot, then releases the state-slot, template and
    result-slot references, held until then so retried dispatches keep
    reading pinned segment bytes and writing their own rows (released
    even when the worker raised — the error is cached and re-raised to
    every member), mirrors all members' RNG advances, merges the metric
    shard, wraps the copied θ stack's lanes into slab-backed LocalUpdates
    and, with ``pricing`` (the wave's ``(model, timing, walks)``; None
    for a client that bills itself), bills every member. Later members
    read the cached updates.
    """

    __slots__ = (
        "_backend", "_record", "_clients", "_slot", "_template", "_layout",
        "_rows", "_pricing", "_updates", "_error",
    )

    def __init__(
        self, backend, record, clients, slot, template, layout, rows,
        pricing,
    ):
        self._backend = backend
        self._record = record
        self._clients = clients
        self._slot = slot
        self._template = template
        self._layout = layout
        #: a cohort job's ``(result slot, offset, shape)``, else None
        self._rows = rows
        self._pricing = pricing
        self._updates = None
        self._error = None

    def member(self, index: int) -> LocalUpdate:
        if self._updates is None and self._error is None:
            self._resolve()
        if self._error is not None:
            raise self._error
        return self._updates[index]

    def _resolve(self) -> None:
        try:
            solved, updates, rng_states, metric_shard = self._backend._collect(
                self._record
            )
            if solved is not None:
                slot, offset, shape = self._rows
                theta_stack = np.ndarray(
                    shape, dtype=np.float64, buffer=slot.shm.buf,
                    offset=offset,
                ).copy()
        except BaseException as exc:  # re-raised to every member's result()
            self._error = exc
            return
        finally:
            self._slot.refs -= 1
            self._template.refs -= 1
            if self._rows is not None:
                self._rows[0].refs -= 1
        for client, rng_state in zip(self._clients, rng_states):
            client.rng.bit_generator.state = rng_state
        obs_metrics.merge_exported(metric_shard)
        if solved is not None:
            updates = fastpath.cohort_updates(
                self._layout, theta_stack, *solved
            )
        if self._pricing is not None:
            _bill(updates, self._clients, *self._pricing)
        self._updates = updates


class _MemberHandle:
    """One member's handle onto a shared training-job result."""

    __slots__ = ("_shared", "_index")

    def __init__(self, shared: _SharedCohortResult, index: int):
        self._shared = shared
        self._index = index

    def result(self) -> LocalUpdate:
        return self._shared.member(self._index)


class ProcessPoolBackend(ExecutionBackend):
    """Long-lived worker processes over shared-memory weights and shards.

    The parent publishes the model template and each distinct broadcast
    state once into shared memory, and each client's descriptor and shard
    once as pool entries; workers attach lazily and cache the attachment
    plus the reconstructed client. A job descriptor is then a few hundred
    bytes per member (entry locations, the client's RNG state),
    independent of model and shard size — the property
    ``benchmarks/bench_process_backend.py`` guards — and a cohort's θ
    lanes come home through a reused result slot (:class:`_ResultSlot`).

    Campaign scope: because templates travel through shared memory (not the
    pool initializer), a new run's different template never restarts the
    workers. Every data entry — shard, client descriptor, feature array,
    evaluation shard — is published through the backend's
    ``segment_pool`` (a
    :class:`~repro.engine.campaign.CampaignSegmentPool`), created with its
    feature runtime's store and closed at :meth:`shutdown`; each wave (or
    pooled evaluation) publishes what it needs and the pool lacks in one
    segment. Data with a stable identity (a client's ``shard_key``, an
    evaluator's ``test_key``, a descriptor's digest) is keyed by it and
    reused across runs; the rest takes run-scoped keys and is unlinked
    when the run ends. With ``persistent=True``, ``close()`` becomes the
    end-of-run soft close (:meth:`end_run`): workers stay warm and keyed
    entries stay published for the campaign's next run. Call
    :meth:`shutdown` (or close with ``persistent=False``, the default) for
    full teardown.

    ``start_method`` defaults to the :data:`START_METHOD_ENV` environment
    variable, falling back to the platform default context.

    Fault tolerance: with a ``fault_policy``, every dispatched job is a
    :class:`_JobRecord` whose exact blob can be resubmitted — dead workers
    (``BrokenProcessPool``), watchdog-expired deadlines and
    :class:`~repro.engine.faults.SegmentCorruption` reports all trigger a
    respawn-verify-backoff-redispatch cycle, and a job that exhausts
    ``max_retries`` completes in the parent (:meth:`_run_degraded`) with
    identical bytes. A ``chaos`` plan injects seeded worker kills, job
    delays and segment corruptions at dispatch time; passing ``chaos``
    without a policy enables a default :class:`FaultPolicy` so injected
    faults are always recovered from.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        start_method: str | None = None,
        persistent: bool = False,
        feature_runtime: FeatureRuntime | None = None,
        fault_policy: FaultPolicy | None = None,
        chaos: ChaosPlan | None = None,
    ):
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.max_workers = max_workers or min(4, os.cpu_count() or 1)
        self.start_method = start_method or os.environ.get(START_METHOD_ENV) or None
        self.segment_pool = CampaignSegmentPool(
            store=getattr(feature_runtime, "store", None)
        )
        self.persistent = persistent
        #: frozen-feature policy: when set, client shards' ϕ(x) (and test
        #: sets for pooled evaluation) are materialised parent-side and
        #: published as segments; workers then run head-only rounds. The
        #: runtime's in-process array cache is not used here — shared
        #: memory is the cache — only its build counter and batch size.
        self.feature_runtime = feature_runtime
        self._executor: ProcessPoolExecutor | None = None
        self._slots: list[_StateSlot] = []
        self._current: _StateSlot | None = None
        self._result_slots: list[_ResultSlot] = []
        #: client id() -> its registration (pins the client)
        self._clients: dict[int, _ClientRecord] = {}
        self._templates: dict[int, _TemplateRecord] = {}
        #: (client id(), ϕ fingerprint) -> feature entry; clients are
        #: pinned by their _ClientRecord, so the id stays valid run-long
        self._features: dict[tuple[int, str], PoolEntry] = {}
        #: (test-set id(), fingerprint, batch, shards) -> (test set,
        #: entries); the dataset is pinned so the id cannot be recycled
        self._eval_segments: dict[tuple, tuple] = {}
        self._inflight: set[Future] = set()
        self._inflight_lock = threading.Lock()
        #: injected chaos implies a policy: every injected fault must be
        #: recovered from, or the run would (deliberately) diverge.
        if chaos is not None and fault_policy is None:
            fault_policy = FaultPolicy()
        self.fault_policy = fault_policy
        self.chaos = chaos
        #: global dispatch index for chaos addressing — counts every job
        #: blob (training unit and eval shard) in submit order
        self._job_index = 0
        self._watchdog: _Watchdog | None = None
        self.stats = CounterGroup(
            "backend.process",
            {
                "jobs": 0,
                "cohort_jobs": 0,
                "state_publishes": 0,
                "state_slab_memcpys": 0,
                "state_segments": 0,
                "result_segments": 0,
                "shard_segments": 0,
                "template_publishes": 0,
                "job_payload_bytes": 0,
                "max_job_payload_bytes": 0,
                "feature_segments": 0,
                "eval_segments": 0,
                "pooled_evals": 0,
            },
        )
        register_emergency_cleanup(self)

    # -- worker pool --------------------------------------------------------
    def _ensure_started(self) -> None:
        if self._executor is not None:
            return
        context = get_context(self.start_method) if self.start_method else None
        self._executor = ProcessPoolExecutor(
            max_workers=self.max_workers,
            mp_context=context,
            initializer=_shm_worker_init,
        )

    # -- fault layer ---------------------------------------------------------
    def _kill_workers(self) -> None:
        """Kill every live worker (watchdog / drain escalation path)."""
        executor = self._executor
        if executor is None:
            return
        for proc in list(getattr(executor, "_processes", {}).values()):
            try:
                proc.kill()
            except Exception:  # already gone
                pass

    def _respawn_if_broken(self) -> None:
        """Replace a broken executor with a fresh worker pool."""
        executor = self._executor
        if executor is None:
            self._ensure_started()
            return
        if not getattr(executor, "_broken", False):
            return
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - best effort
            pass
        self._executor = None
        self._ensure_started()
        FAULTS["respawns"] += 1

    def _verify_job_segments(self, record: _JobRecord) -> None:
        """Parent-side re-verify of a failed job's entries before retry."""
        for entry in record.segments:
            if not entry.intact():
                FAULTS["corrupt_segments"] += 1
                self.segment_pool.repair(entry.key)

    def _chaos_corrupt(self, segments) -> None:
        """Flip one seeded byte of the job's first entry: its first
        member's features, else that member's shard, else its eval shard."""
        entry = segments[0]
        offset = entry.offset + self.chaos.corrupt_offset(entry.nbytes)
        entry.shm.buf[offset] = entry.shm.buf[offset] ^ 0xFF
        FAULTS["chaos_corruptions"] += 1

    def _chaos_kill_worker(self) -> None:
        """Kill one worker process (the chaos plan's ``kill`` event)."""
        executor = self._executor
        if executor is None:
            return
        procs = list(getattr(executor, "_processes", {}).values())
        if procs:
            try:
                procs[0].kill()
            except Exception:  # pragma: no cover - already gone
                pass
            FAULTS["chaos_kills"] += 1

    def _dispatch(self, entry, job: dict, segments: list) -> _JobRecord:
        """Apply this job's scheduled chaos, then submit it to the pool.

        With a fault policy the job ships its pool entries' fingerprints
        (``(name, offset, nbytes, digest)`` each) for the workers' attach
        checks.
        """
        index = self._job_index
        self._job_index += 1
        if self.fault_policy is not None:
            job["fingerprints"] = [
                (seg.shm.name, seg.offset, seg.nbytes, seg.fingerprint)
                for seg in segments
            ]
        kill = False
        chaos = self.chaos
        if chaos is not None:
            delay = chaos.delay_for(index)
            if delay:
                job["chaos_delay"] = delay
                FAULTS["chaos_delays"] += 1
            if chaos.corrupt_before(index):
                self._chaos_corrupt(segments)
            kill = chaos.kill_before(index)
        record = _JobRecord(entry, job, index, segments)
        self._submit_job(record)
        if kill:
            # After the submit so the executor has spawned its processes
            # (they start lazily); the dead worker surfaces as
            # BrokenProcessPool on whichever futures it takes down.
            self._chaos_kill_worker()
        return record

    def _submit_job(self, record: _JobRecord) -> None:
        """(Re)submit a job record's exact blob; arm the watchdog."""
        job = record.job
        if record.attempts > 0 and "chaos_delay" in job:
            # A chaos delay fires once, on the first dispatch — the retry
            # of a deadline-killed job must not stall again.
            job = {k: v for k, v in job.items() if k != "chaos_delay"}
        blob = pickle.dumps(job)
        self.stats["job_payload_bytes"] += len(blob)
        self.stats["max_job_payload_bytes"] = max(
            self.stats["max_job_payload_bytes"], len(blob)
        )
        self._ensure_started()
        try:
            future = self._executor.submit(record.entry, blob)
        except BrokenExecutor:
            # The pool broke *between* jobs (a worker died idle). Without
            # a policy that is fatal, as before; with one, respawn and
            # dispatch to the fresh pool.
            if self.fault_policy is None:
                raise
            self._respawn_if_broken()
            future = self._executor.submit(record.entry, blob)
        record.future = future
        with self._inflight_lock:
            self._inflight.add(future)
        future.add_done_callback(self._inflight_done)
        policy = self.fault_policy
        if policy is not None and policy.job_deadline is not None:
            if self._watchdog is None:
                self._watchdog = _Watchdog(self)
            watchdog = self._watchdog
            watchdog.watch(record, policy.job_deadline)
            future.add_done_callback(
                lambda _f, r=record: watchdog.unwatch(r)
            )

    def _retryable(self, exc: BaseException, record: _JobRecord) -> bool:
        """Classify a job failure; count and repair what the retry needs."""
        if isinstance(exc, SegmentCorruption):
            FAULTS["corrupt_segments"] += 1
            for entry in record.segments:
                if (entry.shm.name, entry.offset) == (exc.name, exc.offset):
                    self.segment_pool.repair(entry.key)
            return True
        if record.timed_out:
            return True
        # BrokenProcessPool (a subclass of BrokenExecutor) is the dead-
        # worker signal; OSError/EOFError cover torn result pipes.
        return isinstance(exc, (BrokenExecutor, OSError, EOFError))

    def _collect(self, record: _JobRecord):
        """Resolve a job, retrying/degrading per the fault policy.

        The fast path — no policy — is a plain ``future.result()``. With
        a policy, a retryable failure (dead worker, timeout, corruption)
        respawns the pool, re-verifies the job's segments, waits a seeded
        backoff and redispatches the exact blob; after ``max_retries``
        consecutive failures the job completes inline
        (:meth:`_run_degraded`), bitwise identically.
        """
        policy = self.fault_policy
        if policy is None:
            return record.future.result()
        while True:
            try:
                return record.future.result()
            except BaseException as exc:
                if not self._retryable(exc, record):
                    raise
            record.attempts += 1
            record.timed_out = False
            self._respawn_if_broken()
            self._verify_job_segments(record)
            if record.attempts > policy.max_retries:
                return self._run_degraded(record)
            FAULTS["retries"] += 1
            delay = policy.backoff_delay(record.attempts)
            if delay > 0:
                with tracing.span("faults.backoff"):
                    time.sleep(delay)
            self._submit_job(record)

    def _run_degraded(self, record: _JobRecord):
        """Complete a job inline after its retry budget is exhausted.

        The degradation ladder: the job's exact blob first runs on a
        private worker thread (process → thread); if that fails too it
        runs serially on the scheduler thread (thread → serial). Either
        way the result is bitwise identical to a worker execution — the
        blob carries the dispatch-time RNG state and reads the same
        published segments — just slower, and loudly annotated on
        ``faults.degradations`` / ``solver.fused.degraded_jobs``.
        """
        FAULTS["degradations"] += 1
        fastpath.STATS["degraded_jobs"] += 1
        job = {
            key: value
            for key, value in record.job.items()
            if key != "chaos_delay"
        }
        blob = pickle.dumps(job)
        baseline = obs_metrics.shard_baseline()
        try:
            try:
                with ThreadPoolExecutor(max_workers=1) as fallback:
                    return fallback.submit(record.entry, blob).result()
            except Exception:
                return record.entry(blob)
        finally:
            # The inline run incremented this process's exported groups
            # directly *and* returns the usual metric shard (which the
            # handle merges); cancel the direct increments so counter
            # totals stay exactly equal to the all-worker run's.
            delta = obs_metrics.shard_delta(baseline)
            if delta:
                obs_metrics.merge_exported(
                    {name: -value for name, value in delta.items()}
                )

    def _ensure_template(self, template: SegmentedModel) -> _TemplateRecord:
        """Publish ``template`` into shared memory once per distinct object.

        Publishing a new template supersedes older ones: any with no jobs
        still in flight are unlinked immediately (one run's template is
        dead weight once the next run starts).
        """
        record = self._templates.get(id(template))
        if record is not None:
            return record
        blob = pickle.dumps(template)
        shm = shared_memory.SharedMemory(create=True, size=max(len(blob), 1))
        shm.buf[: len(blob)] = blob
        for tid, old in list(self._templates.items()):
            if old.refs == 0:
                unlink_segment(old.shm)
                del self._templates[tid]
        record = _TemplateRecord(shm=shm, nbytes=len(blob), template=template)
        self._templates[id(template)] = record
        self.stats["template_publishes"] += 1
        return record

    # -- shared-memory publication -------------------------------------------
    def _publish_state(self, global_state: dict[str, np.ndarray]) -> _StateSlot:
        """Acquire a slot holding ``global_state``; publish it if new.

        The training loops hand out one dict object per model version
        (aggregation always builds a fresh dict), so object identity with
        the most recently published state detects version reuse. Model
        versions are slab-backed (:class:`~repro.fl.slab.SlabState`); a
        plain dict is refused with ``TypeError``.
        """
        if self._current is not None and self._current.state is global_state:
            self._current.refs += 1
            return self._current
        if getattr(global_state, "theta_slab", None) is None:
            raise TypeError(
                "the process backend publishes slab-backed model versions "
                "only (see repro.fl.slab.make_slab_state)"
            )
        slab_layout = global_state.layout
        layout, nbytes, theta_offset, phi_keys = _slab_wire_layout(
            global_state, slab_layout
        )
        slot = next(
            (s for s in self._slots if s.refs == 0 and s.nbytes >= nbytes), None
        )
        if slot is None:
            slot = _StateSlot(
                shm=shared_memory.SharedMemory(create=True, size=nbytes),
                nbytes=nbytes,
            )
            self._slots.append(slot)
            self.stats["state_segments"] = len(self._slots)
        # Successive model versions share ϕ by reference and differ only in
        # the θ slab: when this buffer already holds the same ϕ objects'
        # bytes under the same packing, the publish is one memcpy of the
        # slab.
        phi_stamp = tuple((key, id(global_state[key])) for key in phi_keys)
        if (
            slot.slab_signature != slab_layout.signature
            or slot.phi_stamp != phi_stamp
        ):
            _write_arrays(
                slot.shm.buf,
                {key: layout[key] for key in phi_keys},
                global_state,
            )
            slot.slab_signature = slab_layout.signature
            slot.phi_stamp = phi_stamp
        else:
            self.stats["state_slab_memcpys"] += 1
        theta_block = np.ndarray(
            slab_layout.total, dtype=np.float64, buffer=slot.shm.buf,
            offset=theta_offset,
        )
        theta_block[...] = global_state.theta_slab
        slot.layout = layout
        slot.state = global_state
        slot.refs += 1
        self._current = slot
        self.stats["state_publishes"] += 1
        return slot

    def _request(self, key, run_parts: tuple, arrays_factory) -> tuple:
        """The pool request for ``key``, or — for data with no stable
        identity (``key`` None) — for a run-scoped key built from
        ``run_parts``, which the pool unlinks when this run releases it.

        The entry's fingerprint is taken at publish only when something
        will check it: the fault layer, or a later run of a persistent
        backend re-acquiring a keyed entry.
        """
        checked = self.fault_policy is not None or (
            key is not None and self.persistent
        )
        if key is None:
            key = (RUN_KIND,) + run_parts
        return key, arrays_factory, checked

    def _acquire_all(self, wanted: dict) -> None:
        """Acquire every ``(request, register)`` value of ``wanted`` in one
        pool batch, handing each entry to its ``register``."""
        if not wanted:
            return
        pairs = list(wanted.values())
        entries = self.segment_pool.acquire_many(
            [request for request, _ in pairs]
        )
        for (_, register), entry in zip(pairs, entries):
            register(entry)
        self.stats["feature_segments"] = len(self._features)

    def _client_record(self, client: Client) -> _ClientRecord:
        record = self._clients.get(id(client))
        if record is None:
            # Ship everything about the client except the heavy shard and
            # the RNG (whose state travels per job); shallow copy keeps
            # subclasses.
            clone = copy.copy(client)
            clone.dataset = None
            clone.rng = None
            blob = pickle.dumps(clone)
            digest = hashlib.blake2b(blob, digest_size=12).hexdigest()
            record = _ClientRecord(client, blob, digest)
            self._clients[id(client)] = record
            self.stats["shard_segments"] = len(self._clients)
        return record

    def _want_shard(self, record: _ClientRecord, raw: bool, wanted: dict):
        """Queue the client's shard entry on ``wanted`` unless this run
        holds it: its labels only, under its ``shard_key``; or, with
        ``raw``, its inputs and labels, under a key of their own kind."""
        attr = "raw" if raw else "labels"
        client = record.client
        if getattr(record, attr) is not None or (attr, id(client)) in wanted:
            return
        shard_key = getattr(client, "shard_key", None)
        if raw:
            def arrays() -> dict[str, np.ndarray]:
                x, y = client.dataset.arrays()
                return {
                    "x": np.ascontiguousarray(x, dtype=np.float64),
                    "y": np.ascontiguousarray(y, dtype=np.int64),
                }

            key = None if shard_key is None else ("raw",) + tuple(shard_key)
        else:
            def arrays() -> dict[str, np.ndarray]:
                labels = client.dataset.labels
                return {"y": np.ascontiguousarray(labels, dtype=np.int64)}

            key = shard_key
        wanted[(attr, id(client))] = (
            self._request(key, (attr, id(client)), arrays),
            lambda entry: setattr(record, attr, entry),
        )

    def _want_descriptor(self, record: _ClientRecord, wanted: dict) -> None:
        """Queue the client's descriptor entry on ``wanted`` unless this
        run holds it; keyed by its digest, so it is content-addressed."""
        queued = ("client", id(record.client))
        if record.descriptor is not None or queued in wanted:
            return
        blob = record.blob
        wanted[queued] = (
            self._request(
                ("client", record.digest), (),
                lambda: {"blob": np.frombuffer(blob, dtype=np.uint8)},
            ),
            lambda entry: setattr(record, "descriptor", entry),
        )

    def _want_features(self, client, template, chain, wanted: dict):
        """The registry key of the client's ϕ(shard) feature entry, queued
        on ``wanted`` when this run has not registered it; None when
        caching is off, the client opts out, or the template has no
        frozen prefix (empty ``chain``).

        For a ``shard_key``'d client the entry is keyed by (shard
        identity, ϕ fingerprint) and stays resident in the pool across
        runs — published once per campaign.

        The fingerprint is the last link of ``chain``, the
        ``template.phi_prefix_chain()`` its caller probes per wave — never
        the parent-side entry memo — mirroring
        :meth:`~repro.fl.features.FeatureRuntime.features_for`: the
        fingerprint *is* the invalidation mechanism, so a ϕ mutated
        mid-run (or a new template object reusing a freed id) can never be
        handed stale features. The chain call itself is memoized on ϕ's
        exact bytes, which costs a comparison, not a re-hash, and returns
        what a recomputation would; ϕ cannot mutate between two lookups
        of the same wave.
        """
        if self.feature_runtime is None or not getattr(
            client, "supports_feature_cache", True
        ):
            return None
        if not chain:
            return None
        fingerprint = chain[-1]
        cache_key = (id(client), fingerprint)
        if cache_key in self._features or ("feat", cache_key) in wanted:
            return cache_key
        shard_key = getattr(client, "shard_key", None)

        def base_features(prefix_fp: str) -> np.ndarray | None:
            """This shard's features at a shallower split, as an entry
            view: this run's registrations first, then the campaign pool —
            cross-run derivation (run N at a deeper split seeds from run
            M's pooled entry, which ``end_run`` keeps resident precisely
            for reuse like this)."""
            entry = self._features.get((id(client), prefix_fp))
            if entry is None and shard_key is not None:
                entry = self.segment_pool.peek(
                    feature_pool_key(shard_key, prefix_fp)
                )
            if entry is None:
                return None
            return _view_arrays(entry.shm.buf, entry.layout)["f"]

        def feature_arrays() -> dict[str, np.ndarray]:
            # Prefix-chain keying: an entry already published for this
            # shard under a shallower split of the same frozen weights
            # seeds the build (FeatureRuntime.materialise owns the
            # derivation-precedence rule — one implementation for the
            # in-process cache and the shared-memory path alike).
            return {
                "f": self.feature_runtime.materialise(
                    template, chain, base_features,
                    lambda: client.dataset.arrays()[0],
                )
            }

        key = None
        if shard_key is not None:
            key = feature_pool_key(shard_key, fingerprint)
        wanted[("feat", cache_key)] = (
            self._request(
                key, ("feat", id(client), fingerprint), feature_arrays
            ),
            lambda entry: self._features.__setitem__(cache_key, entry),
        )
        return cache_key

    def _ensure_features(
        self, client, template: SegmentedModel, chain=None
    ) -> PoolEntry | None:
        """The client's ϕ(shard) feature entry, built and published on
        first use (see :meth:`_want_features`); None when it has none."""
        if chain is None and self.feature_runtime is not None:
            chain = template.phi_prefix_chain()
        wanted: dict = {}
        cache_key = self._want_features(client, template, chain, wanted)
        self._acquire_all(wanted)
        return None if cache_key is None else self._features[cache_key]

    def _wave_entries(self, clients, template, chain) -> list[tuple]:
        """Each client's ``(features, shard, record)`` for one wave: its
        feature and shard entries, features None when it has none, and its
        registration, which holds its descriptor entry.

        Whatever this run has not registered yet is acquired in one pool
        batch, so a wave creates at most one segment per key scope. A
        member reads its labels only when its features are published and
        its client does not override ``Client.run_round``; otherwise its
        raw shard.
        """
        wanted: dict = {}
        plan = []
        for client in clients:
            cache_key = self._want_features(client, template, chain, wanted)
            record = self._client_record(client)
            raw = cache_key is None or _bills_itself(client)
            self._want_shard(record, raw, wanted)
            self._want_descriptor(record, wanted)
            plan.append((cache_key, record, raw))
        self._acquire_all(wanted)
        return [
            (
                None if cache_key is None else self._features[cache_key],
                record.raw if raw else record.labels,
                record,
            )
            for cache_key, record, raw in plan
        ]

    def _take_result_rows(self, units) -> list:
        """Each unit's rows in one result slot for the wave: ``(slot,
        offset, (lanes, params))`` for a cohort unit, None for a
        one-member unit."""
        spans = []
        end = 0
        for positions, layout in units:
            if layout is None:
                spans.append(None)
                continue
            start = _aligned(end)
            shape = (len(positions), layout.total)
            spans.append((start, shape))
            end = start + shape[0] * shape[1] * np.dtype(np.float64).itemsize
        if end == 0:
            return spans
        free = [slot for slot in self._result_slots if slot.refs == 0]
        slot = next((s for s in free if s.nbytes >= end), None)
        if slot is None:
            # Free slots too small for this wave make way for one that
            # fits, so a run keeps one slot per wave in flight.
            for old in free:
                self._result_slots.remove(old)
                unlink_segment(old.shm)
            slot = _ResultSlot(
                shm=shared_memory.SharedMemory(create=True, size=end),
                nbytes=end,
            )
            self._result_slots.append(slot)
            self.stats["result_segments"] = len(self._result_slots)
        return [None if span is None else (slot,) + span for span in spans]

    # -- ExecutionBackend interface ------------------------------------------
    def submit(self, client, template, global_state, timing):
        return self._dispatch_wave([client], template, global_state, timing)[0]

    def submit_many(self, clients, template, global_state, timing):
        # A subclass overriding ``submit`` customises per-client behaviour
        # that a planned wave would bypass.
        if type(self).submit is not ProcessPoolBackend.submit:
            return super().submit_many(clients, template, global_state, timing)
        return self._dispatch_wave(clients, template, global_state, timing)

    def _dispatch_wave(self, clients, template, global_state, timing):
        """One job per unit of the wave (:func:`_wave_units`), in order.

        A job blob carries entry locations and each member's RNG state;
        descriptors, features, shards and θ all travel through shared
        memory, and a cohort job's θ lanes come home through its rows of
        the wave's result slot. The parent bills the wave's standard
        rounds, cohort lanes and lone clients alike, from one FLOPs walk
        per input shape shared by every handle; only a client that bills
        itself ships the timing model, since it may re-freeze its
        worker's replica.
        """
        self._ensure_started()
        chain = None
        if self.feature_runtime is not None:
            chain = template.phi_prefix_chain()
        entries = self._wave_entries(clients, template, chain)
        shapes = None
        if self.feature_runtime is not None:
            shapes = [
                None if feats is None else tuple(feats.layout["f"][1][1:])
                for feats, _, _ in entries
            ]
        units = _wave_units(clients, template, global_state, shapes)
        walks: dict = {}
        handles: list = [None] * len(clients)
        for (positions, layout), rows in zip(
            units, self._take_result_rows(units)
        ):
            members = [clients[i] for i in positions]
            own = _bills_itself(members[0])  # only a lone client can
            template_record = self._ensure_template(template)
            slot = self._publish_state(global_state)
            specs = []
            segments = []
            for i, client in zip(positions, members):
                features, shard, record = entries[i]
                specs.append(
                    {
                        "client": (record.digest, _wire(record.descriptor)),
                        "shard": _wire(shard),
                        "features": features and _wire(features),
                        "rng_state": client.rng.bit_generator.state,
                    }
                )
                if features is not None:
                    segments.append(features)
                segments += (shard, record.descriptor)
            job = {
                "template_name": template_record.shm.name,
                "template_nbytes": template_record.nbytes,
                "state_name": slot.shm.name,
                "state_layout": slot.layout,
                "members": specs,
                "result": None,
                "timing": timing if own else None,
            }
            self.stats["jobs"] += 1
            if rows is not None:
                rows[0].refs += 1
                job["result"] = (rows[0].shm.name,) + rows[1:]
                self.stats["cohort_jobs"] += 1
            template_record.refs += 1
            shared = _SharedCohortResult(
                self, self._dispatch(_shm_round, job, segments), members,
                slot, template_record, layout, rows,
                None if own else (template, timing, walks),
            )
            for index, pos in enumerate(positions):
                handles[pos] = _MemberHandle(shared, index)
        return handles

    def _inflight_done(self, future: Future) -> None:
        with self._inflight_lock:
            self._inflight.discard(future)

    def _drain_inflight(self) -> None:
        """Block until no submitted job is still executing.

        Close can arrive with jobs in flight (an exception propagating out
        of a run's ``with backend:`` block); segments must not be
        recycled or unlinked while a worker may still read them. With a
        fault-policy deadline the wait is bounded: a job hung past its
        deadline gets the workers killed rather than blocking teardown.
        """
        with self._inflight_lock:
            pending = list(self._inflight)
        if not pending:
            return
        policy = self.fault_policy
        if policy is not None and policy.job_deadline is not None:
            _, not_done = futures_wait(
                pending, timeout=policy.job_deadline + 1.0
            )
            if not_done:
                self._kill_workers()
                futures_wait(not_done, timeout=5.0)
            return
        futures_wait(pending)

    # -- pooled evaluation ---------------------------------------------------
    def _ensure_eval_segments(
        self,
        model: SegmentedModel,
        test_set: Dataset,
        test_key: tuple | None,
        batch_size: int,
    ) -> list:
        """Publish the test set as contiguous shards aligned to ``batch_size``.

        Alignment makes every shard's batch compositions identical to the
        serial evaluation's global chunking, so per-shard logits — and the
        integer correct counts — are bitwise exact regardless of sharding.
        With a frozen prefix the shards carry cached ϕ(x) features; without
        one they carry the raw inputs (pooled evaluation still parallelises
        the full forward). The shards are published in one batch. Keyed
        entries (``test_key`` set) are published once per campaign;
        without a key they are run-scoped. A new fingerprint's set (a merge
        retrained ϕ) releases the test set's earlier one: run-scoped
        entries are unlinked, keyed ones stay resident in the pool.
        """
        fingerprint = (
            model.phi_fingerprint() if self.feature_runtime is not None else None
        )
        n = len(test_set)
        total_batches = -(-n // batch_size)
        num_shards = max(1, min(self.max_workers, total_batches))
        cache_key = (id(test_set), fingerprint, batch_size, num_shards)
        cached = self._eval_segments.get(cache_key)
        if cached is not None:
            return cached[1]
        superseded = [k for k in self._eval_segments if k[0] == id(test_set)]
        for old in superseded:
            for entry in self._eval_segments.pop(old)[1]:
                self.segment_pool.release(entry.key)
        x, y = test_set.arrays()
        built: dict[str, np.ndarray] = {}

        def shard_arrays(lo: int, hi: int) -> dict[str, np.ndarray]:
            if fingerprint is not None:
                if "f" not in built:
                    built["f"] = self.feature_runtime.build(model, x)
                return {"f": built["f"][lo:hi], "y": y[lo:hi]}
            return {
                "x": np.ascontiguousarray(x[lo:hi], dtype=np.float64),
                "y": y[lo:hi],
            }

        base, extra = divmod(total_batches, num_shards)
        requests = []
        lo = 0
        for index in range(num_shards):
            span = (base + (1 if index < extra else 0)) * batch_size
            hi = min(n, lo + span)
            geometry = (fingerprint, batch_size, num_shards, index)
            key = None
            if test_key is not None:
                key = eval_pool_key(test_key, *geometry)
            requests.append(
                self._request(
                    key,
                    ("eval", id(test_set)) + geometry,
                    lambda lo=lo, hi=hi: shard_arrays(lo, hi),
                )
            )
            lo = hi
        records = self.segment_pool.acquire_many(requests)
        # Pin the dataset alongside its entries: the id() in the key must
        # not be reusable by a different test set while the entry lives.
        self._eval_segments[cache_key] = (test_set, records)
        self.stats["eval_segments"] = sum(
            len(entry[1]) for entry in self._eval_segments.values()
        )
        return records

    def evaluate_pooled(
        self,
        model: SegmentedModel,
        global_state: dict[str, np.ndarray],
        test_set: Dataset,
        test_key: tuple | None = None,
        batch_size: int = 512,
    ) -> float:
        """Top-1 accuracy via sharded jobs on the warm workers.

        Bitwise equal to the serial ``Server.evaluate`` path: shards are
        batch-aligned, workers return exact integer correct counts, and the
        parent reduction divides the totals. Only θ crosses per evaluation
        (through the refcounted state slot — reused by training dispatches
        of the same model version); test-set segments are published once
        per campaign. The caller's workspace model is left untouched.
        """
        if len(test_set) == 0:
            return 0.0
        with tracing.span("eval.pooled"):
            return self._evaluate_pooled(
                model, global_state, test_set, test_key, batch_size
            )

    def _evaluate_pooled(
        self, model, global_state, test_set, test_key, batch_size
    ) -> float:
        self._ensure_started()
        template_record = self._ensure_template(model)
        segments = self._ensure_eval_segments(
            model, test_set, test_key, batch_size
        )
        slot = self._publish_state(global_state)
        keys = theta_keys(model)
        requires_grad = model.structure().flags
        records = []
        template_record.refs += len(segments)
        correct = 0
        total = 0
        try:
            for record in segments:
                job = {
                    "template_name": template_record.shm.name,
                    "template_nbytes": template_record.nbytes,
                    "state_name": slot.shm.name,
                    "state_layout": slot.layout,
                    "eval": _wire(record),
                    "theta_keys": keys,
                    "requires_grad": requires_grad,
                    "batch_size": batch_size,
                }
                records.append(self._dispatch(_shm_eval_shard, job, [record]))
            # Collect in submit order; references stay held until every
            # shard — including any redispatched one — has resolved.
            for job_record in records:
                shard_correct, shard_total, metric_shard = self._collect(
                    job_record
                )
                correct += shard_correct
                total += shard_total
                obs_metrics.merge_exported(metric_shard)
        finally:
            slot.refs -= 1
            template_record.refs -= len(segments)
        self.stats["pooled_evals"] += 1
        return correct / total

    def _release_segments(self) -> None:
        """Drop the run's pool references: keyed entries stay resident,
        run-scoped ones are unlinked."""
        entries = [
            entry
            for record in self._clients.values()
            for entry in (record.descriptor, record.labels, record.raw)
            if entry is not None
        ]
        entries += self._features.values()
        for _, records in self._eval_segments.values():
            entries += records
        self._clients, self._features, self._eval_segments = {}, {}, {}
        for entry in entries:
            self.segment_pool.release(entry.key)

    def end_run(self) -> None:
        """Soft close between two runs of one campaign.

        Waits out any jobs still in flight (an aborted run's handles may
        never be collected), then drops everything tied to the finished
        run — its pool references (run-scoped entries unlinked with their
        batches), the current-state pin, state- and result-slot reader
        counts and all template segments — while keeping the workers, the
        recycled state and result slots and the pool's keyed shard,
        descriptor, feature and test entries warm for the next run.

        Idempotent and exception-safe: every teardown step runs even when
        an earlier one raises (the chaos tests close after crashes), and a
        second call finds only empty registries.
        """
        _run_all(
            (
                self._drain_inflight,
                self._release_segments,
                self._reset_run_state,
            )
        )

    def _reset_run_state(self) -> None:
        self._current = None
        # With nothing executing, abandoned handles can no longer protect
        # their reads: every slot is reusable and every template is dead
        # (the next run brings its own template object).
        for slot in self._slots:
            slot.refs = 0
            slot.state = None
        for slot in self._result_slots:
            slot.refs = 0
        templates, self._templates = self._templates, {}
        for record in templates.values():
            unlink_segment(record.shm)

    def close(self):
        """Per-run close: full teardown, or :meth:`end_run` when persistent."""
        if self.persistent:
            self.end_run()
            return
        self.shutdown()

    def shutdown(self) -> None:
        """Full teardown: stop the workers, unlink the backend's segments
        and close its segment pool.

        Idempotent and exception-safe like :meth:`end_run`: each step runs
        regardless of earlier failures (a broken executor after a chaos
        kill must not leak ``/dev/shm`` segments), and repeated calls are
        no-ops.
        """
        _run_all(
            (
                self._drain_inflight,
                self._stop_watchdog,
                self._shutdown_executor,
                self._unlink_slots,
                self._release_segments,
                self._reset_run_state,
                self.segment_pool.close,
                lambda: unregister_emergency_cleanup(self),
            )
        )

    def _stop_watchdog(self) -> None:
        watchdog, self._watchdog = self._watchdog, None
        if watchdog is not None:
            watchdog.stop()

    def _shutdown_executor(self) -> None:
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def _unlink_slots(self) -> None:
        slots, self._slots = self._slots, []
        results, self._result_slots = self._result_slots, []
        self._current = None
        for slot in slots + results:
            unlink_segment(slot.shm)

    def _emergency_cleanup(self) -> None:
        """Crash-path unlink (atexit/signal); idempotent, never raises.

        Only the state and result slots and templates are the backend's —
        data entries belong to the
        :class:`~repro.engine.campaign.CampaignSegmentPool`, which
        registers its own cleanup. The executor is left alone: its workers
        die with the process, and joining them is not signal-safe.
        """
        for slot in self._slots + self._result_slots:
            unlink_segment(slot.shm)
        self._slots = []
        self._result_slots = []
        self._current = None
        for record in self._templates.values():
            unlink_segment(record.shm)
        self._templates = {}


class PooledEvaluator:
    """Attachable ``Server.evaluator`` backed by the warm process pool.

    Campaign runtimes construct one per run and assign it to
    ``server.evaluator``; :meth:`~repro.fl.server.Server.evaluate` then
    delegates here instead of re-running the backbone serially. With a
    stable ``test_key`` and a persistent backend the test-set
    segments are published once per campaign, not once per run.
    """

    def __init__(
        self,
        backend: ProcessPoolBackend,
        test_set: Dataset,
        test_key: tuple | None = None,
        batch_size: int = 512,
    ):
        if not isinstance(backend, ProcessPoolBackend):
            raise TypeError("PooledEvaluator requires a ProcessPoolBackend")
        self.backend = backend
        self.test_set = test_set
        self.test_key = test_key
        self.batch_size = batch_size

    def evaluate(
        self,
        model: SegmentedModel,
        global_state: dict[str, np.ndarray],
        batch_size: int | None = None,
    ) -> float:
        # The evaluator's configured batch size governs shard geometry
        # (it is part of the campaign-pool key, so it must stay stable
        # across a campaign); the caller's per-call hint is ignored.
        # Row-determinism makes the result bitwise independent of the
        # choice anyway (see repro.fl.features).
        del batch_size
        return self.backend.evaluate_pooled(
            model,
            global_state,
            self.test_set,
            test_key=self.test_key,
            batch_size=self.batch_size,
        )


#: Backend short names used by configuration surfaces.
BACKENDS = ("serial", "process")


def make_backend(
    name: str,
    max_workers: int | None = None,
    persistent: bool = False,
    feature_runtime: FeatureRuntime | None = None,
    fault_policy: FaultPolicy | None = None,
    chaos: ChaosPlan | None = None,
) -> ExecutionBackend:
    """Instantiate an execution backend by short name.

    ``feature_runtime`` enables the frozen-feature cache on either backend
    (see :mod:`repro.fl.features`): client rounds run head-only through
    the fused solver, and ``submit_many`` groups compatible clients into
    block-stacked cohort solves. Without one, rounds run the full forward
    through the layer graph, one client at a time. Everything else
    configures the process backend only (see :class:`ProcessPoolBackend`):
    ``persistent`` governs its cross-run state, and
    ``fault_policy``/``chaos`` drive its fault layer
    (:mod:`repro.engine.faults`). The serial backend runs no worker jobs,
    so those have nothing to act on there; the configuration surfaces
    reject the worker-only knobs for it up front
    (:func:`~repro.engine.faults.reject_worker_only_knobs`).
    """
    if name == "serial":
        return SerialBackend(feature_runtime=feature_runtime)
    if name == "process":
        return ProcessPoolBackend(
            max_workers=max_workers,
            persistent=persistent,
            feature_runtime=feature_runtime,
            fault_policy=fault_policy,
            chaos=chaos,
        )
    raise ValueError(f"unknown backend {name!r}; expected one of {BACKENDS}")
