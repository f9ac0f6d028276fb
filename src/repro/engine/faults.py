"""Fault policy, deterministic chaos injection, and supervised restarts.

The campaign runtime dispatches long-lived shared-memory jobs (per-client
rounds, cohort chunks, eval shards) to warm worker processes. A single
worker crash, hung job, or corrupted segment used to kill the whole run.
This module is the fault story:

- :class:`FaultPolicy` — per-job deadline, retry budget, and an
  exponential backoff whose jitter comes from a dedicated seeded RNG
  stream, so retry *timing* is as reproducible as retry *results*.
  Segment fingerprints are always verified on attach.
- :class:`ChaosPlan` — a seeded fault-injection schedule (kill a worker
  before job K, delay a job, corrupt a published segment's bytes, tear a
  checkpoint write mid-save) parsed from a compact CLI spec
  (``"kill@3;delay@5:0.02;corrupt@0;tear@1"``) so every failure scenario
  replays exactly.
- :func:`run_supervised` — bounded-restart supervision around a training
  entry point: on a mid-round crash either run loop writes an emergency
  checkpoint in the one checkpoint format (:mod:`repro.fl.checkpoint`)
  and the supervisor resumes from it.

Why recovery never drifts results: every job blob is a pure function of
its dispatch-time RNG state and the published BLAKE2b-fingerprinted
segments, and the parent only folds a job's effects (client RNG advance,
metric shards, θ update) in at ``result()`` time. A lost job can
therefore be redispatched — or run inline after degradation — any number
of times and produce bitwise-identical bytes.

Everything observable lands in the exported ``faults.*`` counter group so
the PR 6 registry and telemetry summaries pick it up with zero wiring.
Nothing here reads an RNG stream shared with training.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from repro.obs import metrics as obs_metrics

#: every fault-layer event, exported for exact worker-shard merge and the
#: telemetry registry (see repro.obs.metrics)
FAULTS = obs_metrics.export_group(
    "faults",
    {
        "retries": 0,
        "respawns": 0,
        "timeouts": 0,
        "corrupt_segments": 0,
        "segment_repairs": 0,
        "degradations": 0,
        "emergency_checkpoints": 0,
        "supervised_restarts": 0,
        "chaos_kills": 0,
        "chaos_delays": 0,
        "chaos_corruptions": 0,
        "chaos_torn_saves": 0,
        "chaos_disk_corruptions": 0,
        "chaos_disk_tears": 0,
    },
)

#: The retry backoff schedule: attempt ``n`` waits
#: ``backoff_base * BACKOFF_FACTOR**(n-1)`` seconds, capped at
#: ``BACKOFF_MAX``, then jittered by ± ``BACKOFF_JITTER`` of itself from
#: a stream seeded with ``BACKOFF_SEED``.
BACKOFF_FACTOR = 2.0
BACKOFF_MAX = 2.0
BACKOFF_JITTER = 0.1
BACKOFF_SEED = 0

#: BLAKE2b digest size for segment fingerprints — matches the shard/
#: feature fingerprints the backends already publish (12 bytes is plenty
#: to detect corruption; this is integrity checking, not cryptography)
_DIGEST_SIZE = 12


def segment_fingerprint(buf, nbytes: int) -> bytes:
    """BLAKE2b fingerprint of the first ``nbytes`` of a buffer.

    Shared-memory segments round up to page size, so callers must pin the
    logical length — hashing ``shm.buf`` whole would tie the fingerprint
    to the platform's page size.
    """
    return hashlib.blake2b(bytes(buf[:nbytes]), digest_size=_DIGEST_SIZE).digest()


class SegmentCorruption(Exception):
    """A published segment's bytes no longer match their fingerprint.

    Raised worker-side on attach verification and parent-side on pool
    re-attach; carries the segment name so the parent can republish just
    that segment. Picklable (single string arg) so it survives the
    process-pool result channel.
    """

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name


@dataclass
class FaultPolicy:
    """Retry/deadline/degradation budget for one campaign's jobs.

    ``backoff_delay(attempt)`` is deterministic: the jitter comes from
    this policy's own ``default_rng(BACKOFF_SEED)`` stream, never from the
    training RNGs, so enabling retries cannot perturb results and a
    replayed failure scenario waits the same milliseconds.
    """

    #: wall-clock seconds a single job may run before the watchdog kills
    #: the workers and the job is retried; ``None`` disables the watchdog
    job_deadline: float | None = None
    #: consecutive failures of one job before degrading to inline execution
    max_retries: int = 2
    #: first backoff wait (seconds); see :data:`BACKOFF_FACTOR`
    backoff_base: float = 0.05
    _backoff_rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        # Written so that NaN fails every check.
        if self.job_deadline is not None and not (
            self.job_deadline > 0 and math.isfinite(self.job_deadline)
        ):
            raise ValueError(
                f"job_deadline must be positive and finite, got "
                f"{self.job_deadline}"
            )
        if not (
            isinstance(self.max_retries, numbers.Integral)
            and self.max_retries >= 0
        ):
            raise ValueError(
                f"max_retries must be a non-negative integer, got "
                f"{self.max_retries}"
            )
        if not (self.backoff_base >= 0 and math.isfinite(self.backoff_base)):
            raise ValueError(
                f"backoff_base must be non-negative and finite, got "
                f"{self.backoff_base}"
            )
        self._backoff_rng = np.random.default_rng(BACKOFF_SEED)

    def backoff_delay(self, attempt: int) -> float:
        """Seconds to wait before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        delay = min(BACKOFF_MAX, self.backoff_base * BACKOFF_FACTOR ** (attempt - 1))
        delay *= 1.0 + BACKOFF_JITTER * float(self._backoff_rng.uniform(-1.0, 1.0))
        return max(0.0, delay)


class ChaosPlan:
    """A seeded, replayable schedule of injected faults.

    Wire format (``parse``): semicolon-separated ``kind@job[:value]``
    events, where ``kind`` is one of

    - ``kill``     — kill one worker process right after job ``K`` is
      submitted (before its result is collected), forcing a redispatch;
    - ``delay``    — make job ``K`` sleep ``value`` seconds inside the
      worker (drive it past a watchdog deadline);
    - ``corrupt``  — flip one byte (at a seeded offset) of the feature —
      else shard — segment of job ``K`` *before* dispatch, so attach
      verification must catch it;
    - ``tear``     — abort checkpoint save number ``K`` (0-based) after
      its payloads are written but before the atomic manifest swap,
      simulating a crash mid-save;
    - ``disk-tear``    — abort artifact-store write number ``K``
      (0-based, counted per plan) after the payload commit but before
      the CRC sidecar commit, leaving a torn store entry for the
      quarantine path to detect;
    - ``disk-corrupt`` — flip one byte (at a seeded offset) of artifact-
      store write number ``K`` *after* its commit, so the next CRC
      verification must quarantine and rebuild it.

    ``job`` is the backend's global job index (0-based, counted across
    per-client, cohort-chunk and eval-shard submissions), or ``*`` to
    fire on every job. ``tear`` counts checkpoint saves and
    ``disk-tear``/``disk-corrupt`` count store writes instead of jobs.
    Indexed events fire exactly once; ``*`` events fire every time. The
    byte offsets chosen by ``corrupt``/``disk-corrupt`` come from the
    plan's own seeded RNG, so a scenario replays bit-for-bit.
    """

    KINDS = ("kill", "delay", "corrupt", "tear", "disk-corrupt", "disk-tear")
    #: the kinds addressed by a backend's job index: only worker jobs
    #: honour them
    JOB_KINDS = ("kill", "delay", "corrupt")

    #: one-line grammar, quoted by every parse error
    GRAMMAR = "kind@job[:value] events joined by ';', kind in %s, job an int or '*'" % (
        "/".join(KINDS),
    )

    def __init__(self, events: list[tuple[str, int | None, float]] | None = None,
                 seed: int = 0):
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        #: (kind, job index or None for ``*``, value)
        self.events = list(events or [])
        self._fired: set[int] = set()
        self._saves_seen = 0
        self._store_writes_seen = 0

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "ChaosPlan":
        events: list[tuple[str, int | None, float]] = []
        for chunk in spec.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            head, _, value = chunk.partition(":")
            kind, at, index = head.partition("@")
            kind = kind.strip()
            if kind not in cls.KINDS:
                raise ValueError(
                    f"chaos spec {spec!r}: unknown chaos kind {kind!r} in "
                    f"event {chunk!r} (grammar: {cls.GRAMMAR})"
                )
            index = index.strip()
            if not at or not index:
                raise ValueError(
                    f"chaos spec {spec!r}: event {chunk!r} is missing '@job' "
                    f"(grammar: {cls.GRAMMAR})"
                )
            if index == "*":
                job = None
            else:
                try:
                    job = int(index)
                except ValueError:
                    raise ValueError(
                        f"chaos spec {spec!r}: bad job index {index!r} in "
                        f"event {chunk!r} — expected an int or '*' "
                        f"(grammar: {cls.GRAMMAR})"
                    ) from None
                if job < 0:
                    raise ValueError(
                        f"chaos spec {spec!r}: negative job index {index!r} "
                        f"in event {chunk!r} (grammar: {cls.GRAMMAR})"
                    )
            try:
                parsed_value = float(value) if value else 0.0
            except ValueError:
                raise ValueError(
                    f"chaos spec {spec!r}: bad value {value!r} in event "
                    f"{chunk!r} — expected a float after ':' "
                    f"(grammar: {cls.GRAMMAR})"
                ) from None
            events.append((kind, job, parsed_value))
        return cls(events, seed=seed)

    def spec(self) -> str:
        """The plan re-encoded in the ``parse`` wire format."""
        parts = []
        for kind, job, value in self.events:
            where = "*" if job is None else str(job)
            parts.append(
                f"{kind}@{where}" + (f":{value:g}" if value else "")
            )
        return ";".join(parts)

    def _take(self, kind: str, index: int) -> tuple[str, int | None, float] | None:
        for pos, (ekind, ejob, value) in enumerate(self.events):
            if ekind != kind:
                continue
            if ejob is None:
                return self.events[pos]
            if ejob == index and pos not in self._fired:
                self._fired.add(pos)
                return self.events[pos]
        return None

    def kill_before(self, index: int) -> bool:
        """Should a worker die around job ``index``?"""
        return self._take("kill", index) is not None

    def delay_for(self, index: int) -> float:
        """Seconds job ``index`` should stall inside the worker (0 = none)."""
        event = self._take("delay", index)
        return event[2] if event is not None else 0.0

    def corrupt_before(self, index: int) -> bool:
        """Should a segment of job ``index`` be corrupted before dispatch?"""
        return self._take("corrupt", index) is not None

    def corrupt_offset(self, nbytes: int) -> int:
        """Seeded byte offset to flip within an ``nbytes`` segment."""
        return int(self._rng.integers(0, max(1, nbytes)))

    def tear_save(self) -> bool:
        """Should the save happening *now* be torn? (internal save counter)"""
        index = self._saves_seen
        self._saves_seen += 1
        return self._take("tear", index) is not None

    def disk_fault_for_write(self) -> str | None:
        """Fault for the artifact-store write happening *now*, if any.

        Each call advances the plan's store-write counter (the disk
        analogue of ``tear_save``'s save counter). Returns
        ``"disk-tear"``, ``"disk-corrupt"`` or ``None``; a tear wins when
        both target the same write, because a torn entry never reaches
        the commit a corruption would flip.
        """
        index = self._store_writes_seen
        self._store_writes_seen += 1
        if self._take("disk-tear", index) is not None:
            return "disk-tear"
        if self._take("disk-corrupt", index) is not None:
            return "disk-corrupt"
        return None


def fault_setup(
    job_timeout: float | None,
    max_job_retries: int | None,
    chaos: str | ChaosPlan | None,
    seed: int,
) -> tuple[FaultPolicy | None, ChaosPlan | None]:
    """A run's fault knobs as backend-ready objects.

    Returns the :class:`FaultPolicy` that ``job_timeout`` (its
    ``job_deadline``) and ``max_job_retries`` (its ``max_retries``) ask
    for — None when neither is set; a chaos plan alone is armed with a
    default policy by the process backend — and the :class:`ChaosPlan` a
    spec string names, parsed with ``seed``.
    """
    knobs = {"job_deadline": job_timeout, "max_retries": max_job_retries}
    given = {name: value for name, value in knobs.items() if value is not None}
    policy = FaultPolicy(**given) if given else None
    if isinstance(chaos, str):
        chaos = ChaosPlan.parse(chaos, seed=seed)
    return policy, chaos


def reject_worker_only_knobs(
    job_timeout: float | None,
    max_job_retries: int | None,
    chaos: "str | ChaosPlan | None",
) -> None:
    """Refuse the fault knobs only worker jobs honour, for a serial run.

    A per-job deadline, a retry budget and the job-indexed chaos events
    (``ChaosPlan.JOB_KINDS``) act on process-backend jobs; the serial
    backend dispatches none, so it would drop them silently. The knobs
    are checked as the caller set them: chaos alone implying a default
    policy is the process backend's convention, not a user's setting.
    Checkpoint and store chaos (``tear``, ``disk-tear``, ``disk-corrupt``)
    work on any backend and pass.
    """
    knobs = [
        name
        for name, value in (
            ("job_timeout", job_timeout),
            ("max_job_retries", max_job_retries),
        )
        if value is not None
    ]
    if isinstance(chaos, str):
        chaos = ChaosPlan.parse(chaos)
    if chaos is not None:
        knobs += [
            f"chaos {kind}"
            for kind, _, _ in chaos.events
            if kind in ChaosPlan.JOB_KINDS
        ]
    if knobs:
        raise ValueError(
            f"worker-only option(s) {knobs} have no effect with "
            f"backend='serial', which runs no worker jobs; set "
            f"backend='process'"
        )


# -- process-wide chaos install (test/CLI hook for the checkpoint tear) ----

_ACTIVE_CHAOS: ChaosPlan | None = None


def install_chaos(plan: ChaosPlan | None) -> ChaosPlan | None:
    """Make ``plan`` visible to checkpoint writers (``None`` uninstalls)."""
    global _ACTIVE_CHAOS
    _ACTIVE_CHAOS = plan
    return plan


def active_chaos() -> ChaosPlan | None:
    return _ACTIVE_CHAOS


# -- supervised execution ---------------------------------------------------


def run_supervised(
    start,
    resume,
    checkpoint_path: str,
    max_restarts: int = 2,
    retry_on: tuple[type[BaseException], ...] = (Exception,),
):
    """Run ``start()``; on a crash, resume from ``checkpoint_path``.

    ``start`` launches the run from scratch; ``resume`` picks it up from
    the newest checkpoint under ``checkpoint_path`` (the training loops
    write an *emergency* checkpoint on the way down when
    ``emergency_checkpoint=True``, so a resume is almost always
    available). If no checkpoint exists yet the restart falls back to
    ``start`` again. After ``max_restarts`` failed attempts the last
    exception propagates — supervision is bounded, not a retry-forever
    loop.

    Restart *results* are bitwise-exact because resume is: the one
    checkpoint format captures every RNG stream of either loop and the
    loops re-derive identical draws (see DESIGN.md "Fault-tolerant
    runtime"). A committed checkpoint is one whose manifest,
    ``async_state.json``, exists.
    """
    import os

    attempts = 0
    while True:
        try:
            if attempts == 0:
                return start()
            manifest = os.path.join(checkpoint_path, "async_state.json")
            if os.path.exists(manifest):
                return resume()
            return start()
        except retry_on:
            attempts += 1
            FAULTS["supervised_restarts"] += 1
            if attempts > max_restarts:
                raise
