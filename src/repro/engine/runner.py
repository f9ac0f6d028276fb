"""The event-driven asynchronous federated training loop.

Clients start and finish at *simulated* timestamps instead of lock-step
rounds: a dispatched client's completion is scheduled at
``now + planned_round_seconds`` (the FLOP-derived duration from the
:class:`~repro.fl.timing.TimingModel`), and completions are processed in
virtual-time order. A fast client therefore contributes many updates while
a straggler is still working on its first — the heterogeneity dynamics the
paper's Table III studies, without the slowest client gating every round.

Billing: a round is priced once, at dispatch
(``Client.planned_round_seconds``), as the synchronous loop prices its
rounds, and the processed update is billed the duration its event was
scheduled with, so the event time and the billed seconds are one float
by construction. Backends never see the timing model. The price walks
the model once per structure and input shape (the walk lives in the
model's structure memo, see
:func:`repro.nn.profiling.round_flops_per_sample`). Clients that
re-freeze the shared workspace per round (``supports_feature_cache =
False``, e.g. tiered clients) are refused before the first dispatch:
each prices its own level, but its round re-freezes the shared model
that every later dispatch is priced and trained on. The synchronous
loop accepts them in a pool of their own.

Dropout: with ``dropout_probability > 0`` a dispatched round may be lost
midway, wasting a seeded fraction of its simulated seconds. Every client
is online for the whole run, so each dispatch picks uniformly among the
idle clients.

Determinism: planned durations, the event heap's (time, dispatch-sequence)
order, and every scheduler RNG draw are independent of how the backend
parallelises the numeric work, so the same seed yields an identical event
log — and identical final weights — under the serial and process
backends alike.

Checkpointing: every dispatch records the client's RNG state, so a
checkpoint (a :class:`~repro.fl.checkpoint.RunState`) can describe
in-flight rounds without serialising backend handles — on resume they are
simply re-dispatched from their recorded RNG state and broadcast snapshot,
reproducing the identical event sequence.
:func:`repro.fl.checkpoint.save_async_checkpoint` /
``resume_async_federated_training`` own the on-disk format, which the
synchronous loop shares.

Model versions here are slab-backed (:class:`~repro.fl.slab.SlabState`),
restored ones included: each broadcast snapshot's θ is one contiguous
array, so the aggregators mix/delta whole slabs with single ufuncs and
the process backend republishes a new version as one memcpy. Versions
are write-once: each aggregation makes a fresh slab, so an in-flight
round's snapshot or a checkpoint's pending version keeps its bytes.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable

import numpy as np

from repro.engine.aggregators import AsyncAggregator
from repro.engine.backends import ExecutionBackend, SerialBackend
from repro.engine.clock import EventQueue, ScheduledEvent, VirtualClock
from repro.engine.faults import FAULTS
from repro.engine.records import EventLog, EventRecord
from repro.fl.checkpoint import RunState, save_async_checkpoint
from repro.fl.client import Client
from repro.fl.rounds import check_run_knobs
from repro.fl.server import Server
from repro.fl.timing import TimingModel
from repro.obs import tracing
from repro.utils import check_count, make_rng


def run_async_federated_training(
    server: Server,
    clients: list[Client],
    aggregator: AsyncAggregator,
    max_events: int,
    seed: int = 0,
    timing: TimingModel | None = None,
    backend: ExecutionBackend | None = None,
    dropout_probability: float = 0.0,
    max_concurrency: int | None = None,
    eval_every: int = 1,
    verbose: bool = False,
    checkpoint_path: str | None = None,
    checkpoint_every: int = 0,
    on_event: Callable[[EventRecord], None] | None = None,
    resume: RunState | None = None,
    feature_runtime=None,
    emergency_checkpoint: bool = False,
) -> EventLog:
    """Process up to ``max_events`` client completions through ``aggregator``.

    ``max_events`` is the work budget: every processed completion — applied
    update, buffered update, or mid-round dropout — counts. With a budget of
    ``rounds × num_clients`` an async run does the same total local work as
    a synchronous full-participation run of ``rounds`` rounds, making their
    efficiency numbers directly comparable.

    ``eval_every`` is in *model versions* (aggregations applied); records
    between evaluations carry the last measured accuracy with
    ``evaluated=False``.

    ``dropout_probability`` (in ``[0, 1)``) is the chance that a
    dispatched round is lost midway; see the module docstring.

    With ``checkpoint_path`` and ``checkpoint_every > 0``, a
    :class:`~repro.fl.checkpoint.RunState` is written every
    ``checkpoint_every`` events;
    :func:`repro.fl.checkpoint.resume_async_federated_training` continues
    an interrupted run to the bitwise-identical event log and weights.
    ``on_event`` is called after each processed event (after any checkpoint
    write); an exception it raises aborts the run — the mechanism the
    kill-and-resume tests use.

    With ``emergency_checkpoint=True`` (requires ``checkpoint_path``), the
    loop snapshots the run state after every processed event and, on a
    crash anywhere in the loop — a worker failure past its retry budget,
    an ``on_event`` kill, a signal — writes that snapshot as a normal
    async checkpoint on the way down before re-raising, so a supervised
    restart (:func:`repro.engine.faults.run_supervised`) resumes from the
    last completed event instead of the last periodic save.

    ``resume`` is internal: a restored state handed over by the resume
    entry point in :mod:`repro.fl.checkpoint`. The caller must restore the
    server's weights and round index before the call.

    ``feature_runtime`` (a :class:`~repro.fl.features.FeatureRuntime`) only
    applies when no ``backend`` is given: the internally-created serial
    backend then runs head-only client rounds on cached ϕ(x) features —
    bitwise identical results, documented in :mod:`repro.fl.features`. An
    explicit backend carries its own runtime.
    """
    check_count("max_events", max_events)
    if not 0.0 <= dropout_probability < 1.0:
        raise ValueError(
            f"dropout_probability must be in [0, 1), got {dropout_probability}"
        )
    check_run_knobs(
        eval_every, checkpoint_path, checkpoint_every, emergency_checkpoint
    )
    if not clients:
        raise ValueError("client pool is empty")
    for client in clients:
        if not getattr(client, "supports_feature_cache", True):
            raise ValueError(
                f"client {client.client_id} re-freezes the shared model "
                "per round (supports_feature_cache is False), and every "
                "later dispatch is priced and trained on that model; run "
                "it in the synchronous loop"
            )
    timing = timing or TimingModel()
    owns_backend = backend is None
    backend = backend or SerialBackend(feature_runtime=feature_runtime)
    if max_concurrency is None:
        max_concurrency = len(clients)
    check_count("max_concurrency", max_concurrency)

    rng = make_rng(seed)
    clock = VirtualClock()
    queue = EventQueue()
    log = EventLog()
    idle = set(range(len(clients)))
    in_flight = 0
    last_accuracy = 0.0
    cumulative_seconds = 0.0
    dropout_p = float(dropout_probability)
    if resume is not None:
        clock = VirtualClock(resume.clock_now)
        rng.bit_generator.state = resume.scheduler_rng_state
        log = EventLog(records=list(resume.records))
        last_accuracy = float(resume.last_accuracy)
        cumulative_seconds = float(resume.cumulative_seconds)
        aggregator.state_restore(resume.aggregator_state)
        idle = set(range(len(clients))) - {
            int(p["client_id"]) for p in resume.pending
        }
        for cid, state in resume.idle_rng_states.items():
            clients[int(cid)].rng.bit_generator.state = state
        in_flight = len(resume.pending)

    def dispatch_ready() -> None:
        """Fill free slots with idle clients.

        Dispatches are also capped by the remaining event budget: every
        in-flight round produces exactly one event, so dispatching past
        ``max_events`` would train rounds whose results are discarded.
        """
        nonlocal in_flight
        with tracing.span("engine.dispatch"):
            _dispatch_ready()

    def _dispatch_ready() -> None:
        nonlocal in_flight
        # Phase 1 — scheduler decisions only. Every draw (candidate pick,
        # dropout, drop fraction) happens in the exact per-client order of
        # the original loop, but submission is deferred so phase 2 can hand
        # the whole wave to ``backend.submit_many`` — which may group
        # compatible clients into one block-stacked cohort job. Client
        # rounds consume only their own RNG streams, so running them after
        # (instead of between) the decisions is bitwise invisible.
        planned: list[tuple] = []
        while in_flight < max_concurrency and len(log) + in_flight < max_events:
            candidates = sorted(idle)
            if not candidates:
                break
            cid = candidates[int(rng.integers(len(candidates)))]
            idle.discard(cid)
            in_flight += 1
            client = clients[cid]
            duration = client.planned_round_seconds(server.model, timing)
            version = server.round_index
            if dropout_p > 0.0 and rng.random() < dropout_p:
                # The round is lost partway through; the local work never
                # runs (the result would be discarded), but the simulated
                # seconds up to the abort still count as wasted client time.
                # The client RNG is still recorded: the client is absent
                # from a checkpoint's idle map while the drop is pending,
                # and its stream must survive the resume.
                drop_fraction = float(rng.uniform(0.1, 0.9))
                planned.append(
                    (
                        "drop",
                        cid,
                        version,
                        drop_fraction * duration,
                        client.rng.bit_generator.state,
                    )
                )
            else:
                planned.append(
                    (
                        "update",
                        cid,
                        version,
                        duration,
                        client.rng.bit_generator.state,
                    )
                )
        if not planned:
            return
        # Phase 2 — grouped submission. All updates in one wave dispatch
        # from the same model version (nothing aggregates mid-dispatch),
        # hence from one broadcast snapshot.
        update_cids = [p[1] for p in planned if p[0] == "update"]
        handles: dict[int, object] = {}
        snapshot = None
        if update_cids:
            snapshot = server.broadcast()
            wave = backend.submit_many(
                [clients[cid] for cid in update_cids], server.model, snapshot
            )
            handles = dict(zip(update_cids, wave))
        # Phase 3 — queue pushes in decision order, preserving the event
        # heap's tie-break sequence numbers.
        for kind, cid, version, duration, rng_state in planned:
            if kind == "drop":
                queue.push(
                    clock.now + duration,
                    client_id=cid,
                    dispatch_version=version,
                    duration=duration,
                    kind="drop",
                    rng_state=rng_state,
                )
            else:
                queue.push(
                    clock.now + duration,
                    client_id=cid,
                    dispatch_version=version,
                    duration=duration,
                    kind="update",
                    handle=handles[cid],
                    snapshot=snapshot,
                    rng_state=rng_state,
                )

    if resume is not None:
        # Re-dispatch the checkpointed in-flight rounds from their recorded
        # dispatch-time RNG states and broadcast snapshots, preserving the
        # original event times and tie-break sequence numbers.
        restored: list[ScheduledEvent] = []
        for p in sorted(resume.pending, key=lambda d: int(d["seq"])):
            cid = int(p["client_id"])
            kind = str(p["kind"])
            handle = snapshot = None
            if kind == "update":
                snapshot = resume.snapshots[int(p["dispatch_version"])]
                client = clients[cid]
                client.rng.bit_generator.state = p["rng_state"]
                handle = backend.submit(client, server.model, snapshot)
            elif p["rng_state"] is not None:
                # A pending drop runs no local round, but the client's
                # stream (advanced by its earlier rounds) must be restored
                # for the rounds it will run after the drop completes.
                clients[cid].rng.bit_generator.state = p["rng_state"]
            restored.append(
                ScheduledEvent(
                    time=float(p["time"]),
                    seq=int(p["seq"]),
                    client_id=cid,
                    dispatch_version=int(p["dispatch_version"]),
                    duration=float(p["duration"]),
                    kind=kind,
                    handle=handle,
                    snapshot=snapshot,
                    rng_state=p.get("rng_state"),
                )
            )
        queue.restore(restored, int(resume.next_seq))

    def capture_state() -> RunState:
        """Snapshot the run between two events (see :class:`RunState`)."""
        pending = []
        snapshots: dict[int, dict[str, np.ndarray]] = {}
        for ev in queue.snapshot():
            pending.append(
                {
                    "time": ev.time,
                    "seq": ev.seq,
                    "client_id": ev.client_id,
                    "dispatch_version": ev.dispatch_version,
                    "duration": ev.duration,
                    "kind": ev.kind,
                    "rng_state": ev.rng_state,
                }
            )
            if ev.kind == "update":
                snapshots[ev.dispatch_version] = ev.snapshot
        return RunState(
            clock_now=clock.now,
            scheduler_rng_state=rng.bit_generator.state,
            idle_rng_states={
                cid: clients[cid].rng.bit_generator.state for cid in sorted(idle)
            },
            pending=pending,
            next_seq=queue.next_seq,
            snapshots=snapshots,
            aggregator_state=aggregator.state_export(),
            records=list(log.records),
            last_accuracy=last_accuracy,
            cumulative_seconds=cumulative_seconds,
            server_round_index=server.round_index,
            server_state=server.global_state,
            meta={
                "loop": "async",
                "max_events": max_events,
                "eval_every": eval_every,
                "max_concurrency": max_concurrency,
                "seed": seed,
                "num_clients": len(clients),
            },
        )

    def process(event: ScheduledEvent) -> EventRecord:
        nonlocal cumulative_seconds, last_accuracy, in_flight
        clock.advance_to(event.time)
        in_flight -= 1
        idle.add(event.client_id)
        staleness = server.round_index - event.dispatch_version
        if event.kind == "drop":
            cumulative_seconds += event.duration
            tracing.event_span(
                "drop", event.time, event.duration, event.client_id
            )
            return EventRecord(
                event_index=len(log),
                kind="drop",
                virtual_time=clock.now,
                client_id=event.client_id,
                staleness=staleness,
                model_version=server.round_index,
                test_accuracy=last_accuracy,
                evaluated=False,
                num_selected=0,
                client_seconds=event.duration,
                cumulative_client_seconds=cumulative_seconds,
                mean_local_loss=0.0,
            )
        with tracing.span("engine.collect", event.time):
            update = backend.result(event.handle)
        # The round was priced once, at dispatch: its event time and its
        # bill are the same float (see the module docstring).
        cumulative_seconds += event.duration
        # The simulated round on the virtual track: one lane per client,
        # spanning the event's [dispatch, completion] window.
        tracing.event_span(
            event.kind, event.time, event.duration, event.client_id
        )
        with tracing.span("engine.aggregate", event.time):
            applied = aggregator.apply(
                server, update, staleness, event.snapshot
            )
        evaluated = applied and server.round_index % eval_every == 0
        if evaluated:
            last_accuracy = server.evaluate()
        return EventRecord(
            event_index=len(log),
            kind="update" if applied else "buffer",
            virtual_time=clock.now,
            client_id=event.client_id,
            staleness=staleness,
            model_version=server.round_index,
            test_accuracy=last_accuracy,
            evaluated=evaluated,
            num_selected=update.num_selected,
            client_seconds=event.duration,
            cumulative_client_seconds=cumulative_seconds,
            mean_local_loss=update.mean_loss,
        )

    #: latest between-events snapshot; written on the way down by the
    #: crash path when ``emergency_checkpoint`` is on
    last_state: RunState | None = None
    try:
        dispatch_ready()
        # Every dispatch pushes one event and every processed event frees
        # a slot that the next dispatch refills, so the queue is never
        # empty while the event budget lasts.
        while len(log) < max_events:
            record = process(queue.pop())
            log.append(record)
            if verbose:  # pragma: no cover - console convenience
                print(
                    f"event {record.event_index:4d} t={record.virtual_time:9.2f}s "
                    f"client={record.client_id:3d} kind={record.kind:6s} "
                    f"stale={record.staleness:2d} v={record.model_version:4d} "
                    f"acc={record.test_accuracy:.4f}"
                )
            if len(log) < max_events:
                dispatch_ready()
            state = None
            if (
                checkpoint_path
                and checkpoint_every > 0
                and len(log) % checkpoint_every == 0
            ):
                state = capture_state()
                save_async_checkpoint(checkpoint_path, state)
            if emergency_checkpoint:
                # Stash a consistent between-events snapshot for the
                # crash-path save below (reusing the periodic one when a
                # save just happened at this exact point).
                last_state = state if state is not None else capture_state()
            if on_event is not None:
                on_event(record)
        # Fold any remainder stranded in a partial buffer (FedBuff) into
        # the model: its client seconds are already on the bill. The flush
        # is logged as a server-side event with client_id = -1.
        if aggregator.flush(server):
            last_accuracy = server.evaluate()
            log.append(
                EventRecord(
                    event_index=len(log),
                    kind="update",
                    virtual_time=clock.now,
                    client_id=-1,
                    staleness=0,
                    model_version=server.round_index,
                    test_accuracy=last_accuracy,
                    evaluated=True,
                    num_selected=0,
                    client_seconds=0.0,
                    cumulative_client_seconds=cumulative_seconds,
                    mean_local_loss=0.0,
                )
            )
        elif log.records and not log.records[-1].evaluated:
            # Mirror the sync loop's forced final evaluation: the run must
            # end on a measured accuracy, whatever the eval cadence.
            last_accuracy = server.evaluate()
            log.records[-1] = replace(
                log.records[-1], test_accuracy=last_accuracy, evaluated=True
            )
    except BaseException:
        if last_state is not None:
            # Best-effort emergency save; the original crash must
            # propagate whatever happens here.
            try:
                save_async_checkpoint(checkpoint_path, last_state)
                FAULTS["emergency_checkpoints"] += 1
            except Exception:  # pragma: no cover - diagnostics only
                pass
        raise
    finally:
        if owns_backend:
            backend.close()
    return log
