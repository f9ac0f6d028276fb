"""The federated training loop (Algorithm 1) and its run history.

Every round's local solves go through an
:class:`~repro.engine.backends.ExecutionBackend`; with none given, the
loop runs them in-process on a
:class:`~repro.engine.backends.SerialBackend`, the one in-process round
path the event engine uses too. The loop prices each participant when it
dispatches the round (``Client.planned_round_seconds``), as the event
engine does, and bills the round the sum of those prices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.fl.client import Client
from repro.fl.sampling import FullParticipation, ParticipationModel
from repro.fl.server import Server
from repro.fl.timing import TimingModel
from repro.obs import tracing
from repro.utils import check_count, make_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.backends import ExecutionBackend
    from repro.fl.checkpoint import RunState


@dataclass(frozen=True)
class RoundRecord:
    """Everything observed in one communication round.

    ``evaluated`` distinguishes a freshly measured ``test_accuracy`` from a
    value carried forward between evaluations (``eval_every > 1``); the
    threshold queries below only trust the former.
    """

    round_index: int
    test_accuracy: float
    participants: tuple[int, ...]
    selected_samples: int
    client_seconds: float
    cumulative_client_seconds: float
    mean_local_loss: float
    evaluated: bool = True


@dataclass
class TrainingHistory:
    """Round-by-round log of a federated run."""

    records: list[RoundRecord] = field(default_factory=list)

    def append(self, record: RoundRecord) -> None:
        self.records.append(record)

    @property
    def accuracies(self) -> np.ndarray:
        return np.array([r.test_accuracy for r in self.records])

    @property
    def rounds(self) -> np.ndarray:
        return np.array([r.round_index for r in self.records])

    @property
    def best_accuracy(self) -> float:
        if not self.records:
            return 0.0
        return float(self.accuracies.max())

    @property
    def final_accuracy(self) -> float:
        if not self.records:
            return 0.0
        return float(self.records[-1].test_accuracy)

    @property
    def total_client_seconds(self) -> float:
        if not self.records:
            return 0.0
        return float(self.records[-1].cumulative_client_seconds)

    def seconds_to_accuracy(self, target: float) -> float | None:
        """Cumulative client seconds when ``target`` is first *measured*,
        or None.

        Only genuinely evaluated records count: with ``eval_every > 1`` the
        in-between records repeat the last measured accuracy, which must not
        register as a (stale) threshold hit.
        """
        for record in self.records:
            if record.evaluated and record.test_accuracy >= target:
                return record.cumulative_client_seconds
        return None


def check_run_knobs(
    eval_every: int,
    checkpoint_path: str | None,
    checkpoint_every: int,
    emergency_checkpoint: bool,
) -> None:
    """Refuse evaluation and checkpoint settings neither run loop can
    honour (``run_fedft_eds`` checks them before any setup)."""
    check_count("eval_every", eval_every)
    check_count("checkpoint_every", checkpoint_every, minimum=0)
    if checkpoint_every and not checkpoint_path:
        raise ValueError("checkpoint_every requires a checkpoint_path")
    if emergency_checkpoint and not checkpoint_path:
        raise ValueError("emergency_checkpoint requires a checkpoint_path")


def run_federated_training(
    server: Server,
    clients: list[Client],
    rounds: int,
    seed: int = 0,
    participation: ParticipationModel | None = None,
    timing: TimingModel | None = None,
    eval_every: int = 1,
    backend: "ExecutionBackend | None" = None,
    verbose: bool = False,
    feature_runtime=None,
    checkpoint_path: str | None = None,
    checkpoint_every: int = 0,
    on_round=None,
    emergency_checkpoint: bool = False,
    resume: "RunState | None" = None,
) -> TrainingHistory:
    """Run ``rounds`` communication rounds of Algorithm 1.

    Each round: sample participants → every participant selects data and
    fine-tunes locally → the server fuses the uploaded θ's weighted by
    selected counts → periodic evaluation. With no ``backend`` the clients
    run sequentially in the server's workspace model, on a
    :class:`~repro.engine.backends.SerialBackend`; a process backend runs
    them in parallel workers with bitwise-identical results (updates are
    aggregated in participant order either way). A round bills the sum of
    its participants' ``planned_round_seconds``, taken at dispatch, in
    participant order (0 seconds without a ``timing`` model).

    ``feature_runtime`` (a :class:`~repro.fl.features.FeatureRuntime`)
    applies only when no ``backend`` is given: the loop's serial backend
    then runs head-only client rounds on cached ϕ(x) features, grouped
    into cohort solves where possible — bitwise identical to the full
    forward. An explicit backend carries its own runtime.

    A round whose participant set is empty (a ``participation`` model
    may choose nobody) skips aggregation and is recorded as a
    zero-participant round.

    A pool mixing clients whose round re-freezes the shared model
    (``supports_feature_cache`` False, e.g. tiered clients) with clients
    whose round does not is refused with ``ValueError`` before the first
    dispatch: the split the others train at would depend on the backend.

    With ``checkpoint_path`` and ``checkpoint_every > 0``, the run state —
    global state, round records, the sampling RNG stream and every
    client's RNG stream — is checkpointed every ``checkpoint_every``
    rounds (:func:`repro.fl.checkpoint.save_checkpoint`);
    :func:`repro.fl.checkpoint.resume_sync_federated_training` continues
    an interrupted run to the bitwise-identical history and weights.
    ``on_round`` is called after each round (after any checkpoint write);
    an exception it raises aborts the run — the kill-and-resume hook.

    With ``emergency_checkpoint=True`` (requires ``checkpoint_path``), the
    loop stashes the run state a periodic save would write after every
    round and, if a later round crashes mid-flight, writes it on the way
    down with the async loop's writer
    (:func:`repro.fl.checkpoint.save_async_checkpoint`) before re-raising
    — so a supervised restart resumes from the last *completed* round
    instead of the last periodic save.

    ``resume`` is internal: a restored sync
    :class:`~repro.fl.checkpoint.RunState` handed over by the resume entry
    point. The loop takes the round records, the sampling stream and every
    client stream from it and continues at the next absolute round up to
    ``rounds``, so round numbering, the evaluation cadence
    (``round_index % eval_every == 0 or round_index == rounds``) and every
    RNG draw line up with the uninterrupted run. The caller must restore
    the server's weights and round index before the call.
    """
    check_count("rounds", rounds)
    check_run_knobs(
        eval_every, checkpoint_path, checkpoint_every, emergency_checkpoint
    )
    if not clients:
        raise ValueError("client pool is empty")
    refreezing = [
        c for c in clients if not getattr(c, "supports_feature_cache", True)
    ]
    if refreezing and len(refreezing) < len(clients):
        raise ValueError(
            f"client {refreezing[0].client_id} re-freezes the shared model "
            "per round (supports_feature_cache is False) and other clients "
            "do not, so the split they train at would depend on the backend"
        )
    if backend is None:
        # Local import: repro.engine imports this package.
        from repro.engine.backends import SerialBackend

        backend = SerialBackend(feature_runtime=feature_runtime)
    participation = participation or FullParticipation()
    sampling_rng = make_rng(seed)
    history = TrainingHistory()
    if resume is not None:
        sampling_rng.bit_generator.state = resume.scheduler_rng_state
        for cid, state in resume.idle_rng_states.items():
            clients[int(cid)].rng.bit_generator.state = state
        history = TrainingHistory(records=list(resume.records))
    start_round = history.records[-1].round_index if history.records else 0
    cumulative_seconds = history.total_client_seconds
    meta = {
        "rounds": rounds,
        "eval_every": eval_every,
        "seed": seed,
        "num_clients": len(clients),
    }
    # Local imports: fl.checkpoint imports this module for resume.
    from repro.fl.checkpoint import (
        save_async_checkpoint,
        save_checkpoint,
        sync_run_state,
    )

    #: end-of-round run state, written on the way down by the crash path
    #: when ``emergency_checkpoint`` is on
    last_state = None
    try:
        for round_index in range(start_round + 1, rounds + 1):
            chosen = participation.participants(
                round_index, len(clients), sampling_rng
            )
            broadcast = server.broadcast()
            participants = [clients[int(cid)] for cid in chosen]
            prices = []
            if timing is not None:
                prices = [
                    client.planned_round_seconds(server.model, timing)
                    for client in participants
                ]
            with tracing.span("round.local_solve"):
                updates = backend.map_round(
                    participants, server.model, broadcast
                )
            if updates:
                with tracing.span("round.aggregate"):
                    server.aggregate(updates)
            round_seconds = float(sum(prices))
            cumulative_seconds += round_seconds
            tracing.event_span("round", cumulative_seconds, round_seconds, 0)
            evaluated = round_index % eval_every == 0 or round_index == rounds
            if evaluated:
                accuracy = server.evaluate()
            else:
                accuracy = (
                    history.records[-1].test_accuracy
                    if history.records
                    else 0.0
                )
            record = RoundRecord(
                round_index=round_index,
                test_accuracy=accuracy,
                participants=tuple(int(c) for c in chosen),
                selected_samples=int(sum(u.num_selected for u in updates)),
                client_seconds=round_seconds,
                cumulative_client_seconds=cumulative_seconds,
                mean_local_loss=(
                    float(np.mean([u.mean_loss for u in updates]))
                    if updates
                    else 0.0
                ),
                evaluated=evaluated,
            )
            history.append(record)
            if verbose:  # pragma: no cover - console convenience
                print(
                    f"round {round_index:3d}: acc={accuracy:.4f} "
                    f"participants={len(chosen)} "
                    f"selected={record.selected_samples}"
                )
            if (
                checkpoint_path
                and checkpoint_every > 0
                and round_index % checkpoint_every == 0
            ):
                save_checkpoint(
                    checkpoint_path, server, history, clients, sampling_rng,
                    meta,
                )
            if emergency_checkpoint:
                last_state = sync_run_state(
                    server, history, clients, sampling_rng, meta
                )
            if on_round is not None:
                on_round(record)
    except BaseException:
        if last_state is not None:
            # Best-effort save on the way down; the original crash must
            # propagate whatever happens here. (Local import: the fault
            # counters live engine-side.)
            try:
                from repro.engine.faults import FAULTS

                save_async_checkpoint(checkpoint_path, last_state)
                FAULTS["emergency_checkpoints"] += 1
            except Exception:  # pragma: no cover - diagnostics only
                pass
        raise
    return history
