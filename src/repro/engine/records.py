"""Event-level run history for the asynchronous engine.

Where the synchronous loop logs one :class:`~repro.fl.rounds.RoundRecord`
per lock-step round, the event-driven engine logs one :class:`EventRecord`
per processed client-completion event: an applied update (FedAsync), a
buffered update awaiting a FedBuff flush, or a mid-round dropout. The
:class:`EventLog` exposes the same summary surface as
:class:`~repro.fl.rounds.TrainingHistory` (``best_accuracy``,
``total_client_seconds``, threshold queries), so
:func:`repro.metrics.efficiency.learning_efficiency` works on both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class EventRecord:
    """Everything observed when one client-completion event is processed.

    ``virtual_time`` is the simulated wall-clock of the federation (the
    event scheduler's clock), while ``cumulative_client_seconds`` sums the
    *work* done across all clients — the same quantity the synchronous loop
    accumulates and the learning-efficiency metric divides by.
    """

    event_index: int
    kind: str  # "update" | "buffer" | "drop"
    virtual_time: float
    client_id: int
    #: aggregations applied between this client's dispatch and completion
    staleness: int
    #: global model version *after* this event was processed
    model_version: int
    test_accuracy: float
    #: True when ``test_accuracy`` comes from a fresh evaluation rather than
    #: carrying the last measured value forward
    evaluated: bool
    num_selected: int
    client_seconds: float
    cumulative_client_seconds: float
    mean_local_loss: float


@dataclass
class EventLog:
    """Event-by-event log of an asynchronous federated run.

    Mirrors :class:`~repro.fl.rounds.TrainingHistory`'s summary API so the
    efficiency metric and the threshold queries used by the straggler
    benchmarks apply unchanged.
    """

    records: list[EventRecord] = field(default_factory=list)

    def append(self, record: EventRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def accuracies(self) -> np.ndarray:
        return np.array([r.test_accuracy for r in self.records])

    @property
    def best_accuracy(self) -> float:
        evaluated = [r.test_accuracy for r in self.records if r.evaluated]
        if not evaluated:
            return 0.0
        return float(max(evaluated))

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

    @property
    def final_version(self) -> int:
        """Global model version after the last event (aggregations applied)."""
        if not self.records:
            return 0
        return self.records[-1].model_version

    def seconds_to_accuracy(self, target: float) -> float | None:
        """Cumulative client seconds when ``target`` is first measured."""
        for record in self.records:
            if record.evaluated and record.test_accuracy >= target:
                return record.cumulative_client_seconds
        return None
