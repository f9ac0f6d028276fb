"""Virtual clock and completion-event queue for the asynchronous engine.

Simulated time comes from the FLOP-derived :class:`~repro.fl.timing.TimingModel`
seconds (see DESIGN.md): when a client is dispatched at virtual time ``t``
with a planned local duration ``d``, its completion event is scheduled at
``t + d``. The engine processes events in virtual-time order, so the
schedule — and therefore the whole run — is deterministic regardless of how
the underlying computation is parallelised by the execution backend.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any


class VirtualClock:
    """Monotone simulated wall-clock of the federation."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    @property
    def now(self) -> float:
        return self._now

    def advance_to(self, time: float) -> float:
        """Move the clock forward to ``time`` (never backward)."""
        if time < self._now:
            raise ValueError(
                f"virtual clock cannot run backward: {time} < {self._now}"
            )
        self._now = float(time)
        return self._now


@dataclass(order=True)
class ScheduledEvent:
    """One pending client completion, ordered by (time, dispatch sequence).

    The sequence number breaks ties between events with identical virtual
    times (e.g. homogeneous clients dispatched together), keeping the
    processing order deterministic.
    """

    time: float
    seq: int
    client_id: int = field(compare=False)
    #: global model version the client was dispatched from
    dispatch_version: int = field(compare=False)
    #: simulated seconds the client spends on this round (or until dropout)
    duration: float = field(compare=False)
    #: "update" for a completed round, "drop" for a mid-round dropout
    kind: str = field(compare=False, default="update")
    #: backend handle whose result is this client's LocalUpdate (None for drops)
    handle: Any = field(compare=False, default=None)
    #: broadcast state the client was dispatched with (FedBuff deltas need it)
    snapshot: Any = field(compare=False, default=None)
    #: client RNG state at dispatch time (checkpoints re-dispatch from it)
    rng_state: Any = field(compare=False, default=None)


class EventQueue:
    """Min-heap of :class:`ScheduledEvent` with automatic tie-break numbering."""

    def __init__(self):
        self._heap: list[ScheduledEvent] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(
        self,
        time: float,
        client_id: int,
        dispatch_version: int,
        duration: float,
        kind: str = "update",
        handle: Any = None,
        snapshot: Any = None,
        rng_state: Any = None,
    ) -> ScheduledEvent:
        event = ScheduledEvent(
            time=float(time),
            seq=self._seq,
            client_id=client_id,
            dispatch_version=dispatch_version,
            duration=float(duration),
            kind=kind,
            handle=handle,
            snapshot=snapshot,
            rng_state=rng_state,
        )
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> ScheduledEvent:
        if not self._heap:
            raise IndexError("pop from an empty event queue")
        return heapq.heappop(self._heap)

    def snapshot(self) -> list[ScheduledEvent]:
        """Pending events in processing order (checkpointing support)."""
        return sorted(self._heap)

    @property
    def next_seq(self) -> int:
        """Dispatch-sequence number the next :meth:`push` will assign."""
        return self._seq

    def restore(self, events: list[ScheduledEvent], next_seq: int) -> None:
        """Rebuild the queue from checkpointed events, keeping their seqs."""
        if self._heap or self._seq:
            raise ValueError("restore requires a fresh event queue")
        self._heap = list(events)
        heapq.heapify(self._heap)
        self._seq = int(next_seq)
