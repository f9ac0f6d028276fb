"""Event-driven asynchronous FL engine with parallel client execution.

The synchronous simulator in :mod:`repro.fl` runs lock-step rounds in a
single process; this package removes both restrictions:

- a **virtual-clock event scheduler** (:mod:`repro.engine.clock`,
  :mod:`repro.engine.runner`) orders client completions by their
  FLOP-derived simulated durations, so stragglers no longer gate anyone;
- **async aggregation strategies** (:mod:`repro.engine.aggregators`) —
  staleness-weighted FedAsync and buffered FedBuff — next to synchronous
  FedAvg, sharing the core in :mod:`repro.fl.aggregation`;
- pluggable **execution backends** (:mod:`repro.engine.backends`) run
  client local training serially or in worker processes, with
  bitwise-identical results;
- a **campaign segment pool** (:mod:`repro.engine.campaign`) shares
  shard segments and warm worker pools across the runs of one experiment
  campaign, with crash-path cleanup of shared memory;
- **mid-round dropout** (``dropout_probability`` of the event loop) loses
  a seeded share of dispatched rounds partway through.

See DESIGN.md for the virtual-clock semantics and determinism contract.
"""

from repro.engine.aggregators import (
    AsyncAggregator,
    FedAsyncAggregator,
    FedBuffAggregator,
    make_aggregator,
)
from repro.engine.backends import (
    BACKENDS,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    make_backend,
)
from repro.engine.campaign import (
    CampaignSegmentPool,
    register_emergency_cleanup,
    unregister_emergency_cleanup,
)
from repro.engine.clock import EventQueue, ScheduledEvent, VirtualClock
from repro.engine.records import EventLog, EventRecord
from repro.engine.runner import run_async_federated_training
from repro.fl.checkpoint import RunState

__all__ = [
    "AsyncAggregator",
    "FedAsyncAggregator",
    "FedBuffAggregator",
    "make_aggregator",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "BACKENDS",
    "make_backend",
    "CampaignSegmentPool",
    "register_emergency_cleanup",
    "unregister_emergency_cleanup",
    "VirtualClock",
    "EventQueue",
    "ScheduledEvent",
    "EventLog",
    "EventRecord",
    "RunState",
    "run_async_federated_training",
]
