"""Federated-learning simulator.

Single-process simulation of a server and a pool of clients, mirroring the
paper's experimental harness: Dirichlet-partitioned local shards, per-round
client sampling/stragglers, weighted FedAvg aggregation (Eq. 5), FedProx's
proximal local solver, per-round data selection, and an analytic timing
model that converts the exact per-client FLOPs into the "local training
seconds" used by the learning-efficiency metric.
"""

from repro.fl.aggregation import (
    apply_delta_flat,
    mix_flat,
    staleness_weight,
    subtract_flat,
    weighted_average_flat,
)
from repro.fl.slab import SlabLayout, SlabState, make_slab_state
from repro.fl.selection import (
    DataSelector,
    EntropySelector,
    FullSelector,
    RandomSelector,
)
from repro.fl.features import (
    FeatureRuntime,
    batched_head_logits,
    compute_features,
    derive_features,
)
from repro.fl.strategies import LocalSolver, LocalUpdate
from repro.fl.client import Client
from repro.fl.server import Server
from repro.fl.sampling import FractionParticipation, FullParticipation
from repro.fl.timing import TimingModel, straggler_multipliers
from repro.fl.rounds import RoundRecord, TrainingHistory, run_federated_training
from repro.fl.checkpoint import (
    RunState,
    load_async_checkpoint,
    resume_async_federated_training,
    resume_sync_federated_training,
    save_async_checkpoint,
    save_checkpoint,
)
from repro.fl.communication import round_communication

__all__ = [
    "weighted_average_flat",
    "mix_flat",
    "apply_delta_flat",
    "subtract_flat",
    "staleness_weight",
    "SlabLayout",
    "SlabState",
    "make_slab_state",
    "DataSelector",
    "EntropySelector",
    "RandomSelector",
    "FullSelector",
    "LocalSolver",
    "LocalUpdate",
    "Client",
    "Server",
    "FullParticipation",
    "FractionParticipation",
    "TimingModel",
    "straggler_multipliers",
    "RoundRecord",
    "TrainingHistory",
    "run_federated_training",
    "RunState",
    "save_checkpoint",
    "resume_sync_federated_training",
    "save_async_checkpoint",
    "load_async_checkpoint",
    "resume_async_federated_training",
    "round_communication",
]
