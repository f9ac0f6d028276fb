"""Communication-cost accounting (paper §III-D).

Because ϕ is frozen after pretraining, FedFT methods only exchange the
upper part θ each round: the server broadcasts θᵗ and each participant
uploads θᵗ⁺¹ₖ. Full-model methods exchange every parameter both ways. This
module quantifies that saving exactly, from the live model's parameter
sets.

All counts are in scalar parameters; ``bytes_per_scalar`` converts to bytes
(8 for the float64 used by this substrate, 4 for float32 deployments).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nn.segmented import SegmentedModel
from repro.nn.serialization import theta_keys


@dataclass(frozen=True)
class RoundCommunication:
    """Per-round traffic between the server and one client."""

    download_parameters: int  # server -> client
    upload_parameters: int  # client -> server

    @property
    def total_parameters(self) -> int:
        return self.download_parameters + self.upload_parameters

    def bytes(self, bytes_per_scalar: int = 8) -> int:
        if bytes_per_scalar <= 0:
            raise ValueError("bytes_per_scalar must be positive")
        return self.total_parameters * bytes_per_scalar


def _state_size(model: SegmentedModel, keys: list[str]) -> int:
    state = model.state_dict()
    return int(sum(state[k].size for k in keys))


def round_communication(model: SegmentedModel) -> RoundCommunication:
    """Per-round traffic of the model's *current* ϕ/θ split.

    With everything trainable this is the FedAvg cost; with a partial split
    only θ (trainable parameters plus the BN buffers travelling with them)
    moves in each direction.
    """
    keys = theta_keys(model)
    size = _state_size(model, keys)
    return RoundCommunication(download_parameters=size, upload_parameters=size)


@dataclass(frozen=True)
class TrafficTotals:
    """Cumulative simulated traffic reconstructed from a finished run.

    These totals are *observed*: they follow the actual participation
    recorded in a sync ``TrainingHistory`` or an async ``EventLog``, so
    dropped clients, FedBuff buffering, and uneven cohorts are accounted
    exactly.
    """

    download_parameters: int  # recurring θ broadcasts actually sent
    upload_parameters: int  # θ updates actually received
    initial_download_parameters: int  # one-off full-ϕ ship, all clients

    @property
    def total_parameters(self) -> int:
        return (
            self.download_parameters
            + self.upload_parameters
            + self.initial_download_parameters
        )

    def bytes(self, bytes_per_scalar: int = 8) -> int:
        if bytes_per_scalar <= 0:
            raise ValueError("bytes_per_scalar must be positive")
        return self.total_parameters * bytes_per_scalar


def history_communication(
    model: SegmentedModel, history, num_clients: int
) -> TrafficTotals:
    """Observed campaign traffic for a finished run's history.

    Works over both history shapes without importing either (the records
    carry enough structure to tell them apart):

    - sync ``RoundRecord``s expose ``participants``; each participant
      downloaded θ and uploaded θ that round;
    - async ``EventRecord``s expose ``kind``: ``update`` / ``buffer``
      events are one full down+up exchange, ``drop`` events downloaded θ
      but never reported back. The FedBuff flush pseudo-event
      (``client_id < 0``) is server-internal and moves nothing.

    Every one of the federation's ``num_clients`` clients additionally
    received the frozen ϕ once with the initial global model.
    """
    per_round = round_communication(model)
    full = int(sum(v.size for v in model.state_dict().values()))
    initial = (full - per_round.download_parameters) * int(num_clients)
    downloads = 0
    uploads = 0
    for record in getattr(history, "records", []):
        participants = getattr(record, "participants", None)
        if participants is not None:  # sync round
            downloads += len(participants)
            uploads += len(participants)
            continue
        if getattr(record, "client_id", -1) < 0:  # server-side flush
            continue
        kind = getattr(record, "kind", None)
        if kind in ("update", "buffer"):
            downloads += 1
            uploads += 1
        elif kind == "drop":
            downloads += 1
    return TrafficTotals(
        download_parameters=downloads * per_round.download_parameters,
        upload_parameters=uploads * per_round.upload_parameters,
        initial_download_parameters=initial,
    )

