"""Per-round client participation models.

The straggler experiment (Table III) models heavyweight FL as a
participation fraction: with FedAvg only ``fn`` of the pool completes a
round, while the lightweight FedFT variants assume full participation
because their per-round workload is a small fraction of FedAvg's.
"""

from __future__ import annotations

import numpy as np


class ParticipationModel:
    """Chooses which client ids take part in a round."""

    def participants(
        self, round_index: int, num_clients: int, rng: np.random.Generator
    ) -> np.ndarray:
        raise NotImplementedError


class FullParticipation(ParticipationModel):
    """Every client participates every round."""

    def participants(self, round_index, num_clients, rng):
        return np.arange(num_clients)


class FractionParticipation(ParticipationModel):
    """A uniform random fraction ``fn`` of clients participates per round.

    The complementary ``1 − fn`` fraction are that round's stragglers, as in
    the paper's 100-client experiment (fn ∈ {100%, 20%, 10%}).
    """

    def __init__(self, fraction: float):
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.fraction = fraction

    def participants(self, round_index, num_clients, rng):
        k = max(1, int(round(self.fraction * num_clients)))
        chosen = rng.choice(num_clients, size=min(k, num_clients), replace=False)
        return np.sort(chosen)

