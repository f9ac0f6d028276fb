"""Analytic client-time model.

The paper reports learning efficiency as best accuracy divided by total
client training *seconds*. Wall-clock time on the authors' testbed is not
reproducible, so time is simulated from the exact FLOPs of the configured
model (the substitution, and the virtual-clock semantics the asynchronous
engine builds on it, are documented in DESIGN.md at the repo root):

- training one sample costs a full forward plus a backward truncated below
  the lowest trainable segment — this is where partial fine-tuning saves;
- entropy (and any learned) selection additionally costs one forward pass
  over *all* local samples (the paper's stated selection overhead);
- heterogeneous device speeds are per-client multipliers.

Only *relative* times matter for every conclusion drawn from the metric.
Both run loops price a round once, when they dispatch it
(``Client.planned_round_seconds``), and bill that price; execution
backends never see a timing model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.nn import profiling
from repro.nn.segmented import SegmentedModel


@dataclass
class TimingModel:
    """Converts FLOPs into simulated seconds for one client round."""

    flops_per_second: float = 1e9
    #: multiplier >= 1 slows a device down; keyed by client id
    speed_multipliers: dict[int, float] | None = None

    def __post_init__(self):
        # Written so that NaN fails both checks.
        if not (self.flops_per_second > 0 and math.isfinite(self.flops_per_second)):
            raise ValueError(
                f"flops_per_second must be positive and finite, got "
                f"{self.flops_per_second}"
            )
        if self.speed_multipliers is not None:
            bad = {
                k: v
                for k, v in self.speed_multipliers.items()
                if not (v > 0 and math.isfinite(v))
            }
            if bad:
                raise ValueError(f"non-positive or non-finite speed multipliers: {bad}")

    def _multiplier(self, client_id: int) -> float:
        if self.speed_multipliers is None:
            return 1.0
        return self.speed_multipliers.get(client_id, 1.0)

    def round_seconds(
        self,
        model: SegmentedModel,
        in_shape: tuple,
        num_selected: int,
        num_local: int,
        epochs: int,
        selection_forward: bool,
        client_id: int = 0,
    ) -> float:
        """Simulated seconds for one local round of one client, from the
        model's FLOPs walk for ``in_shape``
        (:func:`repro.nn.profiling.round_flops_per_sample`, taken once per
        structure and input shape)."""
        if num_selected < 0 or num_local < 0 or epochs <= 0:
            raise ValueError("counts must be non-negative and epochs positive")
        training, selection = profiling.round_flops_per_sample(model, in_shape)
        train_flops = training * num_selected * epochs
        selection_flops = 0
        if selection_forward:
            selection_flops = selection * num_local
        total = train_flops + selection_flops
        return total / self.flops_per_second * self._multiplier(client_id)


def straggler_multipliers(
    num_clients: int,
    slow_fraction: float,
    slowdown: float,
    seed: int = 0,
) -> dict[int, float]:
    """Speed multipliers for a Table-III-style heterogeneous tier split.

    A deterministic ``slow_fraction`` of the pool becomes stragglers with
    the given ``slowdown`` (> 1); the rest keep multiplier 1. Used by the
    async-vs-sync straggler experiment and benchmark.
    """
    if num_clients <= 0:
        raise ValueError("num_clients must be positive")
    if not 0.0 <= slow_fraction <= 1.0:
        raise ValueError(f"slow_fraction must be in [0, 1], got {slow_fraction}")
    if slowdown < 1.0:
        raise ValueError(f"slowdown must be >= 1, got {slowdown}")
    k = int(round(slow_fraction * num_clients))
    rng = np.random.default_rng(seed)
    slow = rng.choice(num_clients, size=k, replace=False)
    return {int(cid): float(slowdown) for cid in np.sort(slow)}
