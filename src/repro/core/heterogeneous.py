"""Extension: capability-matched per-client fine-tuning levels.

The paper motivates workload reduction with heterogeneous edge devices and
(in related work) systems like FjORD/HeteroFL that size each client's
trainable portion to its compute budget. This extension composes naturally
with FedFT-EDS: every client fine-tunes from *its own* level (a weaker
device trains only the classifier, a stronger one trains up+head, …) and
the server aggregates each parameter over the clients that actually
trained it.

This goes beyond the paper's evaluated configuration (one shared level) and
is tested as an extension; the single-level path used by the reproduction
is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import Dataset
from repro.fl.client import Client
from repro.fl.selection import DataSelector
from repro.fl.strategies import LocalSolver, LocalUpdate
from repro.fl.timing import TimingModel
from repro.nn.segmented import FINE_TUNE_LEVELS, SegmentedModel


@dataclass(frozen=True)
class CapabilityTier:
    """A device class: its name and the fine-tuning level it can afford."""

    name: str
    level: str

    def __post_init__(self):
        if self.level not in FINE_TUNE_LEVELS:
            raise ValueError(
                f"unknown fine-tune level {self.level!r} for tier {self.name!r}"
            )


#: A sensible three-tier default: phones, single-board computers, laptops.
DEFAULT_TIERS = (
    CapabilityTier("weak", "classifier"),
    CapabilityTier("medium", "moderate"),
    CapabilityTier("strong", "large"),
)


def assign_tiers(
    num_clients: int,
    tiers: tuple[CapabilityTier, ...],
    rng: np.random.Generator,
    probabilities: list[float] | None = None,
) -> list[CapabilityTier]:
    """Randomly assign a capability tier to every client."""
    if num_clients <= 0:
        raise ValueError("num_clients must be positive")
    if not tiers:
        raise ValueError("no tiers given")
    if probabilities is not None:
        probabilities = list(probabilities)
        if len(probabilities) != len(tiers):
            raise ValueError("probabilities must match tiers")
    idx = rng.choice(len(tiers), size=num_clients, p=probabilities)
    return [tiers[i] for i in idx]


class TieredClient(Client):
    """A client that re-freezes the workspace model to its own level.

    The broadcast global state is unchanged; the client simply chooses how
    much of the received model it can afford to fine-tune. Because the
    ϕ/θ split changes per client, cached ϕ(x) features materialised for
    the template's split would be wrong here — the feature-cache fast
    path is disabled. Its round is priced at its own level, whatever split
    the workspace holds; but the round re-freezes the shared model that
    every later dispatch is priced and trained on, so the event engine
    refuses it: run tiered federations through the synchronous loop.
    """

    supports_feature_cache = False

    def __init__(
        self,
        client_id: int,
        dataset: Dataset,
        selector: DataSelector,
        solver: LocalSolver,
        selection_fraction: float,
        epochs: int,
        rng: np.random.Generator,
        tier: CapabilityTier,
    ):
        super().__init__(
            client_id, dataset, selector, solver, selection_fraction, epochs, rng
        )
        self.tier = tier

    def planned_round_seconds(
        self, model: SegmentedModel, timing: TimingModel
    ) -> float:
        """The price of a round at this client's own level: the model is
        re-frozen to it for the walk, then given its own flags back."""
        flags = [param.requires_grad for param in model.iter_parameters()]
        model.apply_fine_tune_level(self.tier.level)
        try:
            return super().planned_round_seconds(model, timing)
        finally:
            for param, flag in zip(model.iter_parameters(), flags):
                param.requires_grad = flag

    def run_round(
        self,
        model: SegmentedModel,
        global_state: dict[str, np.ndarray],
        features: np.ndarray | None = None,
    ) -> LocalUpdate:
        if features is not None:
            raise ValueError(
                "TieredClient re-freezes the model per round and cannot "
                "consume cached features (supports_feature_cache is False)"
            )
        model.apply_fine_tune_level(self.tier.level)
        return super().run_round(model, global_state)


def aggregate_heterogeneous(
    global_state: dict[str, np.ndarray],
    updates: list[LocalUpdate],
) -> dict[str, np.ndarray]:
    """Per-key weighted aggregation over the clients that trained each key.

    Keys nobody trained keep their global value; keys trained by a subset
    are averaged over that subset with selected-count weights (the
    HeteroFL-style position-aware merge, restricted to whole segments).
    """
    if not updates:
        raise ValueError("no client updates to aggregate")
    merged = dict(global_state)
    all_keys = set()
    for update in updates:
        unknown = set(update.theta) - set(global_state)
        if unknown:
            raise KeyError(f"update contains unknown keys: {sorted(unknown)}")
        all_keys |= set(update.theta)
    for key in all_keys:
        contributions = [
            (u.num_selected, u.theta[key]) for u in updates if key in u.theta
        ]
        total = float(sum(w for w, _ in contributions))
        if total <= 0:
            raise ValueError(f"zero total weight for key {key}")
        acc = np.zeros_like(contributions[0][1])
        for weight, value in contributions:
            acc += (weight / total) * value
        merged[key] = acc
    return merged
