"""Per-round local data selection strategies.

The paper's methods differ only in *which* local samples feed the local
update:

- :class:`EntropySelector` — the contribution: score every sample with the
  Shannon entropy of its hardened-softmax output (Eqs. 2–3, 6) and keep the
  top fraction. Costs one forward pass over all local data.
- :class:`RandomSelector` — the RDS baselines: a fresh uniform subset each
  round (paper §IV-A3).
- :class:`FullSelector` — no selection (Pds = 100%).

With cached features and a head the model's plan runs
(:func:`repro.fl.fastpath.head_lane`), entropy scoring is the plan's
broadcast-θ forward over the whole shard in whole 32-row tiles, bitwise
the graph's whatever the selector's chunk size; cohort solves score their
lanes the same way (:func:`repro.fl.fastpath.solve_cohort`).
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from repro.data.dataset import Dataset
from repro.nn import functional as F
from repro.nn.module import Module
from repro.obs import tracing


def selected_count(n: int, fraction: float) -> int:
    """Number of samples kept from ``n`` at a selection fraction."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"selection fraction must be in (0, 1], got {fraction}")
    return max(1, int(round(fraction * n)))


def batched_logits(
    model: Module, x: np.ndarray, batch_size: int = 256
) -> np.ndarray:
    """Eval-mode forward pass in batches; restores the previous mode."""
    was_training = model.training
    model.eval()
    outputs = [model(x[i : i + batch_size]) for i in range(0, len(x), batch_size)]
    if was_training:
        model.train()
    return np.concatenate(outputs, axis=0)


class DataSelector:
    """Interface: pick the local sample indices used for this round.

    ``features``, when given, is the cached eval-mode ϕ(x) of the *whole*
    local shard (see :mod:`repro.fl.features`); selectors that score by a
    forward pass consume it through the model's head instead of re-running
    the frozen backbone, bitwise-identically. Selectors that never look at
    the model ignore it.

    ``fastpath`` (a :class:`~repro.fl.fastpath.HeadLane` holding the
    broadcast θ, only ever given together with ``features``) additionally
    routes the scoring forward through the model's head plan — whole
    32-row tiles into plan-owned buffers instead of per-chunk graph
    forwards, bitwise identically (see :mod:`repro.nn.fused`).
    """

    #: display name used in reports
    name = "base"
    #: whether scoring requires a forward pass over all local data
    #: (drives the selection-overhead term of the timing model)
    requires_forward = False

    def select(
        self,
        model: Module,
        dataset: Dataset,
        fraction: float,
        rng: np.random.Generator,
        features: np.ndarray | None = None,
        fastpath=None,
    ) -> np.ndarray:
        raise NotImplementedError


class FullSelector(DataSelector):
    """Use every local sample (no workload reduction)."""

    name = "all"
    requires_forward = False

    def select(self, model, dataset, fraction, rng, features=None,
               fastpath=None):
        if fraction != 1.0:
            raise ValueError("FullSelector only supports fraction=1.0")
        return np.arange(len(dataset))


class RandomSelector(DataSelector):
    """Uniform random subset, redrawn each round (the RDS baselines)."""

    name = "rds"
    requires_forward = False

    def select(self, model, dataset, fraction, rng, features=None,
               fastpath=None):
        n = len(dataset)
        k = selected_count(n, fraction)
        return np.sort(rng.choice(n, size=k, replace=False))


class EntropySelector(DataSelector):
    """Entropy-based data selection with hardened softmax (the paper's EDS).

    ``temperature`` < 1 hardens the softmax (Eq. 6): confident samples'
    entropy collapses toward zero, making the genuinely uncertain ones stand
    out. The paper's default is 0.1.
    """

    name = "eds"
    requires_forward = True

    def __init__(self, temperature: float = 0.1, batch_size: int = 256):
        # Written so that NaN fails every check.
        if not (temperature > 0 and math.isfinite(temperature)):
            raise ValueError(
                f"temperature must be positive and finite, got {temperature}"
            )
        if not (isinstance(batch_size, numbers.Integral) and batch_size >= 1):
            raise ValueError(
                f"batch_size must be at least 1 and an integer, got {batch_size}"
            )
        self.temperature = temperature
        self.batch_size = batch_size

    def scores(
        self,
        model: Module,
        dataset: Dataset,
        features: np.ndarray | None = None,
        fastpath=None,
    ) -> np.ndarray:
        """Per-sample entropy under the hardened softmax (higher = selected)."""
        if features is not None and fastpath is not None:
            # The head plan's broadcast-θ forward over the whole shard:
            # every row's logits, and so its entropy, bitwise the graph's
            # whatever the chunking (repro.nn.fused). The returned buffer
            # is plan-owned and only read below, never retained.
            return fastpath.plan.entropy_scores(features, self.temperature)
        if features is not None:
            # Cached ϕ(x): only the head runs. Same chunking as the raw
            # path, so the logits — and the selected set — are bitwise
            # identical (repro.fl.features documents the invariant).
            from repro.fl.features import batched_head_logits

            logits = batched_head_logits(model, features, self.batch_size)
        else:
            x, _ = dataset.arrays()
            logits = batched_logits(model, x, self.batch_size)
        return F.entropy_from_logits(logits, self.temperature)

    def select(self, model, dataset, fraction, rng, features=None,
               fastpath=None):
        n = len(dataset)
        k = selected_count(n, fraction)
        with tracing.span("selection.entropy"):
            entropy = self.scores(model, dataset, features, fastpath)
        # Highest-entropy samples are the "harder but more valuable" ones.
        top = np.argpartition(entropy, n - k)[n - k :]
        return np.sort(top)
