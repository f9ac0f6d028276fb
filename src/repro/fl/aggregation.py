"""Server-side aggregation kernels over flat θ slabs.

The server holds every model version's θ as one contiguous float64 slab
(:mod:`repro.fl.slab`), so each aggregation is one ufunc over the whole
slab: :func:`weighted_average_flat` is the synchronous FedAvg core (Eq. 5)
over a 2-D (clients × params) stack, and :func:`mix_flat`,
:func:`apply_delta_flat` and :func:`subtract_flat` with
:func:`staleness_weight` are the asynchronous primitives shared by the
engine's FedAsync/FedBuff aggregators (:mod:`repro.engine.aggregators`).

Each kernel replays, element by element, the per-key walk a dict-of-arrays
formulation would run (``tests/dict_oracle.py`` keeps that walk as the
test oracle), so results are bitwise identical to it. The one
reassociation — ``np.add.reduce`` over the stack axis versus the sequential
``acc += w·state`` walk — is pairwise left-to-right in both formulations,
with a trailing ``+ 0.0`` restoring the walk's zero-initialised
accumulator sign on all-``-0.0`` columns.

Every kernel returns a fresh slab and writes no input but
:func:`weighted_average_flat`'s stack, so no model version is written
once made (see DESIGN.md, "Write-once model versions").
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _normalized_weights(count: int, weights: Sequence[float]) -> np.ndarray:
    """Validate and normalise aggregation weights to sum to one."""
    if count == 0:
        raise ValueError("no states to aggregate")
    if count != len(weights):
        raise ValueError("states and weights length mismatch")
    weights = np.asarray(weights, dtype=np.float64)
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    total = weights.sum()
    if total <= 0:
        raise ValueError("weights sum to zero")
    return weights / total


def weighted_average_flat(
    stack: np.ndarray, weights: Sequence[float]
) -> np.ndarray:
    """FedAvg over a ``(clients × params)`` stack as one ufunc pair (Eq. 5).

    Weights are normalised to sum to one; in FedFT-EDS they are
    proportional to each client's *selected* sample count |Dᵏ_select|.
    ``stack`` holds one flat θ slab per row and is **consumed as scratch**
    (rows are scaled in place). ``np.add.reduce`` accumulates rows
    pairwise left-to-right exactly like the sequential ``acc += w·state``
    walk, and the trailing ``+ 0.0`` reproduces the walk's
    zero-initialised accumulator on columns where every scaled row is
    ``-0.0`` (the one place the formulations differ). Weights are
    validated before anything is written.
    """
    if stack.ndim != 2:
        raise ValueError(f"expected a 2-D (clients x params) stack, got {stack.shape}")
    weights = _normalized_weights(stack.shape[0], weights)
    np.multiply(stack, weights[:, None], out=stack)
    out = np.add.reduce(stack, axis=0)
    out += 0.0
    return out


def staleness_weight(staleness: int, exponent: float = 0.5) -> float:
    """Polynomial staleness discount ``(1 + s)^-a`` (FedAsync, Xie et al.).

    ``staleness`` counts global aggregations applied between a client's
    dispatch and its completion; fresh updates (s = 0) keep full weight.
    """
    if staleness < 0:
        raise ValueError(f"staleness must be non-negative, got {staleness}")
    if exponent < 0:
        raise ValueError(f"exponent must be non-negative, got {exponent}")
    return float((1.0 + staleness) ** -exponent)


def mix_flat(
    base: np.ndarray, incoming: np.ndarray, alpha: float
) -> np.ndarray:
    """Convex combination ``(1 - α)·base + α·incoming`` over whole slabs
    (the FedAsync update)."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    out = base * (1.0 - alpha)
    out += incoming * alpha
    return out


def apply_delta_flat(
    base: np.ndarray, delta: np.ndarray, lr: float
) -> np.ndarray:
    """Server-side update ``base + lr·delta`` over whole slabs (FedBuff)."""
    return base + delta * lr


def subtract_flat(minuend: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Difference ``minuend − base`` over whole slabs.

    The FedBuff delta primitive: what a client *learned* relative to the
    broadcast state it started from.
    """
    return minuend - base
