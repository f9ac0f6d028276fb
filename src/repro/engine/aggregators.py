"""Asynchronous server-side aggregation strategies.

Both strategies consume one client completion at a time, discount it by its
staleness (global aggregations applied since the client was dispatched),
and share the synchronous core in :mod:`repro.fl.aggregation`:

- :class:`FedAsyncAggregator` — apply every update immediately as a convex
  mix ``w ← (1 − α_s)·w + α_s·w_k`` with ``α_s = α·(1 + s)^-a``
  (FedAsync, Xie et al. 2019).
- :class:`FedBuffAggregator` — buffer client *deltas* (local θ minus the
  broadcast θ the client started from) and flush a staleness-discounted
  weighted average of ``K`` of them at once (FedBuff, Nguyen et al. 2022).

``apply`` returns True when the global model version advanced, which drives
the engine's evaluation cadence.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from repro.fl.aggregation import (
    apply_delta_flat,
    mix_flat,
    staleness_weight,
    subtract_flat,
    weighted_average_flat,
)
from repro.fl.server import Server
from repro.fl.slab import SlabState, slab_successor
from repro.fl.strategies import LocalUpdate


class AsyncAggregator:
    """Interface: fold one completed client round into the global model."""

    def apply(
        self,
        server: Server,
        update: LocalUpdate,
        staleness: int,
        base_state: dict[str, np.ndarray],
    ) -> bool:
        """Consume one update; True iff the global version advanced."""
        raise NotImplementedError

    @property
    def pending(self) -> int:
        """Buffered updates not yet reflected in the global model."""
        return 0

    def flush(self, server: Server) -> bool:
        """Fold any buffered remainder into the model at end of run.

        Returns True iff the global version advanced. Without this, work
        stranded in a partial buffer would be charged to the run's client
        seconds but never reach the model, biasing the efficiency metric.
        """
        return False

    def state_export(self) -> list[tuple[dict[str, np.ndarray], float]]:
        """Buffered-but-unapplied state for checkpoints (empty if stateless)."""
        return []

    def state_restore(
        self, state: list[tuple[dict[str, np.ndarray], float]]
    ) -> None:
        """Restore :meth:`state_export` output into a fresh aggregator."""
        if state:
            raise ValueError(
                f"{type(self).__name__} is stateless but the checkpoint "
                f"carries {len(state)} buffered update(s)"
            )


def _check_staleness_exponent(exponent: float) -> None:
    # NaN fails the check, as does inf (every stale update would vanish).
    if not (exponent >= 0 and math.isfinite(exponent)):
        raise ValueError(
            f"staleness_exponent must be non-negative and finite, got {exponent}"
        )


@dataclass
class FedAsyncAggregator(AsyncAggregator):
    """Immediate staleness-weighted mixing (one version per update)."""

    mixing: float = 0.6  # the paper's α
    staleness_exponent: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.mixing <= 1.0:
            raise ValueError(f"mixing must be in (0, 1], got {self.mixing}")
        _check_staleness_exponent(self.staleness_exponent)

    def apply(self, server, update, staleness, base_state):
        """Mix ``update``'s θ into the server's; an update whose θ does not
        fit the server's packing is refused before anything changes
        (see :meth:`repro.fl.slab.SlabLayout.flatten`)."""
        alpha = self.mixing * staleness_weight(staleness, self.staleness_exponent)
        base = server.global_state
        layout = base.layout
        incoming = layout.flatten(update.theta)
        mixed = mix_flat(base.theta_slab, incoming, alpha)
        server.global_state = slab_successor(base, mixed, layout)
        server.round_index += 1
        return True


@dataclass
class FedBuffAggregator(AsyncAggregator):
    """Buffered aggregation: flush K staleness-discounted deltas at once.

    Deltas are taken against the broadcast state each client was dispatched
    with, so a stale client only contributes what it *learned*, not its
    stale starting point. Buffer weights are the clients' selected sample
    counts times the staleness discount, normalised inside
    :func:`~repro.fl.aggregation.weighted_average_flat`. Every buffered
    delta is a θ-only :class:`~repro.fl.slab.SlabState` in the server's
    packing.
    """

    buffer_size: int = 4  # the paper's K
    server_lr: float = 1.0
    staleness_exponent: float = 0.5
    _buffer: list[tuple[SlabState, float]] = field(
        default_factory=list, repr=False
    )

    def __post_init__(self):
        if not (
            isinstance(self.buffer_size, numbers.Integral)
            and self.buffer_size > 0
        ):
            raise ValueError(
                f"buffer_size must be positive and an integer, got "
                f"{self.buffer_size}"
            )
        if not (self.server_lr > 0 and math.isfinite(self.server_lr)):
            raise ValueError(
                f"server_lr must be positive and finite, got {self.server_lr}"
            )
        _check_staleness_exponent(self.staleness_exponent)

    @property
    def pending(self) -> int:
        return len(self._buffer)

    def apply(self, server, update, staleness, base_state):
        """Buffer ``update``'s delta against ``base_state`` and flush when
        the buffer is full. An update whose θ does not fit the server's
        packing is refused before anything changes (see
        :meth:`repro.fl.slab.SlabLayout.flatten`)."""
        layout = server.global_state.layout
        minuend = layout.flatten(update.theta)
        delta = slab_successor(
            {}, subtract_flat(minuend, base_state.theta_slab), layout
        )
        weight = max(1, update.num_selected) * staleness_weight(
            staleness, self.staleness_exponent
        )
        self._buffer.append((delta, weight))
        if len(self._buffer) < self.buffer_size:
            return False
        return self.flush(server)

    def flush(self, server):
        """One-ufunc flush: stack → weighted average → delta application."""
        if not self._buffer:
            return False
        base = server.global_state
        stack = np.stack([delta.theta_slab for delta, _ in self._buffer])
        merged = weighted_average_flat(stack, [w for _, w in self._buffer])
        theta = apply_delta_flat(base.theta_slab, merged, self.server_lr)
        server.global_state = slab_successor(base, theta, base.layout)
        server.round_index += 1
        self._buffer.clear()
        return True

    def state_export(self):
        return list(self._buffer)

    def state_restore(self, state):
        self._buffer = [(delta, float(weight)) for delta, weight in state]


def make_aggregator(
    mode: str,
    mixing: float = 0.6,
    staleness_exponent: float = 0.5,
    buffer_size: int = 4,
    server_lr: float = 1.0,
) -> AsyncAggregator:
    """Instantiate the aggregator for an asynchronous mode by name."""
    if mode == "fedasync":
        return FedAsyncAggregator(
            mixing=mixing, staleness_exponent=staleness_exponent
        )
    if mode == "fedbuff":
        return FedBuffAggregator(
            buffer_size=buffer_size,
            server_lr=server_lr,
            staleness_exponent=staleness_exponent,
        )
    raise ValueError(
        f"unknown async mode {mode!r}; expected 'fedasync' or 'fedbuff'"
    )
