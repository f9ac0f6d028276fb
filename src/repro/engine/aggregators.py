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


def _offer_flat(free: list[np.ndarray], slab: np.ndarray, cap: int) -> None:
    """Pool a retired slab, at most ``cap`` per slab length.

    The cap is per length, not overall: cohort update lanes (views into a
    cohort job's delta stack, recycled by the engine after apply) can
    differ in length from retired server versions, and one size class
    must not crowd the other out of the pool.
    """
    if sum(1 for f in free if len(f) == len(slab)) < cap:
        free.append(slab)


def _take_flat(
    free: list[np.ndarray], total: int, *forbidden: np.ndarray
) -> np.ndarray:
    """A pooled slab of length ``total`` aliasing none of ``forbidden``,
    or a fresh one."""
    for idx in range(len(free) - 1, -1, -1):
        flat = free[idx]
        if len(flat) == total and not any(flat is f for f in forbidden):
            return free.pop(idx)
    return np.empty(total)


def _scratch(buffer: np.ndarray | None, total: int) -> np.ndarray:
    """``buffer`` when it holds ``total`` elements, else a fresh array."""
    if buffer is None or len(buffer) != total:
        return np.empty(total)
    return buffer


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

    def recycle(self, state: dict[str, np.ndarray]) -> None:
        """Offer a retired model version's θ slab for buffer reuse.

        The engine calls this when the last in-flight round dispatched from
        a superseded model version completes: nothing reads that version's
        θ slab again, so the aggregator may overwrite it instead of
        allocating a fresh output (see "Buffer reuse" in
        :mod:`repro.fl.aggregation`). Ignoring the offer is always safe.
        """


def _check_staleness_exponent(exponent: float) -> None:
    # NaN fails the check, as does inf (every stale update would vanish).
    if not (exponent >= 0 and math.isfinite(exponent)):
        raise ValueError(
            f"staleness_exponent must be non-negative and finite, got {exponent}"
        )


@dataclass
class FedAsyncAggregator(AsyncAggregator):
    """Immediate staleness-weighted mixing (one version per update).

    Retired slabs handed back through :meth:`recycle` back the next mix's
    output, so a long run reuses a bounded set of θ-sized slabs instead of
    allocating one per event.
    """

    mixing: float = 0.6  # the paper's α
    staleness_exponent: float = 0.5
    #: retired θ slabs: superseded server versions and cohort update lanes
    _free_flats: list[np.ndarray] = field(default_factory=list, repr=False)
    _mix_scratch: np.ndarray | None = field(default=None, repr=False)
    _gather_scratch: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if not 0.0 < self.mixing <= 1.0:
            raise ValueError(f"mixing must be in (0, 1], got {self.mixing}")
        _check_staleness_exponent(self.staleness_exponent)

    def recycle(self, state):
        _offer_flat(self._free_flats, state.theta_slab, 4)

    def apply(self, server, update, staleness, base_state):
        """Mix ``update``'s θ into the server's; an update whose θ does not
        fit the server's packing is refused before anything changes
        (see :meth:`repro.fl.slab.SlabLayout.flatten`)."""
        alpha = self.mixing * staleness_weight(staleness, self.staleness_exponent)
        base = server.global_state
        layout = base.layout
        self._gather_scratch = _scratch(self._gather_scratch, layout.total)
        incoming = layout.flatten(update.theta, self._gather_scratch)
        self._mix_scratch = _scratch(self._mix_scratch, layout.total)
        out = _take_flat(
            self._free_flats, layout.total, base.theta_slab, incoming
        )
        mix_flat(base.theta_slab, incoming, alpha, out, self._mix_scratch)
        server.global_state = slab_successor(base, out, layout)
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
    #: retired θ slabs reusable as delta and flush outputs (flushed deltas,
    #: dead broadcast versions and cohort lanes offered through recycle)
    _free_flats: list[np.ndarray] = field(default_factory=list, repr=False)
    #: persistent accumulator for the flush's weighted average
    _merge_flat: np.ndarray | None = field(default=None, repr=False)
    _gather_scratch: np.ndarray | None = field(default=None, repr=False)
    #: (buffered deltas × params) flush matrix, consumed as scratch
    _stack_scratch: np.ndarray | None = field(default=None, repr=False)

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

    def recycle(self, state):
        _offer_flat(self._free_flats, state.theta_slab, self.buffer_size + 4)

    def apply(self, server, update, staleness, base_state):
        """Buffer ``update``'s delta against ``base_state`` and flush when
        the buffer is full. An update whose θ does not fit the server's
        packing is refused before anything changes (see
        :meth:`repro.fl.slab.SlabLayout.flatten`)."""
        layout = server.global_state.layout
        self._gather_scratch = _scratch(self._gather_scratch, layout.total)
        minuend = layout.flatten(update.theta, self._gather_scratch)
        out = _take_flat(
            self._free_flats, layout.total, minuend, base_state.theta_slab
        )
        subtract_flat(minuend, base_state.theta_slab, out)
        delta = slab_successor({}, out, layout)
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
        layout = base.layout
        n = len(self._buffer)
        stack = self._stack_scratch
        if stack is None or stack.shape[0] < n or stack.shape[1] != layout.total:
            stack = self._stack_scratch = np.empty((n, layout.total))
        for j, (delta, _) in enumerate(self._buffer):
            stack[j] = delta.theta_slab
        self._merge_flat = _scratch(self._merge_flat, layout.total)
        weighted_average_flat(
            stack[:n], [w for _, w in self._buffer], out=self._merge_flat
        )
        out = _take_flat(
            self._free_flats, layout.total, base.theta_slab, self._merge_flat
        )
        apply_delta_flat(
            base.theta_slab, self._merge_flat, self.server_lr, out
        )
        server.global_state = slab_successor(base, out, layout)
        server.round_index += 1
        for delta, _ in self._buffer:
            self.recycle(delta)
        self._buffer.clear()
        return True

    def state_export(self):
        return [
            (slab_successor({}, delta.theta_slab.copy(), delta.layout), weight)
            for delta, weight in self._buffer
        ]

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
