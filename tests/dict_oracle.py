"""The per-key dict aggregation walk: the test oracle for the slab kernels.

The server holds every model version's θ as one float64 slab
(``repro.fl.slab``) and aggregates with the flat kernels of
``repro.fl.aggregation``, each of which replays one of the plain per-key
walks below element by element. Tests compare the kernels against these
walks, and whole runs against the reference subclasses at the bottom,
which keep ``global_state`` a plain dict and aggregate through the walks.
The reference subclasses run in-process only: the process backend
publishes slab-backed states alone.
"""

import numpy as np

from repro.engine.aggregators import FedAsyncAggregator, FedBuffAggregator
from repro.fl.aggregation import staleness_weight
from repro.fl.server import Server


def weighted_average(states, weights):
    """Weighted average of state dicts (Eq. 5), one key at a time."""
    if not states:
        raise ValueError("no states to aggregate")
    if len(states) != len(weights):
        raise ValueError("states and weights length mismatch")
    weights = np.asarray(weights, dtype=np.float64)
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    total = weights.sum()
    if total <= 0:
        raise ValueError("weights sum to zero")
    weights = weights / total
    keys = set(states[0])
    for i, state in enumerate(states[1:], start=1):
        if set(state) != keys:
            raise KeyError(f"state {i} keys differ from state 0")
    result = {}
    for key in states[0]:
        acc = np.zeros_like(states[0][key])
        for w, state in zip(weights, states):
            acc += w * state[key]
        result[key] = acc
    return result


def mix_states(base, incoming, alpha):
    """``(1 - α)·base + α·incoming`` over incoming's keys; the rest of
    ``base`` (the frozen ϕ) passes through by reference."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    missing = set(incoming) - set(base)
    if missing:
        raise KeyError(f"incoming keys absent from base state: {sorted(missing)}")
    result = dict(base)
    for key, value in incoming.items():
        result[key] = (1.0 - alpha) * base[key] + alpha * value
    return result


def apply_delta(base, delta, lr=1.0):
    """``base + lr·delta`` over delta's keys (the FedBuff server step)."""
    missing = set(delta) - set(base)
    if missing:
        raise KeyError(f"delta keys absent from base state: {sorted(missing)}")
    result = dict(base)
    for key, value in delta.items():
        result[key] = base[key] + lr * value
    return result


def subtract_states(minuend, base):
    """``minuend − base`` over minuend's keys (a FedBuff delta)."""
    missing = set(minuend) - set(base)
    if missing:
        raise KeyError(f"minuend keys absent from base state: {sorted(missing)}")
    return {key: value - base[key] for key, value in minuend.items()}


class DictServer(Server):
    """A server whose model versions are plain dicts, averaged per key."""

    def __init__(self, model, test_set):
        super().__init__(model, test_set)
        self.global_state = {
            k: v.copy() for k, v in self.global_state.items()
        }

    def set_global_state(self, state):
        self.global_state = dict(state)

    def aggregate(self, updates):
        theta = weighted_average(
            [u.theta for u in updates], [u.num_selected for u in updates]
        )
        merged = dict(self.global_state)
        merged.update(theta)
        self.global_state = merged
        self.round_index += 1


class DictFedAsync(FedAsyncAggregator):
    """FedAsync mixing per key, allocating every version afresh."""

    def recycle(self, state):
        pass

    def apply(self, server, update, staleness, base_state):
        alpha = self.mixing * staleness_weight(
            staleness, self.staleness_exponent
        )
        server.global_state = mix_states(
            server.global_state, update.theta, alpha
        )
        server.round_index += 1
        return True


class DictFedBuff(FedBuffAggregator):
    """FedBuff buffering per-key deltas and flushing them per key."""

    def recycle(self, state):
        pass

    def apply(self, server, update, staleness, base_state):
        delta = subtract_states(update.theta, base_state)
        weight = max(1, update.num_selected) * staleness_weight(
            staleness, self.staleness_exponent
        )
        self._buffer.append((delta, weight))
        if len(self._buffer) < self.buffer_size:
            return False
        return self.flush(server)

    def flush(self, server):
        if not self._buffer:
            return False
        merged = weighted_average(
            [d for d, _ in self._buffer], [w for _, w in self._buffer]
        )
        server.global_state = apply_delta(
            server.global_state, merged, lr=self.server_lr
        )
        server.round_index += 1
        self._buffer.clear()
        return True
