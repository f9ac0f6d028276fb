"""Weighted aggregation (Eq. 5) and its invariants, through the server's
flat kernels, and the kernels' buffer reuse against the per-key oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dict_oracle import apply_delta, mix_states, subtract_states
from dict_oracle import weighted_average as oracle_average
from repro.fl.aggregation import (
    apply_delta_flat,
    mix_flat,
    subtract_flat,
    weighted_average_flat,
)
from repro.fl.slab import SlabLayout


def weighted_average(states, weights):
    """Eq. 5 as the server runs it: every state packed into one row of a
    (clients × params) stack per the first state's layout."""
    if not states:
        return weighted_average_flat(np.empty((0, 1)), weights)
    layout = SlabLayout.for_state(states[0], list(states[0]))
    stack = np.stack(
        [layout.flatten(s, np.empty(layout.total)) for s in states]
    )
    return layout.views(weighted_average_flat(stack, weights))


def make_states(values):
    return [{"w": np.array([v], dtype=float), "b": np.array([2.0 * v])} for v in values]


def test_equal_weights_is_mean():
    out = weighted_average(make_states([1.0, 3.0]), [1, 1])
    assert out["w"][0] == pytest.approx(2.0)
    assert out["b"][0] == pytest.approx(4.0)


def test_weights_proportional_to_selected_counts():
    # Eq. 5: p_k = |D_select^k| / sum |D_select|
    out = weighted_average(make_states([0.0, 10.0]), [9, 1])
    assert out["w"][0] == pytest.approx(1.0)


def test_weight_normalisation_scale_invariant():
    a = weighted_average(make_states([1.0, 2.0]), [2, 6])
    b = weighted_average(make_states([1.0, 2.0]), [1, 3])
    assert a["w"][0] == pytest.approx(b["w"][0])


def test_single_state_identity():
    state = make_states([5.0])[0]
    out = weighted_average([state], [7])
    assert np.allclose(out["w"], state["w"])


def test_output_is_independent_copy():
    states = make_states([1.0, 2.0])
    out = weighted_average(states, [1, 1])
    out["w"][...] = 99.0
    assert states[0]["w"][0] == 1.0


def test_validation_errors():
    states = make_states([1.0, 2.0])
    with pytest.raises(ValueError):
        weighted_average([], [])
    with pytest.raises(ValueError):
        weighted_average(states, [1])
    with pytest.raises(ValueError):
        weighted_average(states, [1, -1])
    with pytest.raises(ValueError):
        weighted_average(states, [0, 0])
    with pytest.raises(KeyError):
        weighted_average([states[0], {"other": np.zeros(1)}], [1, 1])


@settings(deadline=None, max_examples=40)
@given(
    st.lists(st.floats(-10, 10), min_size=2, max_size=6),
    st.integers(0, 2**31 - 1),
)
def test_average_within_convex_hull(values, seed):
    """The aggregate of scalars lies within [min, max] of the inputs."""
    rng = np.random.default_rng(seed)
    weights = rng.integers(1, 50, size=len(values))
    out = weighted_average(make_states(values), list(weights))
    assert min(values) - 1e-9 <= out["w"][0] <= max(values) + 1e-9


def test_multidim_arrays_aggregate_elementwise():
    rng = np.random.default_rng(0)
    s1 = {"w": rng.normal(size=(3, 4))}
    s2 = {"w": rng.normal(size=(3, 4))}
    out = weighted_average([s1, s2], [1, 3])
    assert np.allclose(out["w"], 0.25 * s1["w"] + 0.75 * s2["w"])


# ---------------------------------------------------------------------------
# Buffer reuse (out=): retired slabs give the oracle's bytes
# ---------------------------------------------------------------------------


def random_state(rng, keys=("w", "b"), shape=(5, 3)):
    return {k: rng.normal(size=shape) for k in keys}


def _flat(state):
    layout = SlabLayout.for_state(state, list(state))
    return layout, layout.flatten(state, np.empty(layout.total))


def _bitwise_equal(views, reference):
    return all(views[k].tobytes() == reference[k].tobytes() for k in reference)


def test_mix_states_out_is_bitwise_identical():
    """``mix_flat`` into a retired (garbage-filled) output and scratch
    gives the per-key mix's bytes and leaves its inputs alone."""
    rng = np.random.default_rng(7)
    base = random_state(rng)
    incoming = random_state(rng)
    layout, base_flat = _flat(base)
    _, in_flat = _flat(incoming)
    before = base_flat.copy()
    out = rng.normal(size=layout.total)
    reused = mix_flat(
        base_flat, in_flat, 0.3, out, rng.normal(size=layout.total)
    )
    assert reused is out
    assert _bitwise_equal(layout.views(out), mix_states(base, incoming, 0.3))
    assert base_flat.tobytes() == before.tobytes()


def test_weighted_average_out_is_bitwise_identical():
    rng = np.random.default_rng(8)
    states = [random_state(rng) for _ in range(4)]
    weights = [3, 1, 5, 2]
    layout = SlabLayout.for_state(states[0], list(states[0]))

    def stack():
        return np.stack(
            [layout.flatten(s, np.empty(layout.total)) for s in states]
        )

    fresh = weighted_average_flat(stack(), weights)
    buffer = rng.normal(size=layout.total)
    reused = weighted_average_flat(stack(), weights, out=buffer)
    assert reused is buffer
    assert reused.tobytes() == fresh.tobytes()
    assert _bitwise_equal(layout.views(reused), oracle_average(states, weights))


def test_apply_delta_and_subtract_out_are_bitwise_identical():
    rng = np.random.default_rng(9)
    base = random_state(rng)
    delta = random_state(rng)
    layout, base_flat = _flat(base)
    _, delta_flat = _flat(delta)
    out = apply_delta_flat(
        base_flat, delta_flat, 0.7, rng.normal(size=layout.total)
    )
    assert _bitwise_equal(layout.views(out), apply_delta(base, delta, lr=0.7))
    diff = subtract_flat(delta_flat, base_flat, rng.normal(size=layout.total))
    assert _bitwise_equal(layout.views(diff), subtract_states(delta, base))


def test_out_never_aliases_inputs_or_mismatched_buffers():
    """The aggregators' slab pool never hands out a slab an aggregation
    still reads, nor one of another length: it allocates instead."""
    from repro.engine.aggregators import _take_flat

    rng = np.random.default_rng(10)
    base, incoming = rng.normal(size=6), rng.normal(size=6)
    free = [incoming, base, np.empty(4)]
    out = _take_flat(free, 6, base, incoming)
    assert out is not base and out is not incoming and len(out) == 6
    assert len(free) == 3  # nothing fitting was pooled
    spare = np.empty(6)
    free.append(spare)
    assert _take_flat(free, 6, base, incoming) is spare
    assert not any(f is spare for f in free)


def test_fedasync_recycle_reuses_retired_arrays():
    """A recycled version's θ slab backs a later mix, bitwise-identically
    to allocating."""
    from repro.engine.aggregators import FedAsyncAggregator
    from repro.fl.slab import make_slab_state

    class _Server:
        def __init__(self, state):
            self.global_state = state
            self.round_index = 0

    class _Update:
        def __init__(self, theta):
            self.theta = theta

    rng = np.random.default_rng(11)
    state = random_state(rng)
    layout = SlabLayout.for_state(state, list(state))

    plain = FedAsyncAggregator(mixing=0.5, staleness_exponent=0.0)
    recycled = FedAsyncAggregator(mixing=0.5, staleness_exponent=0.0)
    s1 = _Server(make_slab_state(state, layout))
    s2 = _Server(make_slab_state(state, layout))
    retired = None
    for step in range(6):
        theta = random_state(np.random.default_rng(100 + step))
        offered = None
        if retired is not None:
            recycled.recycle(retired)
            offered = retired.theta_slab
        retired = s2.global_state
        plain.apply(s1, _Update(theta), 0, None)
        recycled.apply(s2, _Update(theta), 0, None)
        if offered is not None:
            assert s2.global_state.theta_slab is offered
        assert s1.global_state.theta_slab.tobytes() == (
            s2.global_state.theta_slab.tobytes()
        )
