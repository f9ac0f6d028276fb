"""Weighted aggregation (Eq. 5) and its invariants, through the server's
flat kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fl.aggregation import weighted_average_flat
from repro.fl.slab import SlabLayout


def weighted_average(states, weights):
    """Eq. 5 as the server runs it: every state packed into one row of a
    (clients × params) stack per the first state's layout."""
    if not states:
        return weighted_average_flat(np.empty((0, 1)), weights)
    layout = SlabLayout.for_state(states[0], list(states[0]))
    stack = np.stack([layout.flatten(s) for s in states])
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
