"""Utility helpers: RNG trees and table formatting."""

import numpy as np
import pytest

from repro.utils import format_table, make_rng, spawn_rngs


def test_make_rng_from_int():
    a = make_rng(5)
    b = make_rng(5)
    assert a.integers(1000) == b.integers(1000)


def test_make_rng_passthrough():
    gen = np.random.default_rng(0)
    assert make_rng(gen) is gen


def test_spawn_rngs_independent_streams():
    rngs = spawn_rngs(0, 4)
    values = [r.integers(10**9) for r in rngs]
    assert len(set(values)) == 4  # overwhelmingly likely distinct


def test_spawn_rngs_deterministic():
    a = [r.integers(10**9) for r in spawn_rngs(7, 3)]
    b = [r.integers(10**9) for r in spawn_rngs(7, 3)]
    assert a == b


def test_spawn_rngs_prefix_stable():
    """Adding more children must not perturb the earlier streams."""
    short = [r.integers(10**9) for r in spawn_rngs(7, 2)]
    long = [r.integers(10**9) for r in spawn_rngs(7, 5)[:2]]
    assert short == long


def test_spawn_rngs_validation():
    with pytest.raises(ValueError):
        spawn_rngs(0, -1)
    assert spawn_rngs(0, 0) == []


def test_format_table_alignment():
    out = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("a")
    assert "-+-" in lines[1]
    assert all(len(line) == len(lines[0]) for line in lines[2:])


def test_format_table_with_title():
    out = format_table(["x"], [["1"]], title="Title")
    assert out.splitlines()[0] == "Title"
