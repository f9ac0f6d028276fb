"""Weight initialisers.

All initialisers take an explicit ``numpy.random.Generator`` so model
construction is fully deterministic given a seed — a requirement for the
reproducibility guarantees tested in ``tests/test_determinism.py``.
"""

from __future__ import annotations

import math

import numpy as np


def kaiming_normal(
    rng: np.random.Generator, shape: tuple, fan_in: int
) -> np.ndarray:
    """He-normal initialisation, the standard choice for ReLU networks."""
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in}")
    std = math.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape)


def zeros(shape: tuple) -> np.ndarray:
    return np.zeros(shape, dtype=np.float64)


def ones(shape: tuple) -> np.ndarray:
    return np.ones(shape, dtype=np.float64)
