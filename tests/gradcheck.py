"""Numerical gradient checking for the hand-written backward passes.

Central differences against the analytic gradients; used by
``test_nn_gradients.py`` to certify every layer.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.nn.module import Module


def numerical_grad(
    f: Callable[[], float], array: np.ndarray, eps: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of scalar ``f()`` w.r.t. ``array`` in place."""
    grad = np.zeros_like(array)
    it = np.nditer(array, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = array[idx]
        array[idx] = original + eps
        f_plus = f()
        array[idx] = original - eps
        f_minus = f()
        array[idx] = original
        grad[idx] = (f_plus - f_minus) / (2 * eps)
        it.iternext()
    return grad


def check_module_gradients(
    module: Module,
    x: np.ndarray,
    rng: np.random.Generator,
    atol: float = 1e-6,
    rtol: float = 1e-4,
) -> dict[str, float]:
    """Verify parameter and input gradients of ``module`` at input ``x``.

    The scalar objective is a fixed random projection of the output, which
    exercises every output element. Returns the max absolute error per
    checked tensor; raises ``AssertionError`` on mismatch.
    """
    out = module(x)
    proj = rng.normal(size=out.shape)

    def objective() -> float:
        return float((module(x) * proj).sum())

    module.zero_grad()
    out = module(x)
    grad_in = module.backward(proj)
    errors: dict[str, float] = {}
    for name, p in module.named_parameters():
        if not p.requires_grad:
            continue
        num = numerical_grad(objective, p.data)
        err = float(np.max(np.abs(num - p.grad)))
        scale = float(np.max(np.abs(num)) + 1.0)
        if err > atol + rtol * scale:
            raise AssertionError(
                f"gradient mismatch for parameter {name!r}: max err {err:.3e}"
            )
        errors[name] = err
    if grad_in is not None:
        num = numerical_grad(objective, x)
        err = float(np.max(np.abs(num - grad_in)))
        scale = float(np.max(np.abs(num)) + 1.0)
        if err > atol + rtol * scale:
            raise AssertionError(f"input gradient mismatch: max err {err:.3e}")
        errors["<input>"] = err
    return errors
