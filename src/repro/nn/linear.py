"""Fully-connected layer with explicit backward pass."""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter

#: fixed row-tile of the canonical forward matmul (see below)
_TILE = 32


def row_canonical_matmul(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``x @ weight`` computed in fixed 32-row gemm tiles.

    BLAS picks its kernel — and therefore its summation order — from the
    full matrix dimensions, so the same input row can produce different
    low bits depending on how many rows share its batch (a 1-row matmul
    even dispatches to gemv). Computing every product as a sequence of
    gemms of *exactly* ``_TILE`` rows (the last tile zero-padded) pins the
    kernel for every row regardless of batch size, making a row's output
    bitwise independent of its batch — the row-determinism invariant the
    frozen-feature cache (:mod:`repro.fl.features`) is built on. Within a
    tile, rows are independent dot products over a fixed k-loop, so the
    padding rows and a row's position cannot perturb it.
    """
    n = x.shape[0]
    if n == 0:
        return x @ weight  # empty batch: shape-only, nothing to canonicalise
    out = np.empty((n, weight.shape[1]), dtype=np.result_type(x, weight))
    row_canonical_matmul_into(x, weight, out)
    return out


def row_canonical_matmul_into(
    x: np.ndarray,
    weight: np.ndarray,
    out: np.ndarray,
    pad_in: np.ndarray | None = None,
    pad_out: np.ndarray | None = None,
) -> np.ndarray:
    """:func:`row_canonical_matmul` into a caller-owned destination.

    Identical tiling (and therefore identical bits) to the allocating
    version; preallocated ``pad_in``/``pad_out`` ``(_TILE, k)``/``(_TILE,
    m)`` scratch tiles make the remainder path allocate nothing either.
    ``pad_in`` rows at and beyond the remainder must be zero on entry;
    the kernel only ever writes the first ``remainder`` rows, so a
    zero-initialised scratch tile stays valid across calls whose
    remainder is fixed. The head solver (:mod:`repro.nn.fused`) runs the
    same tiling on its own stacks.
    """
    n = x.shape[0]
    full = (n // _TILE) * _TILE
    for i in range(0, full, _TILE):
        np.matmul(x[i : i + _TILE], weight, out=out[i : i + _TILE])
    remainder = n - full
    if remainder:
        if pad_in is None:
            pad_in = np.zeros((_TILE, x.shape[1]), dtype=x.dtype)
        pad_in[:remainder] = x[full:]
        if pad_out is None:
            out[full:] = (pad_in @ weight)[:remainder]
        else:
            np.matmul(pad_in, weight, out=pad_out)
            out[full:] = pad_out[:remainder]
    return out


class Linear(Module):
    """Affine map ``y = x @ W + b`` for inputs of shape ``(n, in_features)``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
    ):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature dimensions must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.kaiming_normal(rng, (in_features, out_features), fan_in=in_features)
        )
        self.bias = Parameter(init.zeros((out_features,))) if bias else None
        self._cache_x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"expected input (n, {self.in_features}), got {x.shape}"
            )
        # The input is only needed for the weight gradient; skip the copy
        # entirely when this layer is frozen.
        self._cache_x = x if self.weight.requires_grad else None
        y = row_canonical_matmul(x, self.weight.data)
        if self.bias is not None:
            y = y + self.bias.data
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self.weight.requires_grad:
            if self._cache_x is None:
                raise RuntimeError("backward called before forward")
            self.weight.grad += self._cache_x.T @ grad_out
        if self.bias is not None and self.bias.requires_grad:
            self.bias.grad += grad_out.sum(axis=0)
        return grad_out @ self.weight.data.T

    def flops_per_sample(self, in_shape: tuple) -> tuple[int, tuple]:
        flops = 2 * self.in_features * self.out_features
        return flops, (self.out_features,)
