"""Pooling layers.

``MaxPool2d`` uses the non-overlapping reshape formulation (kernel ==
stride, spatial dims divisible by the kernel), which covers every
architecture in this project and keeps NumPy fast.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module


def _check_poolable(x: np.ndarray, k: int) -> None:
    if x.ndim != 4:
        raise ValueError(f"expected 4-D input, got shape {x.shape}")
    if x.shape[2] % k or x.shape[3] % k:
        raise ValueError(
            f"spatial dims {x.shape[2:]} not divisible by pool kernel {k}"
        )


class MaxPool2d(Module):
    """Non-overlapping max pooling with kernel == stride."""

    def __init__(self, kernel_size: int):
        super().__init__()
        if kernel_size <= 0:
            raise ValueError("kernel_size must be positive")
        self.kernel_size = kernel_size
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        k = self.kernel_size
        _check_poolable(x, k)
        n, c, h, w = x.shape
        oh, ow = h // k, w // k
        # (n, c, oh, ow, k*k): each window's elements contiguous on the last axis.
        windows = (
            x.reshape(n, c, oh, k, ow, k)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(n, c, oh, ow, k * k)
        )
        idx = windows.argmax(axis=-1)
        out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]
        self._cache = (idx, x.shape)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        idx, x_shape = self._cache
        n, c, h, w = x_shape
        k = self.kernel_size
        oh, ow = h // k, w // k
        g = np.zeros((n, c, oh, ow, k * k), dtype=grad_out.dtype)
        np.put_along_axis(g, idx[..., None], grad_out[..., None], axis=-1)
        return (
            g.reshape(n, c, oh, ow, k, k)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(x_shape)
        )

    def flops_per_sample(self, in_shape: tuple) -> tuple[int, tuple]:
        c, h, w = in_shape
        k = self.kernel_size
        return int(np.prod(in_shape)), (c, h // k, w // k)


class GlobalAvgPool2d(Module):
    """Average over all spatial positions, yielding ``(n, c)``."""

    def __init__(self):
        super().__init__()
        self._in_shape: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(f"expected 4-D input, got shape {x.shape}")
        self._in_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._in_shape is None:
            raise RuntimeError("backward called before forward")
        n, c, h, w = self._in_shape
        g = grad_out[:, :, None, None] / (h * w)
        return np.broadcast_to(g, self._in_shape).copy()

    def flops_per_sample(self, in_shape: tuple) -> tuple[int, tuple]:
        c = in_shape[0]
        return int(np.prod(in_shape)), (c,)
