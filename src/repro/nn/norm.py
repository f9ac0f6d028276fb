"""Batch normalisation for 2-D feature maps.

Running statistics are registered as buffers so they travel with
``state_dict`` — in federated averaging they are aggregated with the same
weights as trainable parameters (see ``repro.fl.aggregation``).
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter


class BatchNorm2d(Module):
    """BatchNorm over ``(n, c, h, w)`` inputs, per channel."""

    #: axes reduced when computing batch statistics
    _axes = (0, 2, 3)

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        if num_features <= 0:
            raise ValueError("num_features must be positive")
        if not 0.0 < momentum <= 1.0:
            raise ValueError("momentum must be in (0, 1]")
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(init.ones((num_features,)))
        self.beta = Parameter(init.zeros((num_features,)))
        self.register_buffer("running_mean", init.zeros((num_features,)))
        self.register_buffer("running_var", init.ones((num_features,)))
        self._cache: tuple | None = None

    def _expand(self, v: np.ndarray) -> np.ndarray:
        """Broadcast a per-channel vector to the input layout."""
        return v[None, :, None, None]

    def _check_input(self, x: np.ndarray) -> None:
        if x.ndim != 4 or x.shape[1] != self.num_features:
            raise ValueError(
                f"expected input (n, {self.num_features}, h, w), got {x.shape}"
            )

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._check_input(x)
        if self.training:
            mean = x.mean(axis=self._axes)
            var = x.var(axis=self._axes)
            m = x.size // self.num_features
            # Unbiased variance for the running estimate (torch convention).
            unbiased = var * m / max(m - 1, 1)
            self._set_buffer(
                "running_mean",
                (1 - self.momentum) * self.running_mean + self.momentum * mean,
            )
            self._set_buffer(
                "running_var",
                (1 - self.momentum) * self.running_var + self.momentum * unbiased,
            )
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - self._expand(mean)) * self._expand(inv_std)
        self._cache = (x_hat, inv_std, self.training)
        return self._expand(self.gamma.data) * x_hat + self._expand(self.beta.data)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_hat, inv_std, was_training = self._cache
        if self.gamma.requires_grad:
            self.gamma.grad += (grad_out * x_hat).sum(axis=self._axes)
        if self.beta.requires_grad:
            self.beta.grad += grad_out.sum(axis=self._axes)
        dx_hat = grad_out * self._expand(self.gamma.data)
        if not was_training:
            # In eval mode the statistics are constants.
            return dx_hat * self._expand(inv_std)
        m = grad_out.size // self.num_features
        sum_dx_hat = dx_hat.sum(axis=self._axes)
        sum_dx_hat_xhat = (dx_hat * x_hat).sum(axis=self._axes)
        dx = (
            dx_hat
            - self._expand(sum_dx_hat) / m
            - x_hat * self._expand(sum_dx_hat_xhat) / m
        ) * self._expand(inv_std)
        return dx

    def flops_per_sample(self, in_shape: tuple) -> tuple[int, tuple]:
        return 4 * int(np.prod(in_shape)), in_shape

