"""The optimiser.

The paper uses SGD with learning rate 0.1 and momentum 0.5 for the local
updates; :class:`SGD` reproduces that, plus the weight decay of the
pretraining recipes.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Parameter


class SGD:
    """SGD with momentum over an explicit parameter list.

    Frozen parameters (``requires_grad=False``) are skipped at step time, so
    the same optimiser instance remains correct if the trainable set changes
    between rounds.
    """

    def __init__(
        self,
        params: list[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            if not p.requires_grad:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                v *= self.momentum
                v += grad
                grad = v
            p.data -= self.lr * grad

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

