"""Optimisers and learning-rate schedules.

The paper uses SGD with learning rate 0.1 and momentum 0.5 for the local
updates; :class:`SGD` reproduces that, plus weight decay and Nesterov
momentum for the pretraining recipes.
"""

from __future__ import annotations

import math

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
        nesterov: bool = False,
    ):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        if nesterov and momentum == 0.0:
            raise ValueError("nesterov momentum requires momentum > 0")
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.nesterov = nesterov
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
                update = grad + self.momentum * v if self.nesterov else v
            else:
                update = grad
            p.data -= self.lr * update

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


class ConstantLR:
    """Schedule returning a fixed learning rate."""

    def __init__(self, lr: float):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.lr = lr

    def __call__(self, step: int) -> float:
        return self.lr


class StepLR:
    """Multiply the base LR by ``gamma`` every ``step_size`` steps."""

    def __init__(self, lr: float, step_size: int, gamma: float = 0.1):
        if lr <= 0 or step_size <= 0 or not 0 < gamma <= 1:
            raise ValueError("invalid StepLR configuration")
        self.lr = lr
        self.step_size = step_size
        self.gamma = gamma

    def __call__(self, step: int) -> float:
        return self.lr * self.gamma ** (step // self.step_size)


class CosineLR:
    """Cosine annealing from the base LR to ``min_lr`` over ``total`` steps."""

    def __init__(self, lr: float, total: int, min_lr: float = 0.0):
        if lr <= 0 or total <= 0 or min_lr < 0:
            raise ValueError("invalid CosineLR configuration")
        self.lr = lr
        self.total = total
        self.min_lr = min_lr

    def __call__(self, step: int) -> float:
        t = min(step, self.total) / self.total
        return self.min_lr + 0.5 * (self.lr - self.min_lr) * (1 + math.cos(math.pi * t))
