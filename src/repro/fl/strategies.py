"""Local update solvers: plain SGD (FedAvg family) and FedProx.

A :class:`LocalSolver` runs ``E`` epochs of mini-batch SGD on a client's
selected data. With ``prox_mu > 0`` it adds FedProx's proximal gradient
``μ (w − w_global)`` on every trainable parameter, pulling local updates
back toward the global model (Li et al., 2020).

The layer graph below is the reference solver. Head-only solves whose
head the model's plan runs train instead as a one-lane
:class:`~repro.nn.fused.CohortPlan` solve (see :meth:`LocalSolver.run`),
bitwise identical; either way a solve counts once on ``solver.fused.*``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from repro.data.dataset import ArrayDataset, DataLoader, Dataset
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Module
from repro.nn.optim import SGD
from repro.obs.metrics import export_group

#: shared with repro.fl.fastpath (same exported namespace): how many local
#: solves ran fused vs through the layer graph, merged exactly from
#: process workers via the job-result shard protocol
_FUSED_STATS = export_group(
    "solver.fused", {"fused_solves": 0, "graph_solves": 0}
)


@dataclass
class LocalUpdate:
    """Result of one client's local round."""

    theta: dict[str, np.ndarray]
    num_selected: int
    num_local: int
    mean_loss: float = 0.0


class LocalSolver:
    """Mini-batch SGD over the selected local data, optionally proximal."""

    def __init__(
        self,
        lr: float = 0.1,
        momentum: float = 0.5,
        prox_mu: float = 0.0,
        batch_size: int = 32,
    ):
        # Written so that NaN fails every check.
        if not (lr > 0 and math.isfinite(lr)):
            raise ValueError(f"lr must be positive and finite, got {lr}")
        if not (isinstance(batch_size, numbers.Integral) and batch_size >= 1):
            raise ValueError(
                f"batch_size must be at least 1 and an integer, got {batch_size}"
            )
        if not (momentum >= 0 and math.isfinite(momentum)):
            raise ValueError(
                f"momentum must be non-negative and finite, got {momentum}"
            )
        if not (prox_mu >= 0 and math.isfinite(prox_mu)):
            raise ValueError(
                f"prox_mu must be non-negative and finite, got {prox_mu}"
            )
        self.lr = lr
        self.momentum = momentum
        self.prox_mu = prox_mu
        self.batch_size = batch_size

    def run(
        self,
        model: Module,
        dataset: Dataset,
        epochs: int,
        rng: np.random.Generator,
        global_reference: dict[str, np.ndarray] | None = None,
        features: np.ndarray | None = None,
        fastpath=None,
    ) -> float:
        """Train ``model`` in place for ``epochs`` epochs; returns mean loss.

        ``global_reference`` (a state dict snapshot of the broadcast model)
        is required when ``prox_mu > 0``.

        ``features``, when given, is the cached eval-mode ϕ(x) of exactly
        the selected samples (aligned with ``dataset``'s labels): each step
        then runs only the trainable head on the feature minibatch. The
        loader draws identical permutations from ``rng`` and the head sees
        identical minibatch bytes, so the θ trajectory is bitwise identical
        to the full-forward path (see :mod:`repro.fl.features`).

        ``fastpath`` (a :class:`~repro.fl.fastpath.HeadLane` that
        ``Client.run_round`` loaded with the broadcast θ) runs the
        head-only solve as a one-lane cohort on the model's head plan
        instead of the layer graph — planned epoch permutations, compiled
        zero-allocation steps — bitwise identical by the contract of
        :mod:`repro.nn.fused`. The lane trains from the θ it holds, which
        is also its FedProx reference, and leaves ``model`` untouched; a
        ``global_reference`` without some θ key raises the graph path's
        ``KeyError``.
        """
        if epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.prox_mu > 0 and global_reference is None:
            raise ValueError("FedProx (prox_mu > 0) needs the global reference")
        if features is not None and len(features) != len(dataset):
            raise ValueError(
                f"features ({len(features)}) and dataset ({len(dataset)}) "
                f"disagree"
            )
        if features is not None and fastpath is not None:
            if self.prox_mu > 0:
                missing = [k for k in fastpath.layout.keys if k not in global_reference]
                if missing:
                    raise KeyError(missing[0])
            mean = fastpath.solve(features, dataset.labels, epochs, rng, self)
            _FUSED_STATS["fused_solves"] += 1
            return mean
        _FUSED_STATS["graph_solves"] += 1
        trainable = [
            (name, p) for name, p in model.named_parameters() if p.requires_grad
        ]
        if not trainable:
            raise ValueError("model has no trainable parameters")
        optimizer = SGD(
            [p for _, p in trainable], lr=self.lr, momentum=self.momentum
        )
        loss_fn = CrossEntropyLoss()
        if features is not None:
            # Labels only: a Subset would gather every selected input row
            # just to drop it, and a worker's labels-only shard has none.
            data = ArrayDataset(features, dataset.labels)
            forward = model.forward_head
        else:
            data = dataset
            forward = model
        loader = DataLoader(data, self.batch_size, shuffle=True, rng=rng)
        losses: list[float] = []
        for _epoch in range(epochs):
            for xb, yb in loader:
                logits = forward(xb)
                losses.append(loss_fn.forward(logits, yb))
                model.zero_grad()
                model.backward(loss_fn.backward())
                if self.prox_mu > 0:
                    for name, p in trainable:
                        p.grad += self.prox_mu * (p.data - global_reference[name])
                optimizer.step()
        return float(np.mean(losses)) if losses else 0.0
