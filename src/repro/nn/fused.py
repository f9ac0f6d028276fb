"""Fused head-solver kernels: plan-ahead local SGD over cached features.

With the frozen-feature cache (:mod:`repro.fl.features`) every hot path is
head-only, so the simulator's remaining cost is not FLOPs but Python: each
local SGD step walks the layer graph (``forward_head`` → per-layer
``backward`` → ``zero_grad`` → ``SGD.step``), allocating fresh temporaries
for logits, softmax, gradients, weight-decay and momentum updates on every
tiny minibatch. This module collapses that interpreter overhead: a
:class:`FusedHeadPlan` owns one preallocated workspace per batch row count
— with the kernel sequence compiled to a flat program of buffer tuples at
workspace creation — and executes forward, cross-entropy backward, FedProx
pull, weight decay, momentum and the SGD update with no per-step
allocation, no module-tree traversal and no generic dispatch.

Bitwise-identity contract
-------------------------
The fused path must be indistinguishable from the layer-graph path — same
EventLog, same accuracies, same θ trajectory. That holds because every
kernel replays the graph's exact operation sequence:

- ``Linear`` forwards go through the same fixed 32-row gemm tiling
  (:func:`~repro.nn.linear.row_canonical_matmul_into`); backward matmuls
  (``xᵀ·g``, ``g·Wᵀ``) use the same plain BLAS calls, and gradient
  accumulators are zero-filled then added to (matching ``grad += …`` on a
  zeroed ``Parameter.grad`` — including the ``0 + (−0)`` sign edge).
- ``ReLU`` uses zero-fill + masked copy, bitwise equal to
  ``np.where(mask, x, 0.0)``; pooling means/backward divisions reduce in
  the same order as the module implementations (``ndarray`` method
  reductions are the same pairwise kernels the free functions call).
- The loss replays :class:`~repro.nn.losses.CrossEntropyLoss` operation
  for operation (:class:`~repro.nn.losses.FusedCrossEntropy`).
- The optimiser update replays ``SGD.step`` per parameter: weight decay as
  ``g + wd·p``, in-place momentum ``v = m·v + g``, then ``p −= lr·v``; the
  FedProx pull ``g += μ·(p − p_global)`` precedes it exactly as in
  :class:`~repro.fl.strategies.LocalSolver`. Parameters are disjoint
  arrays, so per-parameter fusion of pull + step is order-equivalent to
  the graph's two passes.
- Epoch permutations are drawn from the client RNG with draws identical
  to ``DataLoader``'s (one ``rng.permutation(n)`` per epoch, in epoch
  order, nothing in between), so the RNG stream advances identically and
  every minibatch holds the same rows.

Fusibility
----------
A head is fusible for *training* when the trainable part θ flattens to a
chain of ``Linear`` / ``ReLU`` / ``Flatten`` / ``GlobalAvgPool2d`` (plus
``Dropout(p=0)``, an RNG-free identity). Anything else — dropout with
``p > 0`` (consumes RNG in train mode), BatchNorm (mode- and
batch-dependent), convolutions, residual blocks — makes
:func:`head_ops` return ``None`` and callers fall back to the layer
graph, which remains the semantic reference.

For *evaluation* (``head_ops(model, eval_mode=True)``) the chain may
additionally contain eval-mode BatchNorm (fused as the running-statistics
affine, replaying :class:`~repro.nn.norm._BatchNorm`'s eval sequence op
for op), ``Conv2d`` / ``MaxPool2d`` / ``AvgPool2d`` (mode-independent,
executed as module calls inside the plan), and ``Dropout`` at any ``p``
(an exact identity in eval mode). Plans containing such ops are
*eval-only*: their training entry points raise.

Flat parameter slab
-------------------
Every per-parameter array a plan owns (gradient accumulator, scratch,
velocity, the parameter data itself, and the FedProx reference) is a view
into one flat float64 array packed by :func:`aligned_slot_layout` — the
same packing :mod:`repro.fl.slab` uses for server-side θ slabs, so a
broadcast from a slab-backed server state is a single ``memcpy`` into
``_data_flat``. ``adopt_params`` re-homes the bound layers' parameter
storage onto the plan's slab views; all in-place mutation elsewhere
(``load_state_dict``, graph-path ``SGD.step``) then transparently writes
the slab, and the whole SGD update — FedProx pull and weight decay
included — runs as ufuncs over the flat concatenation. Inter-slot padding
is zero-initialised and every full-slab kernel maps ``0 → +0``, so pad
lanes never leak into parameter lanes.

Plans hold no model references: :func:`head_ops` re-extracts (and
re-validates) the layer chain per call, and every plan method takes the
bound ``layers``. :mod:`repro.fl.fastpath` caches each plan weakly on
the workspace model it runs on (the server model or a worker replica),
so a plan is freed with its model.
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import ReLU
from repro.nn.conv import Conv2d, conv_out_size
from repro.nn.dropout import Dropout
from repro.nn.flatten import Flatten
from repro.nn.linear import _TILE, Linear, row_canonical_matmul_into
from repro.nn.losses import FusedCrossEntropy
from repro.nn.module import Module, Sequential
from repro.nn.norm import BatchNorm1d, BatchNorm2d
from repro.nn.pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d
from repro.nn.segmented import SegmentedModel

#: Alignment of every slot inside a flat parameter slab, in float64
#: elements (8 × 8 bytes = one 64-byte cache line). Shared with the
#: server-side θ slab (:mod:`repro.fl.slab`) so both sides pack
#: identically and a broadcast is one ``memcpy``.
ALIGN_ELEMS = 8

#: Op kinds only valid in eval-only plans (no backward/step support).
_EVAL_ONLY_KINDS = frozenset({"bn", "conv", "maxpool", "avgpool"})

#: Layers admitted into the chain only under ``eval_mode``.
_EVAL_LEAVES = (BatchNorm1d, BatchNorm2d, Conv2d, MaxPool2d, AvgPool2d)


def aligned_slot_layout(shapes) -> tuple[list[int], int]:
    """``(offsets, total)`` element offsets packing ``shapes`` 64-byte aligned.

    Each slot starts on an :data:`ALIGN_ELEMS` boundary; the gap up to the
    next slot is padding (callers zero-initialise slabs so pads hold
    ``+0.0``). This is the single packing definition shared by
    :class:`FusedHeadPlan` flats and :class:`repro.fl.slab.SlabLayout` —
    offset-identical packings are what make slab broadcasts a memcpy.
    """
    offsets: list[int] = []
    offset = 0
    for shape in shapes:
        offsets.append(offset)
        size = int(np.prod(shape)) if len(shape) else 1
        offset += -(-size // ALIGN_ELEMS) * ALIGN_ELEMS
    return offsets, offset


def _leaves(module: Module, eval_mode: bool = False) -> list[Module] | None:
    """Flatten a θ segment into supported leaf layers; None if unfusible."""
    if isinstance(module, Sequential):
        leaves: list[Module] = []
        for layer in module.layers:
            sub = _leaves(layer, eval_mode)
            if sub is None:
                return None
            leaves.extend(sub)
        return leaves
    if isinstance(module, (Linear, ReLU, Flatten, GlobalAvgPool2d)):
        return [module]
    if isinstance(module, Dropout) and (module.p == 0.0 or eval_mode):
        return []  # exact identity (p=0 in both modes; any p in eval mode)
    if eval_mode and isinstance(module, _EVAL_LEAVES):
        return [module]
    return None


def head_ops(
    model: SegmentedModel, eval_mode: bool = False
) -> tuple[list[Module], tuple] | tuple[None, None]:
    """``(layers, signature)`` of a fusible trainable head, else ``(None, None)``.

    ``layers`` is the flattened leaf chain of the θ segments in forward
    order; ``signature`` is a hashable description (kinds, shapes, bias
    presence, ``requires_grad`` flags) that keys plan workspaces — any
    change to the head's structure or trainable set yields a different
    signature and therefore a fresh plan. With ``eval_mode`` the chain may
    also contain eval-mode BatchNorm, convolutions and pooling (see the
    module docstring); such signatures build eval-only plans.
    """
    split = model.frozen_split_index()
    if split == 0:
        return None, None
    layers: list[Module] = []
    for _, segment in model.segments()[split:]:
        sub = _leaves(segment, eval_mode)
        if sub is None:
            return None, None
        layers.extend(sub)
    signature: list[tuple] = []
    trainable = False
    for layer in layers:
        if isinstance(layer, Linear):
            w_grad = layer.weight.requires_grad
            b_grad = layer.bias is not None and layer.bias.requires_grad
            signature.append(
                (
                    "linear",
                    layer.in_features,
                    layer.out_features,
                    layer.bias is not None,
                    w_grad,
                    b_grad,
                )
            )
            trainable = trainable or w_grad or b_grad
        elif isinstance(layer, ReLU):
            signature.append(("relu",))
        elif isinstance(layer, Flatten):
            signature.append(("flatten",))
        elif isinstance(layer, GlobalAvgPool2d):
            signature.append(("gap",))
        elif isinstance(layer, (BatchNorm1d, BatchNorm2d)):
            ndim = 1 if isinstance(layer, BatchNorm1d) else 2
            signature.append(("bn", ndim, layer.num_features))
        elif isinstance(layer, Conv2d):
            signature.append(
                (
                    "conv",
                    layer.in_channels,
                    layer.out_channels,
                    layer.kernel_size,
                    layer.stride,
                    layer.padding,
                    layer.bias is not None,
                )
            )
        elif isinstance(layer, MaxPool2d):
            signature.append(("maxpool", layer.kernel_size))
        else:  # AvgPool2d
            signature.append(("avgpool", layer.kernel_size))
    if not trainable:
        return None, None  # nothing to solve for; let the graph path raise
    return layers, tuple(signature)


class FusedHeadPlan:
    """Preallocated workspaces + kernel schedule for one head signature.

    One plan is created per (head signature, feature trailing shape) and
    reused across rounds; per-row-count workspaces (the full minibatch, a
    remainder minibatch, selection chunks, evaluation batches) materialise
    lazily on first use and are reused for the plan's lifetime, so the
    steady-state step loop allocates nothing. Each workspace carries its
    kernel sequence pre-compiled into flat forward/backward programs of
    ``(kind, layer index, *buffers)`` tuples — the execution loops touch
    no dicts and make no planning decisions.

    A plan serves one solve at a time: it is cached per workspace model,
    and the solves of the clients that train in one model run one at a
    time.
    """

    def __init__(self, signature: tuple, feature_shape: tuple):
        self.signature = signature
        self.feature_shape = tuple(int(d) for d in feature_shape)
        shapes: list[tuple[tuple, tuple]] = []  # per layer: trailing in/out
        current = self.feature_shape
        for op in signature:
            kind = op[0]
            if kind == "linear":
                if current != (op[1],):
                    raise ValueError(
                        f"features of trailing shape {current} cannot feed "
                        f"Linear({op[1]}, {op[2]})"
                    )
                nxt = (op[2],)
            elif kind == "flatten":
                nxt = (int(np.prod(current)),)
            elif kind == "gap":
                if len(current) != 3:
                    raise ValueError(
                        f"GlobalAvgPool2d needs (c, h, w) features, got {current}"
                    )
                nxt = (current[0],)
            elif kind == "bn":
                if op[1] == 1:
                    if current != (op[2],):
                        raise ValueError(
                            f"BatchNorm1d({op[2]}) cannot take features {current}"
                        )
                elif len(current) != 3 or current[0] != op[2]:
                    raise ValueError(
                        f"BatchNorm2d({op[2]}) cannot take features {current}"
                    )
                nxt = current
            elif kind == "conv":
                if len(current) != 3 or current[0] != op[1]:
                    raise ValueError(
                        f"Conv2d({op[1]}, {op[2]}) cannot take features {current}"
                    )
                nxt = (
                    op[2],
                    conv_out_size(current[1], op[3], op[4], op[5]),
                    conv_out_size(current[2], op[3], op[4], op[5]),
                )
            elif kind in ("maxpool", "avgpool"):
                k = op[1]
                if len(current) != 3 or current[1] % k or current[2] % k:
                    raise ValueError(
                        f"pool kernel {k} cannot take features {current}"
                    )
                nxt = (current[0], current[1] // k, current[2] // k)
            else:  # relu
                nxt = current
            shapes.append((current, nxt))
            current = nxt
        if len(current) != 1:
            raise ValueError(f"head output is not a logits vector: {current}")
        self.num_classes = current[0]
        self._shapes = shapes
        #: True when the signature contains eval-only ops (BN, conv, pool):
        #: forward/scoring/counting work, training entry points raise.
        self.eval_only = any(op[0] in _EVAL_ONLY_KINDS for op in signature)
        self._lowest = next(
            (
                i
                for i, op in enumerate(signature)
                if op[0] == "linear" and (op[4] or op[5])
            ),
            None,
        )
        if self._lowest is None and not self.eval_only:
            # head_ops never emits such a signature, but the class is
            # public: fail with the documented exception type.
            raise ValueError("signature has no trainable Linear to solve for")
        #: (layer index, "w" | "b") of every parameter the solver updates,
        #: in the same order ``LocalSolver``'s trainable list visits them
        self.trainable_slots: list[tuple[int, str]] = []
        self._param_ws: dict[int, dict[str, np.ndarray]] = {}
        #: flat update program: (layer idx, "w"|"b", acc, t1, velocity)
        self._step_prog: list[tuple] = []
        slots = [
            (i, attr, shape)
            for i, op in enumerate(signature)
            if op[0] == "linear"
            for attr, shape, enabled in (
                ("w", (op[1], op[2]), op[4]),
                ("b", (op[2],), op[5]),
            )
            if enabled
        ]
        # All per-parameter state lives as contiguous views into flat
        # arrays — gradient accumulator, scratch, velocity, AND the
        # parameter data itself plus the FedProx reference — so the whole
        # update (pull, decay, momentum, LR scale, in-place subtract) runs
        # as ufunc calls over the concatenation instead of one per
        # parameter: bitwise identical per element, a fraction of the
        # dispatch cost. Slots pack 64-byte aligned (aligned_slot_layout,
        # shared with the server slab so broadcasts memcpy); all flats are
        # zero-initialised so inter-slot pads hold +0.0 forever — backward
        # writes slot views only, and every full-slab kernel maps 0 → +0.
        offsets, total = aligned_slot_layout([s for _, _, s in slots])
        self.slot_offsets: list[int] = offsets
        self.slot_total = total
        self._acc_flat = np.zeros(total)
        self._tmp_flat = np.zeros(total)
        self._t1_flat = np.zeros(total)
        self._vel_flat = np.zeros(total)
        self._data_flat = np.zeros(total)
        self._ref_flat = np.zeros(total)
        for (i, attr, shape), offset in zip(slots, offsets):
            size = int(np.prod(shape))
            ws = self._param_ws.setdefault(i, {})
            for base, name in (
                (self._acc_flat, "_acc"),
                (self._tmp_flat, "_tmp"),
                (self._t1_flat, "_t1"),
                (self._vel_flat, "_vel"),
                (self._data_flat, "_data"),
                (self._ref_flat, "_ref"),
            ):
                ws[attr + name] = base[offset : offset + size].reshape(shape)
            self.trainable_slots.append((i, attr))
            self._step_prog.append(
                (i, attr, ws[attr + "_acc"], ws[attr + "_t1"], ws[attr + "_vel"])
            )
        #: set lazily by the fastpath layer: θ broadcast name per slot
        self.theta_map = None
        #: set lazily by the fastpath layer: the θ SlabLayout matching this
        #: plan's packing (or ``()`` when the orders diverge)
        self.theta_layout = None
        self._row_ws: dict[int, dict] = {}
        self._score_ws: dict[int, dict[str, np.ndarray]] = {}
        self._loss_hist: dict[int, np.ndarray] = {}

    # -- workspaces ----------------------------------------------------------
    def _ws(self, rows: int) -> dict:
        """The workspace (buffers + compiled programs) for one row count."""
        ws = self._row_ws.get(rows)
        if ws is not None:
            return ws
        fprog: list[tuple] = []
        for i, (op, (in_shape, out_shape)) in enumerate(
            zip(self.signature, self._shapes)
        ):
            kind = op[0]
            if kind == "linear":
                out = np.empty((rows,) + out_shape)
                if rows % _TILE:
                    pad_in = np.zeros((_TILE,) + in_shape)
                    pad_out = np.empty((_TILE,) + out_shape)
                else:
                    pad_in = pad_out = None
                fprog.append(("lin", i, out, pad_in, pad_out, op[3]))
            elif kind == "relu":
                mask = np.empty((rows,) + in_shape, dtype=bool)
                fprog.append(("relu", i, mask, np.empty((rows,) + out_shape)))
            elif kind == "flatten":
                fprog.append(("flat", i))
            elif kind == "gap":
                fprog.append(("gap", i, np.empty((rows,) + out_shape)))
            elif kind == "bn":
                # eval-mode BN: running-stats affine, fused into plan
                # buffers — (1, c) / (1, c, 1, 1) broadcasting exactly as
                # the module's _expand views.
                eshape = (1, op[2]) if op[1] == 1 else (1, op[2], 1, 1)
                fprog.append(
                    (
                        "bn",
                        i,
                        eshape,
                        np.empty(op[2]),
                        np.empty((rows,) + out_shape),
                    )
                )
            else:  # conv / maxpool / avgpool: mode-independent module call
                fprog.append(("mod", i))
        # Training-only pieces (backward program, gather buffers, loss
        # workspace) attach lazily in _train_ws: forward-only consumers —
        # selection chunks, evaluation batches — never pay for gradient
        # or loss buffers.
        ws = {
            "x": None,
            "y": None,
            "inputs": [None] * len(self.signature),
            "fprog": fprog,
            "bprog": None,
            "loss": None,
        }
        self._row_ws[rows] = ws
        return ws

    def _train_ws(self, rows: int) -> dict:
        if self.eval_only:
            raise RuntimeError(
                "plan is eval-only (signature contains BN/conv/pool ops); "
                "training entry points are unavailable"
            )
        ws = self._ws(rows)
        if ws["loss"] is not None:
            return ws
        bprog: list[tuple] = []
        for step in ws["fprog"]:
            kind, i = step[0], step[1]
            in_shape, _ = self._shapes[i]
            op = self.signature[i]
            if kind == "lin":
                if i >= self._lowest:
                    gin = (
                        np.empty((rows,) + in_shape) if i > self._lowest else None
                    )
                    bprog.append(
                        ("lin", i, self._param_ws.get(i), gin, op[4], op[5])
                    )
            elif kind == "relu":
                if i > self._lowest:
                    bprog.append(
                        ("relu", i, step[2], np.empty((rows,) + in_shape))
                    )
            elif kind == "flat":
                if i > self._lowest:
                    bprog.append(("flat", i, (rows,) + in_shape))
            else:  # gap
                if i > self._lowest:
                    bprog.append(
                        (
                            "gap",
                            i,
                            in_shape[1] * in_shape[2],
                            np.empty((rows,) + self._shapes[i][1]),
                            np.empty((rows,) + in_shape),
                        )
                    )
        bprog.reverse()
        ws["bprog"] = bprog
        ws["x"] = np.empty((rows,) + self.feature_shape)
        ws["y"] = np.empty(rows, dtype=np.int64)
        ws["loss"] = FusedCrossEntropy(rows, self.num_classes)
        return ws

    def _scores(self, n: int) -> dict[str, np.ndarray]:
        sws = self._score_ws.get(n)
        if sws is None:
            c = self.num_classes
            sws = {
                "logits": np.empty((n, c)),
                "z": np.empty((n, c)),
                "p": np.empty((n, c)),
                "tmp": np.empty((n, c)),
                "m": np.empty((n, 1)),
                "s": np.empty((n, 1)),
                "entropy": np.empty(n),
            }
            self._score_ws[n] = sws
        return sws

    def _losses(self, count: int) -> np.ndarray:
        buf = self._loss_hist.get(count)
        if buf is None:
            buf = np.empty(count)
            self._loss_hist[count] = buf
        return buf

    def _release_inputs(self) -> None:
        """Drop the per-layer input references the last forward pinned.

        ``forward`` stores the caller's chunk (often a view of the cached
        ϕ(x) array) in the workspace for backward. A plan lives as long
        as its model and serves every client that trains in it, so
        without this it would keep the last client's features resident —
        an anonymous client's array would outlive the client.
        """
        for ws in self._row_ws.values():
            inputs = ws["inputs"]
            for i in range(len(inputs)):
                inputs[i] = None

    def adopt_params(self, layers: list[Module]) -> None:
        """Re-home the trainable parameters' storage onto ``_data_flat``.

        When a parameter's ``data`` is not already this plan's slab view,
        its current values are copied in and the binding switched. Every
        in-place mutation elsewhere (``load_state_dict`` writes
        ``target.data[...]``, graph-path ``SGD.step`` subtracts in place)
        then transparently operates on the slab, so adoption changes no
        observable values — it only makes the fused update and slab
        broadcasts flat. Re-adoption after another plan took the binding
        (clients share one workspace model) just copies back.
        """
        for i, attr in self.trainable_slots:
            layer = layers[i]
            param = layer.weight if attr == "w" else layer.bias
            view = self._param_ws[i][attr + "_data"]
            if param.data is not view:
                view[...] = param.data
                param.data = view

    def gather_refs(
        self, layers: list[Module], refs: dict[int, np.ndarray]
    ) -> None:
        """Copy the FedProx global reference θ into ``_ref_flat`` slot views.

        Reference values are constant for the round, so one gather up
        front replaces the per-step per-parameter ``refs[id(param)]``
        reads — the values each step subtracts are bit-identical.
        """
        for i, attr in self.trainable_slots:
            layer = layers[i]
            param = layer.weight if attr == "w" else layer.bias
            self._param_ws[i][attr + "_ref"][...] = refs[id(param)]

    # -- kernels -------------------------------------------------------------
    def forward(self, layers: list[Module], ws: dict, x: np.ndarray) -> np.ndarray:
        """Head forward for one minibatch; returns the plan's logits buffer."""
        inputs = ws["inputs"]
        current = x
        for step in ws["fprog"]:
            kind = step[0]
            inputs[step[1]] = current
            if kind == "lin":
                _, i, out, pad_in, pad_out, has_bias = step
                layer = layers[i]
                row_canonical_matmul_into(
                    current, layer.weight.data, out, pad_in, pad_out
                )
                if has_bias:
                    np.add(out, layer.bias.data, out=out)
                current = out
            elif kind == "relu":
                _, _, mask, out = step
                np.greater(current, 0.0, out=mask)
                out[...] = 0.0
                np.copyto(out, current, where=mask)
                current = out
            elif kind == "flat":
                current = current.reshape(current.shape[0], -1)
            elif kind == "gap":
                out = step[2]
                current.mean(axis=(2, 3), out=out)
                current = out
            elif kind == "bn":
                # Replays _BatchNorm's eval forward op for op:
                # inv = 1/sqrt(var + eps); out = γ·((x − mean)·inv) + β.
                _, i, eshape, inv, out = step
                layer = layers[i]
                np.add(layer.running_var, layer.eps, out=inv)
                np.sqrt(inv, out=inv)
                np.divide(1.0, inv, out=inv)
                np.subtract(current, layer.running_mean.reshape(eshape), out=out)
                np.multiply(out, inv.reshape(eshape), out=out)
                np.multiply(layer.gamma.data.reshape(eshape), out, out=out)
                np.add(out, layer.beta.data.reshape(eshape), out=out)
                current = out
            else:  # mod: a mode-independent layer runs as a module call
                current = layers[step[1]](current)
        return current

    def _backward(self, layers: list[Module], ws: dict, grad: np.ndarray) -> None:
        """Backward pass writing raw per-parameter gradients into the flat
        ``_tmp`` views; accumulation happens once, flat, in :meth:`_step`."""
        inputs = ws["inputs"]
        for step in ws["bprog"]:
            kind = step[0]
            if kind == "lin":
                _, i, pws, gin, w_grad, b_grad = step
                layer = layers[i]
                if w_grad:
                    np.matmul(inputs[i].T, grad, out=pws["w_tmp"])
                if b_grad:
                    grad.sum(axis=0, out=pws["b_tmp"])
                if gin is not None:
                    np.matmul(grad, layer.weight.data.T, out=gin)
                    grad = gin
            elif kind == "relu":
                _, _, mask, gin = step
                gin[...] = 0.0
                np.copyto(gin, grad, where=mask)
                grad = gin
            elif kind == "flat":
                grad = grad.reshape(step[2])
            else:  # gap
                _, _, denominator, gdiv, gin = step
                np.divide(grad, denominator, out=gdiv)
                gin[...] = gdiv[:, :, None, None]
                grad = gin

    def _step(
        self,
        lr: float,
        momentum: float,
        weight_decay: float,
        prox_mu: float,
    ) -> None:
        # grad = 0 + raw gradient, flat — element for element the same as
        # zeroed ``Parameter.grad`` receiving ``+=`` per parameter (the
        # 0 + (−0) sign edge included).
        acc = self._acc_flat
        acc[...] = 0.0
        np.add(acc, self._tmp_flat, out=acc)
        # Parameter data lives in _data_flat (adopt_params) and the FedProx
        # reference in _ref_flat (gather_refs), so EVERY solver config runs
        # the update as ufuncs over the flat concatenation. Parameters are
        # disjoint slots, so the flat kernels compute exactly what the
        # graph's per-parameter sequence computes, element for element;
        # zero pads stay +0 through every op (hyperparameters are ≥ 0).
        data = self._data_flat
        t1 = self._t1_flat
        grad = acc
        if prox_mu > 0:
            np.subtract(data, self._ref_flat, out=t1)
            np.multiply(t1, prox_mu, out=t1)
            np.add(grad, t1, out=grad)
        if weight_decay:
            np.multiply(data, weight_decay, out=t1)
            np.add(grad, t1, out=t1)
            grad = t1
        if momentum:
            velocity = self._vel_flat
            np.multiply(velocity, momentum, out=velocity)
            np.add(velocity, grad, out=velocity)
            update = velocity
        else:
            update = grad
        np.multiply(update, lr, out=t1)
        np.subtract(data, t1, out=data)

    # -- entry points --------------------------------------------------------
    def train_round(
        self,
        layers: list[Module],
        features: np.ndarray,
        labels: np.ndarray,
        *,
        epochs: int,
        batch_size: int,
        rng: np.random.Generator,
        lr: float,
        momentum: float,
        weight_decay: float,
        prox_mu: float = 0.0,
        refs: dict[int, np.ndarray] | None = None,
    ) -> float:
        """Run the whole local solve in place; returns the mean step loss.

        Consumes exactly one ``rng.permutation(n)`` per epoch — the same
        draws, in the same order, as ``DataLoader(shuffle=True)`` — and
        updates the bound layers' parameters through the fused kernels.
        """
        n = len(features)
        if n and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise ValueError("labels out of range for num_classes")
        self.adopt_params(layers)
        if prox_mu > 0:
            self.gather_refs(layers, refs)
        self._vel_flat[...] = 0.0  # fresh velocity, like a per-round SGD
        steps_per_epoch = -(-n // batch_size)
        losses = self._losses(epochs * steps_per_epoch)
        row_ws = self._train_ws
        step = 0
        for _epoch in range(epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                ws = row_ws(len(idx))
                x = ws["x"]
                features.take(idx, axis=0, out=x)
                labels.take(idx, axis=0, out=ws["y"])
                logits = self.forward(layers, ws, x)
                loss = ws["loss"]
                losses[step] = loss.forward(logits, ws["y"])
                step += 1
                self._backward(layers, ws, loss.backward())
                self._step(lr, momentum, weight_decay, prox_mu)
        self._release_inputs()
        return float(np.mean(losses))

    def entropy_scores(
        self,
        layers: list[Module],
        features: np.ndarray,
        temperature: float,
        batch_size: int,
    ) -> np.ndarray:
        """Hardened-softmax entropy per sample, into plan-owned buffers.

        Chunked exactly like :func:`repro.fl.features.batched_head_logits`
        (chunk logits land in one ``(n, c)`` buffer — a concatenation by
        construction), then the entropy replays
        :func:`repro.nn.functional.entropy_from_logits` with ``out=``
        kernels. The returned array is plan-owned and valid until the next
        plan call.
        """
        n = len(features)
        sws = self._scores(n)
        logits = sws["logits"]
        for start in range(0, n, batch_size):
            chunk = features[start : start + batch_size]
            ws = self._ws(len(chunk))
            logits[start : start + len(chunk)] = self.forward(layers, ws, chunk)
        self._release_inputs()
        z, p = sws["z"], sws["p"]
        np.divide(logits, temperature, out=z)
        z.max(axis=-1, keepdims=True, out=sws["m"])
        np.subtract(z, sws["m"], out=z)
        np.exp(z, out=p)
        p.sum(axis=-1, keepdims=True, out=sws["s"])
        np.log(sws["s"], out=sws["s"])
        np.subtract(z, sws["s"], out=z)  # z is now logp
        np.exp(z, out=p)
        np.multiply(p, z, out=sws["tmp"])
        sws["tmp"].sum(axis=-1, out=sws["entropy"])
        np.negative(sws["entropy"], out=sws["entropy"])
        return sws["entropy"]

    def correct_count(
        self,
        layers: list[Module],
        features: np.ndarray,
        labels: np.ndarray,
        batch_size: int,
    ) -> int:
        """Exact top-1 correct count over batch-aligned evaluation chunks."""
        correct = 0
        for start in range(0, len(labels), batch_size):
            chunk = features[start : start + batch_size]
            ws = self._ws(len(chunk))
            preds = np.argmax(self.forward(layers, ws, chunk), axis=-1)
            correct += int(
                np.count_nonzero(preds == labels[start : start + batch_size])
            )
        self._release_inputs()
        return correct

    @property
    def nbytes(self) -> int:
        """Bytes of workspace this plan owns (flats + lazy row workspaces).

        Counts owning arrays only (``base is None``): the per-parameter
        slot views all alias the six flats and must not double-count.
        The number feeds :func:`repro.fl.fastpath.plan_cache_nbytes`.
        """
        return _owned_nbytes(
            (
                self._acc_flat,
                self._tmp_flat,
                self._t1_flat,
                self._vel_flat,
                self._data_flat,
                self._ref_flat,
            ),
            self._row_ws.values(),
            self._score_ws.values(),
            self._loss_hist.values(),
        )


def _owned_nbytes(*containers) -> int:
    """Total bytes of every *owning* ndarray reachable from ``containers``.

    Walks nested dicts/lists/tuples one level deep per container element
    (workspace dicts hold buffer tuples; loss objects expose their buffers
    via ``vars``). Views (``base is not None``) are skipped so slot views
    into flat slabs never double-count, and shared arrays count once.
    """
    seen: set[int] = set()
    total = 0
    stack = [containers]
    while stack:
        obj = stack.pop()
        if isinstance(obj, np.ndarray):
            if obj.base is None and id(obj) not in seen:
                seen.add(id(obj))
                total += obj.nbytes
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, FusedCrossEntropy):
            stack.extend(vars(obj).values())
        elif hasattr(obj, "__iter__") and not isinstance(obj, (str, bytes)):
            stack.extend(obj)
    return total




class CohortPlan:
    """Block-stacked local solves for a cohort of same-kernel clients.

    Where :class:`FusedHeadPlan` removes per-*step* interpreter overhead
    for one client, a ``CohortPlan`` removes per-*client* overhead for a
    whole cohort: clients that share a head signature, feature shape,
    selected count and solver hyperparameters execute their local rounds
    as batched 3-D GEMMs over stacked workspaces — one kernel launch per
    (layer, 32-row tile) for the entire cohort instead of per client.

    One plan serves every cohort of its *kernel key* — head signature,
    feature shape, batch size and epochs, the dimensions its kernel
    programs are compiled for. :meth:`prepare` shapes it for one solve
    (lane count, largest shard, selected count): buffers live in flat
    capacity arrays that grow, zero-filled, to the largest solve seen,
    and every solve runs on views sliced from their front. A plan is
    therefore built once per kernel key, never per cohort shape.

    Ragged rows
    -----------
    Lanes may hold shards of different sizes ``n_i`` as long as they
    select the same ``k``. Lane ``i``'s shard fills the first ``n_i`` rows
    of a per-lane row stride (:attr:`rows`: the largest shard rounded up
    to the 32-row tile), and selection scoring runs over the whole padded
    stride in full 32-row GEMM tiles. Every real row keeps its solo bits:
    a row's GEMM output depends only on its own input row, whatever other
    rows share the tile and wherever it sits in it (DESIGN.md
    "Row-determinism"), and the softmax-entropy chain is rowwise. Padded
    rows hold zeros or an earlier solve's features, and their scores are
    never read. Whatever reduces over a lane's own rows — the top-k
    ``argpartition``, the random selector's ``rng.choice(n_i, k)``, the
    label copy, ``num_local`` — must see exactly ``n_i`` rows; the caller
    (:func:`repro.fl.fastpath.solve_cohort`) runs those per lane on
    ``n_i``-row slices. Training reads only the ``k`` selected rows, and
    ``k`` is shared, so every training kernel keeps its solo shape.

    Bitwise-identity contract
    -------------------------
    The stacked solve must be indistinguishable from N independent
    :class:`FusedHeadPlan` solves. That holds because:

    - Every per-client operation is row-independent (GEMM output rows are
      dot products of their own input row; ReLU/softmax/update kernels
      are elementwise or rowwise), so stacking lanes cannot perturb a
      lane's bits.
    - Forward GEMMs run in fixed 32-row tiles, as
      :func:`~repro.nn.linear.row_canonical_matmul_into` does: training
      minibatch row counts are identical across lanes by construction, so
      tile ``t`` of lane ``i`` multiplies the same (32 × in) block against
      the same weights as the per-client plan — batched ``np.matmul``
      dispatches the same fixed-shape dgemm per lane slice (remainder
      tiles go through the same zero-padded 32-row scratch).
    - Backward GEMMs (``xᵀ·g`` per lane, ``g·Wᵀ`` per lane) and bias
      reductions (``sum(axis=1)`` ≡ per-lane ``sum(axis=0)``) use the
      same per-slice BLAS calls; the SGD update runs the exact
      :meth:`FusedHeadPlan._step` ufunc sequence over a (N × slot_total)
      stack (elementwise, so lane ``i`` sees precisely its own flat
      update).
    - The loss replays :class:`~repro.nn.losses.FusedCrossEntropy` op for
      op on the (N·b × classes) row stack, extracting per-lane scalars
      as ``−tmp[lane].sum() / b`` — the same pairwise reduction over the
      same contiguous block.
    - All RNG draws are planned ahead **per client stream** in client
      order — the optional selection draw, then one ``permutation(k)``
      per epoch — exactly the sequence ``Client.run_round`` consumes, so
      every client's generator advances identically.

    Scope: training cohorts support ``linear``/``relu`` chains over 1-D
    features (``flatten`` over 1-D features is an identity and admitted)
    with every θ parameter trainable — anything else falls back to
    per-client plans at the grouping layer (:mod:`repro.fl.fastpath`).
    """

    def __init__(
        self,
        signature: tuple,
        feature_shape: tuple,
        batch_size: int,
        epochs: int,
    ):
        proto = FusedHeadPlan(signature, feature_shape)  # validates shapes
        if proto.eval_only:
            raise ValueError("cohort plans require a trainable head")
        if len(proto.feature_shape) != 1:
            raise ValueError("cohort plans require 1-D (flat) features")
        for op in signature:
            if op[0] not in ("linear", "relu", "flatten"):
                raise ValueError(f"cohort plans cannot stack {op[0]!r} ops")
            if op[0] == "linear" and not (op[4] and op[5] == op[3]):
                # forward reads weights from the stacked slab, so every
                # present parameter must own a slot
                raise ValueError("cohort plans require fully-trainable heads")
        if not (batch_size >= 1 and epochs >= 1):
            raise ValueError("invalid cohort dimensions")
        self.signature = signature
        self.feature_shape = proto.feature_shape
        self.num_classes = proto.num_classes
        self.batch_size = batch_size
        self.epochs = epochs
        self.slot_total = proto.slot_total
        self.slot_offsets = proto.slot_offsets
        self.trainable_slots = proto.trainable_slots
        self._shapes = proto._shapes
        self._lowest = proto._lowest
        #: the broadcast θ row — every lane starts from it, and it doubles
        #: as the FedProx reference (the reference IS the broadcast θ)
        self.theta_row = np.zeros(self.slot_total)
        # shared per-slot views into theta_row (selection scoring runs at
        # broadcast θ)
        self._shared_w = {
            slot: self.theta_row[offset : offset + size].reshape(shape)
            for slot, offset, shape, size in self._slot_spans()
        }
        #: capacity buffers by name, grown (zero-filled) to the largest
        #: solve seen; :meth:`prepare` slices every per-solve view from them
        self._bufs: dict = {}
        #: the prepared solve's lane count, per-lane row stride and
        #: selected count (0 until the first :meth:`prepare`)
        self.lanes = self.rows = self.selected = 0

    def _slot_spans(self):
        """``((layer, "w" | "b"), offset, shape, size)`` per trainable slot."""
        for (i, attr), offset in zip(self.trainable_slots, self.slot_offsets):
            op = self.signature[i]
            shape = (op[1], op[2]) if attr == "w" else (op[2],)
            yield (i, attr), offset, shape, int(np.prod(shape))

    # -- workspaces ----------------------------------------------------------
    def _buf(self, name, count: int, tail: tuple = (), dtype=np.float64):
        """The first ``count`` rows of capacity buffer ``name``.

        A buffer grows (reallocated zero-filled, never shrunk) when a solve
        needs more rows than any before it. Zero fill keeps optimiser-lane
        pads at +0.0 and padded feature rows finite.
        """
        buf = self._bufs.get(name)
        if buf is None or len(buf) < count:
            buf = self._bufs[name] = np.zeros((count,) + tail, dtype=dtype)
        return buf[:count]

    def prepare(self, lanes: int, rows: int, selected: int) -> None:
        """Shape the plan for one solve and bind its per-solve views.

        ``lanes`` clients whose largest shard holds ``rows`` samples each
        select ``selected`` of them. Afterwards the caller fills
        ``features``/``labels`` (``lanes × self.rows``; lane ``i``'s shard
        in its first ``n_i`` rows), ``selected_idx`` (``lanes × k``) and
        ``perms`` (``epochs × lanes × k``), and reads lane θ rows from
        ``_data_stack`` after :meth:`train`. A solve shaped like the one
        before it keeps that solve's views and training workspaces (only
        a rebind grows buffers, so nothing they view can have moved).
        """
        if not (lanes >= 1 and 1 <= selected <= rows):
            raise ValueError("invalid cohort dimensions")
        stride = -(-rows // _TILE) * _TILE
        if (lanes, stride, selected) == (self.lanes, self.rows, self.selected):
            return
        self.lanes, self.rows, self.selected = lanes, stride, selected
        buf = self._buf
        f = self.feature_shape[0]
        n = lanes * stride
        self.features = buf("features", n, (f,)).reshape(lanes, stride, f)
        self.labels = buf("labels", n, (), np.int64).reshape(lanes, stride)
        sel = lanes * selected
        self.selected_idx = buf("selected_idx", sel, (), np.int64).reshape(
            lanes, selected
        )
        self._abs_idx = buf("abs_idx", sel, (), np.int64).reshape(
            lanes, selected
        )
        self.sel_features = buf("sel_features", sel, (f,))
        self._sel_labels = buf("sel_labels", sel, (), np.int64)
        #: planned-ahead epoch permutations, one client stream per lane
        self.perms = buf("perms", self.epochs * sel, (), np.int64).reshape(
            self.epochs, lanes, selected
        )
        base = np.arange(lanes, dtype=np.int64)[:, None]
        self._row_base = base * stride
        self._sel_base = base * selected
        # Optimiser-state lanes: the exact FusedHeadPlan flats, one row
        # per client, zero-initialised so inter-slot pads hold +0.0.
        total = self.slot_total
        self._acc_stack = buf("acc", lanes, (total,))
        self._tmp_stack = buf("tmp", lanes, (total,))
        self._t1_stack = buf("t1", lanes, (total,))
        self._vel_stack = buf("vel", lanes, (total,))
        self._data_stack = buf("data", lanes, (total,))
        # per-slot lane-stacked views into the data and gradient stacks
        self._lane_w: dict[tuple[int, str], np.ndarray] = {}
        self._lane_tmp: dict[tuple[int, str], np.ndarray] = {}
        for slot, offset, shape, size in self._slot_spans():
            span = slice(offset, offset + size)
            shape = (lanes,) + shape
            self._lane_w[slot] = self._data_stack[:, span].reshape(shape)
            self._lane_tmp[slot] = self._tmp_stack[:, span].reshape(shape)
        steps = self.epochs * -(-selected // self.batch_size)
        self._losses = buf("losses", lanes * steps).reshape(lanes, steps)
        self._train_row_ws: dict[int, dict] = {}

    def _train_ws(self, rows: int, slot: int) -> dict:
        """The training workspace for minibatches of ``rows`` per lane.

        Built once per solve over the capacity buffers of ``slot`` (0 for
        an epoch's full minibatches, 1 for its shorter last one), so two
        row counts of one solve never share a zero-padded tile.
        """
        ws = self._train_row_ws.get(rows)
        if ws is not None:
            return ws
        lanes = self.lanes
        n = lanes * rows
        remainder = rows % _TILE

        def flat(name, tail=(), dtype=np.float64, count=n):
            return self._buf((slot, name), count, tail, dtype)

        def stack(name, tail=(), dtype=np.float64):
            """Buffer ``name`` as a ``(lanes, rows) + tail`` stack."""
            return flat(name, tail, dtype).reshape((lanes, rows) + tail)

        def tile(name, tail):
            """Buffer ``name`` as one 32-row scratch tile per lane."""
            return flat(name, tail, count=lanes * _TILE).reshape(
                (lanes, _TILE) + tail
            )

        fprog: list[tuple] = []
        bprog: list[tuple] = []
        bsum: dict[int, np.ndarray] = {}
        for i, (op, (in_shape, out_shape)) in enumerate(
            zip(self.signature, self._shapes)
        ):
            kind = op[0]
            if kind == "linear":
                if remainder:
                    pad_in = tile(("pad_in", i), in_shape)
                    pad_in[:, remainder:] = 0.0
                    pad_out = tile(("pad_out", i), out_shape)
                else:
                    pad_in = pad_out = None
                out = stack(("out", i), out_shape)
                fprog.append(("lin", i, out, pad_in, pad_out, op[3]))
                if i >= self._lowest:
                    gin = stack(("gin", i), in_shape) if i > self._lowest else None
                    if op[5]:  # bias grad: contiguous reduce then slot copy
                        bsum[i] = self._buf(("bsum", i), lanes, (op[2],))
                    bprog.append(("lin", i, gin, op[5]))
            elif kind == "relu":
                mask = stack(("mask", i), in_shape, np.bool_)
                fprog.append(("relu", i, mask, stack(("relu", i), out_shape)))
                if i > self._lowest:
                    bprog.append(("relu", i, mask, stack(("rgin", i), in_shape)))
            else:  # flatten over 1-D features: identity both ways
                fprog.append(("flat", i))
        bprog.reverse()
        arange = self._bufs.get("arange")
        if arange is None or len(arange) < n:
            arange = self._bufs["arange"] = np.arange(n)
        c = self.num_classes
        ws = {
            "fprog": fprog,
            "bprog": bprog,
            "bsum": bsum,
            "inputs": [None] * len(self.signature),
            "idx": stack("idx", (), np.int64),
            "x": stack("x", self.feature_shape),
            "y": stack("y", (), np.int64),
            # FusedCrossEntropy's buffers, row-stacked across lanes
            "rows": arange[:n],
            "target": flat("target", (c,)),
            "probs": flat("probs", (c,)),
            "ltmp": flat("ltmp", (c,)),
            "m": flat("m", (1,)),
            "s": flat("s", (1,)),
            "lsum": self._buf("lsum", lanes),
        }
        self._train_row_ws[rows] = ws
        return ws

    # -- kernels -------------------------------------------------------------
    def _forward(self, ws: dict, x: np.ndarray) -> np.ndarray:
        """Stacked head forward with per-lane weights (training).

        Replays ``row_canonical_matmul_into``'s tiling per lane: full
        32-row tiles as one batched matmul each, the remainder through a
        zero-padded 32-row scratch — so every lane's tile partition (and
        therefore its bits) matches the per-client plan exactly.
        """
        inputs = ws["inputs"]
        current = x
        for step in ws["fprog"]:
            kind = step[0]
            inputs[step[1]] = current
            if kind == "lin":
                _, i, out, pad_in, pad_out, has_bias = step
                w = self._lane_w[(i, "w")]
                rows = current.shape[1]
                full = (rows // _TILE) * _TILE
                for t in range(0, full, _TILE):
                    np.matmul(
                        current[:, t : t + _TILE], w, out=out[:, t : t + _TILE]
                    )
                if rows - full:
                    remainder = rows - full
                    pad_in[:, :remainder] = current[:, full:]
                    np.matmul(pad_in, w, out=pad_out)
                    out[:, full:] = pad_out[:, :remainder]
                if has_bias:
                    np.add(out, self._lane_w[(i, "b")][:, None, :], out=out)
                current = out
            elif kind == "relu":
                _, _, mask, out = step
                np.greater(current, 0.0, out=mask)
                out[...] = 0.0
                np.copyto(out, current, where=mask)
                current = out
            # flat: identity over 1-D features
        return current

    def _backward(self, ws: dict, grad: np.ndarray) -> None:
        inputs = ws["inputs"]
        for step in ws["bprog"]:
            kind = step[0]
            if kind == "lin":
                _, i, gin, b_grad = step
                np.matmul(
                    inputs[i].transpose(0, 2, 1),
                    grad,
                    out=self._lane_tmp[(i, "w")],
                )
                if b_grad:
                    bsum = ws["bsum"][i]
                    grad.sum(axis=1, out=bsum)
                    self._lane_tmp[(i, "b")][...] = bsum
                if gin is not None:
                    np.matmul(
                        grad,
                        self._lane_w[(i, "w")].transpose(0, 2, 1),
                        out=gin,
                    )
                    grad = gin
            else:  # relu
                _, _, mask, gin = step
                gin[...] = 0.0
                np.copyto(gin, grad, where=mask)
                grad = gin

    def _step(
        self, lr: float, momentum: float, weight_decay: float, prox_mu: float
    ) -> None:
        # FusedHeadPlan._step verbatim over (lanes × slot_total) stacks;
        # theta_row broadcasts as the FedProx reference (the per-client
        # reference is the broadcast θ, gathered slot for slot).
        acc = self._acc_stack
        acc[...] = 0.0
        np.add(acc, self._tmp_stack, out=acc)
        data = self._data_stack
        t1 = self._t1_stack
        grad = acc
        if prox_mu > 0:
            np.subtract(data, self.theta_row, out=t1)
            np.multiply(t1, prox_mu, out=t1)
            np.add(grad, t1, out=grad)
        if weight_decay:
            np.multiply(data, weight_decay, out=t1)
            np.add(grad, t1, out=t1)
            grad = t1
        if momentum:
            velocity = self._vel_stack
            np.multiply(velocity, momentum, out=velocity)
            np.add(velocity, grad, out=velocity)
            update = velocity
        else:
            update = grad
        np.multiply(update, lr, out=t1)
        np.subtract(data, t1, out=data)

    # -- entry points --------------------------------------------------------
    def entropy_scores(self, temperature: float) -> np.ndarray:
        """Entropy per row of every lane's padded stride, at broadcast θ.

        The whole ``lanes × rows`` feature stack runs as full 32-row GEMM
        tiles (one batched matmul per layer: the stride is a tile
        multiple), then one rowwise ufunc chain replays
        ``FusedHeadPlan.entropy_scores`` — so each real row's score is
        bit-identical to its per-client run, whatever the per-client
        chunking. Returns the flat (lanes·rows,) entropy buffer; lane
        ``i``'s shard owns ``[i·rows, i·rows + n_i)``.
        """
        n = self.lanes * self.rows
        buf = self._buf
        current = self.features.reshape(n, self.feature_shape[0])
        for i, (op, (in_shape, out_shape)) in enumerate(
            zip(self.signature, self._shapes)
        ):
            kind = op[0]
            if kind == "linear":
                out = buf(("score", i), n, out_shape)
                np.matmul(
                    current.reshape(-1, _TILE, in_shape[0]),
                    self._shared_w[(i, "w")],
                    out=out.reshape(-1, _TILE, out_shape[0]),
                )
                if op[3]:
                    np.add(out, self._shared_w[(i, "b")], out=out)
                current = out
            elif kind == "relu":
                mask = buf(("score_mask", i), n, in_shape, np.bool_)
                out = buf(("score", i), n, out_shape)
                np.greater(current, 0.0, out=mask)
                out[...] = 0.0
                np.copyto(out, current, where=mask)
                current = out
            # flatten over 1-D features: identity
        c = self.num_classes
        z, p, tmp = (buf(name, n, (c,)) for name in ("z", "p", "score_tmp"))
        m, s = buf("score_m", n, (1,)), buf("score_s", n, (1,))
        entropy = buf("entropy", n)
        np.divide(current, temperature, out=z)
        z.max(axis=-1, keepdims=True, out=m)
        np.subtract(z, m, out=z)
        np.exp(z, out=p)
        p.sum(axis=-1, keepdims=True, out=s)
        np.log(s, out=s)
        np.subtract(z, s, out=z)  # z is now logp
        np.exp(z, out=p)
        np.multiply(p, z, out=tmp)
        tmp.sum(axis=-1, out=entropy)
        np.negative(entropy, out=entropy)
        return entropy

    def gather_selected(self) -> None:
        """Materialise each lane's selected rows (``selected_idx``) into the
        contiguous selected stacks — the row copies ``features[indices]``
        performs on the per-client path."""
        np.add(self.selected_idx, self._row_base, out=self._abs_idx)
        flat_idx = self._abs_idx.reshape(-1)
        self.features.reshape(-1, self.feature_shape[0]).take(
            flat_idx, axis=0, out=self.sel_features
        )
        self.labels.reshape(-1).take(flat_idx, out=self._sel_labels)

    @property
    def sel_labels(self) -> np.ndarray:
        return self._sel_labels

    def train(
        self,
        *,
        lr: float,
        momentum: float,
        weight_decay: float,
        prox_mu: float = 0.0,
    ) -> np.ndarray:
        """Run every lane's local solve in place; returns per-lane mean loss.

        ``theta_row`` must hold the broadcast θ and ``perms`` the planned
        per-stream epoch permutations. Each lane's θ trajectory lands in
        its ``_data_stack`` row, bit-identical to the per-client fused
        solve.
        """
        self._data_stack[...] = self.theta_row
        self._vel_stack[...] = 0.0
        k, b = self.selected, self.batch_size
        losses = self._losses
        step = 0
        for epoch in range(self.epochs):
            for start in range(0, k, b):
                rows = min(b, k - start)
                ws = self._train_ws(rows, 0 if start + b <= k else 1)
                idx = ws["idx"]
                np.add(
                    self.perms[epoch, :, start : start + rows],
                    self._sel_base,
                    out=idx,
                )
                self.sel_features.take(idx, axis=0, out=ws["x"])
                self._sel_labels.take(idx, out=ws["y"])
                logits = self._forward(ws, ws["x"])
                self._loss_forward(ws, logits, rows, losses[:, step])
                step += 1
                grad = self._loss_backward(ws, rows)
                self._backward(ws, grad)
                self._step(lr, momentum, weight_decay, prox_mu)
        return losses.mean(axis=1)

    def _loss_forward(
        self, ws: dict, logits: np.ndarray, rows: int, out_col: np.ndarray
    ) -> None:
        # FusedCrossEntropy.forward op for op over the (N·rows) row stack;
        # per-lane scalars via the same contiguous-block pairwise sum.
        z = logits.reshape(-1, self.num_classes)
        target = ws["target"]
        probs = ws["probs"]
        tmp = ws["ltmp"]
        m = ws["m"]
        s = ws["s"]
        target[...] = 0.0
        target[ws["rows"], ws["y"].reshape(-1)] = 1.0
        z.max(axis=-1, keepdims=True, out=m)
        np.subtract(z, m, out=z)
        np.exp(z, out=probs)
        probs.sum(axis=-1, keepdims=True, out=s)
        np.log(s, out=s)
        np.subtract(z, s, out=z)  # z is now logp
        np.exp(z, out=probs)
        np.multiply(target, z, out=tmp)
        lsum = ws["lsum"]
        tmp.reshape(self.lanes, -1).sum(axis=1, out=lsum)
        np.negative(lsum, out=lsum)
        np.divide(lsum, rows, out=lsum)
        out_col[...] = lsum

    def _loss_backward(self, ws: dict, rows: int) -> np.ndarray:
        grad = ws["ltmp"]
        np.subtract(ws["probs"], ws["target"], out=grad)
        np.divide(grad, rows, out=grad)
        return grad.reshape(self.lanes, rows, self.num_classes)

    @property
    def nbytes(self) -> int:
        """Owned workspace bytes (summed by ``fastpath.plan_cache_nbytes``)."""
        return _owned_nbytes(vars(self).values())
