"""The head solver: block-stacked local SGD over cached features.

With the frozen-feature cache (:mod:`repro.fl.features`) every hot path is
head-only, so the simulator's remaining cost is not FLOPs but Python: a
local SGD step through the layer graph walks ``forward_head`` → per-layer
``backward`` → ``zero_grad`` → ``SGD.step`` and allocates temporaries for
every tiny minibatch. :class:`CohortPlan` replaces all of it for heads it
can run, and it is the only fused solver: a round of one client is a
one-lane solve, a cohort of N same-shaped clients an N-lane one. The same
plan runs the *broadcast-θ forward* that scores entropy selection and
counts evaluation hits. Heads it cannot run train and evaluate through the
layer graph, which stays the semantic reference.

Which heads
-----------
:func:`head_ops` admits a trainable part θ that flattens to a chain of
``Linear`` / ``ReLU`` / ``Flatten`` layers with every Linear parameter
trainable; a :class:`CohortPlan` runs such a chain when it starts with a
Linear and its features are 1-D. BatchNorm (mode- and batch-dependent),
convolutions, pooling, residual blocks and partly frozen Linears return
``(None, None)``, and callers run the graph.

Bitwise-identity contract
-------------------------
A plan's results are indistinguishable from the layer graph's — same
losses, same θ bytes, same RNG state — because every kernel replays the
graph's exact operation sequence:

- Forward GEMMs run in fixed 32-row tiles, as
  :func:`~repro.nn.linear.row_canonical_matmul_into` does: full tiles as
  one batched matmul each, a remainder through a zero-padded 32-row
  scratch tile. A row's GEMM output depends only on its own input row
  (DESIGN.md "Row-determinism"), so stacking lanes, padding a lane's rows
  to the tile or scoring a whole shard at once cannot perturb it.
- Backward GEMMs (``xᵀ·g`` and ``g·Wᵀ`` per lane) and bias reductions use
  the same per-matrix BLAS calls as the graph; gradient accumulators are
  zero-filled then added to (``grad +=`` on a zeroed ``Parameter.grad``,
  the ``0 + (−0)`` sign edge included).
- ``ReLU`` is zero-fill + masked copy (``np.putmask``), bitwise equal to
  ``np.where(mask, x, 0.0)``.
- The loss replays :class:`~repro.nn.losses.CrossEntropyLoss` op for op
  on the row stack, each lane's scalar the same pairwise sum over its own
  contiguous block.
- The update replays ``SGD.step`` per parameter — in-place momentum
  ``v = m·v + g``, then ``p −= lr·v`` — preceded by the FedProx pull
  ``g += μ·(p − p_global)``, as ufuncs over
  the (lanes × slot_total) stack. Parameters are disjoint slots, so the
  flat kernels compute what the graph's per-parameter passes compute,
  element for element, and zero pads stay +0 through every op.
- Each lane's epoch permutations come from its own client's generator,
  one ``rng.permutation(k)`` per epoch in epoch order, as ``DataLoader``
  draws them, so every minibatch holds the same rows.

Flat parameter slab
-------------------
θ and every per-parameter optimiser array live in flat float64 rows packed
by :func:`aligned_slot_layout` — the packing :mod:`repro.fl.slab` uses for
server-side θ slabs — so a broadcast from a slab-backed state is a single
``memcpy`` into :attr:`CohortPlan.theta_row`, and a lane's trained row
ships back as a slab update without a per-key walk.

Plans hold no model references: :mod:`repro.fl.fastpath` caches each plan
weakly on the workspace model it serves (the server model or a worker
replica), so a plan is freed with its model.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.nn.activations import ReLU
from repro.nn.flatten import Flatten
from repro.nn.linear import _TILE, Linear
from repro.nn.module import Module, Sequential
from repro.nn.segmented import SegmentedModel

#: Alignment of every slot inside a flat parameter slab, in float64
#: elements (8 × 8 bytes = one 64-byte cache line). Shared with the
#: server-side θ slab (:mod:`repro.fl.slab`) so both sides pack
#: identically and a broadcast is one ``memcpy``.
ALIGN_ELEMS = 8


def aligned_slot_layout(shapes) -> tuple[list[int], int]:
    """``(offsets, total)`` element offsets packing ``shapes`` 64-byte aligned.

    Each slot starts on an :data:`ALIGN_ELEMS` boundary; the gap up to the
    next slot is padding (callers zero-initialise slabs so pads hold
    ``+0.0``). This is the single packing definition shared by
    :class:`CohortPlan` rows and :class:`repro.fl.slab.SlabLayout` —
    offset-identical packings are what make slab broadcasts a memcpy.
    """
    offsets: list[int] = []
    offset = 0
    for shape in shapes:
        offsets.append(offset)
        size = int(np.prod(shape)) if len(shape) else 1
        offset += -(-size // ALIGN_ELEMS) * ALIGN_ELEMS
    return offsets, offset


def _leaves(module: Module) -> list[Module] | None:
    """Flatten a θ segment into supported leaf layers; None if unfusible."""
    if isinstance(module, Sequential):
        leaves: list[Module] = []
        for layer in module.layers:
            sub = _leaves(layer)
            if sub is None:
                return None
            leaves.extend(sub)
        return leaves
    if isinstance(module, Linear):
        bias = module.bias
        if module.weight.requires_grad and (bias is None or bias.requires_grad):
            return [module]
        return None  # a partly frozen Linear is the graph's
    if isinstance(module, (ReLU, Flatten)):
        return [module]
    return None


def head_ops(
    model: SegmentedModel,
) -> tuple[tuple[Module, ...], tuple] | tuple[None, None]:
    """``(layers, signature)`` of a head :class:`CohortPlan` can train, else
    ``(None, None)``.

    ``layers`` is the flattened leaf chain of the θ segments in forward
    order; ``signature`` is a hashable description (kinds, widths, bias
    presence) that keys the model's plan — any change to the head's
    structure yields a different signature and therefore another plan.
    The answer is kept in the model's structure memo
    (:meth:`~repro.nn.segmented.SegmentedModel.structure`), so it is
    derived once per structure: a new head module or a flipped
    ``requires_grad`` derives it again.
    """
    structure = model.structure()
    if structure.head is None:
        structure.head = _derive_head_ops(model, structure.split)
    return structure.head


def _derive_head_ops(model: SegmentedModel, split: int) -> tuple:
    if split == 0:
        return None, None
    layers: list[Module] = []
    for _, segment in model.segments()[split:]:
        sub = _leaves(segment)
        if sub is None:
            return None, None
        layers.extend(sub)
    signature: list[tuple] = []
    for layer in layers:
        if isinstance(layer, Linear):
            signature.append(
                ("linear", layer.in_features, layer.out_features,
                 layer.bias is not None)
            )
        elif isinstance(layer, ReLU):
            signature.append(("relu",))
        else:
            signature.append(("flatten",))
    if not any(op[0] == "linear" for op in signature):
        return None, None  # nothing to solve for; let the graph path raise
    return tuple(layers), tuple(signature)


class CohortPlan:
    """Local solves of a stack of same-kernel clients, one lane each, plus
    the broadcast-θ forward.

    One plan serves one head signature over one feature shape — on one
    workspace model, for every round that trains, scores or evaluates
    there. :meth:`prepare` shapes it for one solve (lane count, selected
    count, batch size, epochs). Buffers live in flat capacity arrays that
    grow, zero-filled, to the largest solve seen; each solve shape keeps
    its bound views and compiled kernel programs until a capacity buffer
    it views grows, so a plan's memory is its largest solve's, not one
    workspace per shape.

    A training step's kernels are compiled once per solve shape into
    lists of bound calls (``functools.partial`` over fixed views: tile
    slices, per-lane weight views, bias broadcasts, transposes), so the
    step loop does no lookups, slicing or branching.

    Ragged rows
    -----------
    Lanes may hold shards of different sizes ``n_i`` as long as they
    select the same ``k``: training reads only the ``k`` selected rows,
    so every training kernel keeps its solo shape. Selection scoring runs
    the broadcast-θ forward over whatever rows it is given — a lane stack
    (:meth:`score_stack`: each lane's shard in the first ``n_i`` rows of
    a stride rounded up to the tile), or one shard in place — in whole
    32-row tiles; every real row keeps its solo bits, and padded rows
    (zeros or an earlier solve's features) are never read. Whatever
    reduces over a lane's own rows — the top-k, the random selector's
    ``rng.choice(n_i, k)``, ``num_local`` — sees exactly ``n_i`` rows in
    the caller (:func:`repro.fl.fastpath.solve_cohort`).
    """

    def __init__(self, signature: tuple, feature_shape: tuple):
        shape = tuple(int(d) for d in feature_shape)
        if len(shape) != 1:
            raise ValueError(f"head plans take 1-D (flat) features, got {shape}")
        width = shape[0]
        #: per op: (kind, input width, output width, has bias); Flatten over
        #: 1-D features is an identity and runs nothing
        ops: list[tuple] = []
        for op in signature:
            kind = op[0]
            if kind == "linear":
                if width != op[1]:
                    raise ValueError(
                        f"features of width {width} cannot feed "
                        f"Linear({op[1]}, {op[2]})"
                    )
                ops.append((kind, op[1], op[2], bool(op[3])))
                width = op[2]
            elif kind == "relu":
                ops.append((kind, width, width, False))
            elif kind != "flatten":
                raise ValueError(f"head plans cannot run {kind!r} ops")
        if not ops or ops[0][0] != "linear":
            # the forward reads features straight into the first Linear,
            # and backward stops there (nothing below it trains)
            raise ValueError("head plans start with a Linear")
        linears = [i for i, op in enumerate(ops) if op[0] == "linear"]
        self.feature_shape = shape
        self.num_classes = width
        self._ops = ops
        shapes = [
            (i, attr, shape)
            for i in linears
            for attr, shape, present in (
                ("w", (ops[i][1], ops[i][2]), True),
                ("b", (ops[i][2],), ops[i][3]),
            )
            if present
        ]
        offsets, total = aligned_slot_layout([s for _, _, s in shapes])
        self.slot_total = total
        #: ((layer, "w" | "b"), offset, shape, size) per parameter slot
        self._slots = [
            ((i, attr), offset, shape, int(np.prod(shape)))
            for (i, attr, shape), offset in zip(shapes, offsets)
        ]
        #: the broadcast θ row — every lane starts from it, the forward of
        #: scoring and evaluation reads it, and it doubles as the FedProx
        #: reference (the reference IS the broadcast θ)
        self.theta_row = np.zeros(total)
        self._shared = {
            slot: self.theta_row[offset : offset + size].reshape(shape)
            for slot, offset, shape, size in self._slots
        }
        #: the class ids, for the one-hot ``labels == classes`` target
        self._classes = np.arange(width)[None, :]
        #: capacity buffers of the compiled solves and of the compiled
        #: forwards; growing one drops the programs compiled over its store,
        #: whose views would point at the old array
        self._bufs: dict = {}
        self._scratch: dict = {}
        #: capacity buffers of solve inputs (nothing compiled views them)
        self._inputs: dict = {}
        #: solve shape -> compiled solve (see :meth:`_compile`)
        self._solves: dict[tuple, dict] = {}
        self._solve: dict | None = None
        #: padded row count -> compiled forward (see :meth:`_forward_program`)
        self._forwards: dict = {}

    # -- capacity buffers ----------------------------------------------------
    def _grow(self, store: dict, name, count: int, tail=(), dtype=np.float64):
        """The first ``count`` rows of capacity buffer ``name`` in ``store``.

        A buffer grows (reallocated zero-filled, never shrunk) when a use
        needs more rows than any before it. Zero fill keeps optimiser-lane
        pads at +0.0 and padded feature rows finite.
        """
        buf = store.get(name)
        if buf is None or len(buf) < count:
            buf = store[name] = np.zeros((count,) + tail, dtype=dtype)
            if store is self._bufs:
                self._solves.clear()
            elif store is self._scratch:
                self._forwards.clear()
        return buf[:count]

    def score_stack(self, lanes: int, rows: int) -> np.ndarray:
        """A ``(lanes, stride, features)`` stack for cohort scoring: each
        lane's shard goes in the first ``n_i ≤ rows`` rows of a stride of
        ``rows`` rounded up to the 32-row tile."""
        stride = -(-rows // _TILE) * _TILE
        f = self.feature_shape[0]
        stack = self._grow(self._inputs, "stack", lanes * stride, (f,))
        return stack.reshape(lanes, stride, f)

    def selected_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """``(features, labels)`` buffers for the prepared solve's selected
        rows, lane ``i``'s ``k`` rows at ``[i·k, (i + 1)·k)``."""
        count = self.lanes * self.selected
        return (
            self._grow(self._inputs, "sel_x", count, self.feature_shape),
            self._grow(self._inputs, "sel_y", count, (), np.int64),
        )

    # -- the broadcast-θ forward ---------------------------------------------
    def _forward_program(self, padded: int) -> tuple:
        """``(w, out, tile, ops, logits)``: the broadcast-θ forward over
        ``padded`` rows, compiled once per row count until a buffer it
        views grows. The first Linear's weight, output stack and remainder
        tile serve :meth:`_forward`, which reads the input in place; every
        later op is a bound call, leaving the ``logits`` stack."""
        program = self._forwards.get(padded)
        if program is not None:
            return program
        scratch = partial(self._grow, self._scratch)
        _, n_in, n_out, bias = self._ops[0]
        first = scratch(("fwd", 0), padded, (n_out,))
        tile = scratch("tile", _TILE, (n_in,))
        ops: list = []
        if bias:
            ops.append(partial(np.add, first, self._shared[(0, "b")], out=first))
        current = first
        for i, (kind, n_in, n_out, bias) in enumerate(self._ops[1:], start=1):
            out = scratch(("fwd", i), padded, (n_out,))
            if kind == "linear":
                ops.append(partial(
                    np.matmul, current.reshape(-1, _TILE, n_in),
                    self._shared[(i, "w")], out=out.reshape(-1, _TILE, n_out),
                ))
                if bias:
                    ops.append(partial(np.add, out, self._shared[(i, "b")], out=out))
            else:  # relu
                mask = scratch(("mask", i), padded, (n_in,), np.bool_)
                ops += [
                    partial(np.greater, current, 0.0, out=mask),
                    partial(out.fill, 0.0),
                    partial(np.putmask, out, mask, current),
                ]
            current = out
        program = (self._shared[(0, "w")], first, tile, ops, current)
        self._forwards[padded] = program
        return program

    def _forward(self, x: np.ndarray) -> np.ndarray:
        """Logits of every row of ``x`` at the broadcast θ.

        ``x``'s whole 32-row tiles feed the first Linear in place, one
        batched matmul; a remainder runs through a zero-padded tile.
        Returns the plan-owned ``(padded rows, classes)`` logits stack:
        rows from ``len(x)`` on are padding.
        """
        n = len(x)
        full = n - n % _TILE
        w, first, tile, ops, logits = self._forward_program(-(-n // _TILE) * _TILE)
        if full:
            np.matmul(
                x[:full].reshape(-1, _TILE, x.shape[1]),
                w,
                out=first[:full].reshape(-1, _TILE, first.shape[1]),
            )
        if n > full:
            tile[: n - full] = x[full:]
            tile[n - full :] = 0.0
            np.matmul(tile, w, out=first[full:])
        for op in ops:
            op()
        return logits

    def entropy_scores(self, x: np.ndarray, temperature: float) -> np.ndarray:
        """Hardened-softmax entropy of every row of ``x`` at broadcast θ.

        The rowwise chain replays
        :func:`repro.nn.functional.entropy_from_logits` with ``out=``
        kernels, so each row's score is bit-identical to the graph's,
        whatever chunking the graph's selector uses. Returns a plan-owned
        ``(len(x),)`` buffer, valid until the plan's next forward.
        """
        logits = self._forward(x)
        key = ("entropy", len(logits))
        program = self._forwards.get(key)
        if program is None:
            rows, c = len(logits), self.num_classes
            scratch = partial(self._grow, self._scratch)
            z, p, tmp = (scratch(name, rows, (c,)) for name in ("z", "p", "tmp"))
            m, s = scratch("m", rows, (1,)), scratch("s", rows, (1,))
            entropy = scratch("entropy", rows)
            ops = [
                partial(np.maximum.reduce, z, axis=-1, keepdims=True, out=m),
                partial(np.subtract, z, m, out=z),
                partial(np.exp, z, out=p),
                partial(np.add.reduce, p, axis=-1, keepdims=True, out=s),
                partial(np.log, s, out=s),
                partial(np.subtract, z, s, out=z),  # z is now logp
                partial(np.exp, z, out=p),
                partial(np.multiply, p, z, out=tmp),
                partial(np.add.reduce, tmp, axis=-1, out=entropy),
                partial(np.negative, entropy, out=entropy),
            ]
            program = self._forwards[key] = (z, ops, entropy)
        z, ops, entropy = program
        np.divide(logits, temperature, out=z)
        for op in ops:
            op()
        return entropy[: len(x)]

    def correct_count(
        self, x: np.ndarray, labels: np.ndarray, batch_size: int
    ) -> int:
        """Exact top-1 correct count of ``x`` at broadcast θ, forwarded in
        chunks of ``batch_size`` rows read in place (chunking bounds the
        plan's buffers; row-determinism makes it invisible)."""
        correct = 0
        for start in range(0, len(labels), batch_size):
            chunk = x[start : start + batch_size]
            preds = self._forward(chunk)[: len(chunk)].argmax(axis=-1)
            correct += int(
                np.count_nonzero(preds == labels[start : start + len(chunk)])
            )
        return correct

    # -- training --------------------------------------------------------------
    def prepare(
        self, lanes: int, selected: int, batch_size: int, epochs: int
    ) -> None:
        """Shape the plan for one solve of ``lanes`` clients that each train
        ``epochs`` epochs on ``selected`` rows in minibatches of
        ``batch_size``.

        Afterwards the caller fills :attr:`perms` (``epochs × lanes × k``,
        each lane's planned epoch permutations) and :attr:`theta_row`, runs
        :meth:`train`, and reads lane θ rows from :attr:`theta_stack`.
        """
        if not (lanes >= 1 and selected >= 1 and batch_size >= 1 and epochs >= 1):
            raise ValueError("invalid solve dimensions")
        key = (lanes, selected, batch_size, epochs)
        solve = self._solves.get(key)
        if solve is None:
            solve = self._compile(*key)
            self._solves[key] = solve
        self._solve = solve
        self.lanes, self.selected = lanes, selected
        self.perms = solve["perms"]
        self.theta_stack = solve["stacks"]["data"]

    def _compile(
        self, lanes: int, selected: int, batch_size: int, epochs: int
    ) -> dict:
        """Bind one solve shape's views and compile its step programs.

        A one-lane solve's views drop the lane axis, so its program makes
        the graph's own 2-D calls, with less dispatch per call.
        """
        buf = partial(self._grow, self._bufs)
        total = self.slot_total
        stacks = {
            name: buf(name, lanes, (total,))
            for name in ("acc", "tmp", "t1", "vel", "data")
        }
        lead = (lanes,) if lanes > 1 else ()
        # per-slot lane-stacked views into the θ and raw-gradient stacks
        lane_w, lane_tmp = {}, {}
        for slot, offset, shape, size in self._slots:
            span = slice(offset, offset + size)
            lane_w[slot] = stacks["data"][:, span].reshape(lead + shape)
            lane_tmp[slot] = stacks["tmp"][:, span].reshape(lead + shape)
        starts = range(0, selected, batch_size)
        losses = buf("losses", lanes * epochs * len(starts)).reshape(lanes, -1)
        perms = buf("perms", epochs * lanes * selected, (), np.int64).reshape(
            epochs, lanes, selected
        )
        programs, pads = {}, []
        for rows in {min(batch_size, selected - s) for s in starts}:
            programs[rows] = self._program(
                lanes, rows, 0 if rows == batch_size else 1, lane_w, lane_tmp, pads
            )
        steps = [
            (
                perms[epoch, :, start : start + rows].reshape(lead + (rows,)),
                *programs[rows],
                losses[:, step],
            )
            for step, (epoch, start, rows) in enumerate(
                (epoch, start, min(batch_size, selected - start))
                for epoch in range(epochs)
                for start in starts
            )
        ]
        return {
            "stacks": stacks,
            "perms": perms,
            "losses": losses,
            "steps": steps,
            "pads": pads,
            "updates": {},
        }

    def _program(self, lanes, rows, slot, lane_w, lane_tmp, pads) -> tuple:
        """``(x, y, ops, lsum)`` for minibatches of ``rows`` per lane: the
        input stacks, one step's forward, loss and backward as bound calls,
        and the per-lane loss they leave.

        ``slot`` (0 for an epoch's full minibatches, 1 for a shorter last
        one) keeps the two row counts of one solve in separate buffers.
        Every Linear's input lives in a stack padded to whole 32-row tiles
        (row_canonical_matmul_into's tiling, remainder tile included), so
        each tile is one matmul on the stack in place; only the first
        ``rows`` rows are live. The padding rows join ``pads``: other
        solve shapes share the buffers, so :meth:`train` re-zeroes them,
        and every tile's padding is zero as in the canonical tiling. Views
        index rows from the back (``...``), so one program text serves the
        lane-stacked and the one-lane (2-D) layout.
        """
        n = lanes * rows
        padded = -(-rows // _TILE) * _TILE
        lead = (lanes,) if lanes > 1 else ()

        def stack(name, tail=(), dtype=np.float64, count=rows):
            """Buffer ``name`` as a ``[lanes,] count + tail`` stack."""
            flat = self._grow(self._bufs, (slot, name), lanes * count, tail, dtype)
            return flat.reshape(lead + (count,) + tail)

        def tiles(name, width):
            """A ``width``-wide stack of whole 32-row tiles; its padding
            rows join ``pads``."""
            padded_stack = stack(name, (width,), count=padded)
            pads.append(padded_stack[..., rows:, :])
            return padded_stack

        x = tiles("x", self.feature_shape[0])
        y = stack("y", (), np.int64)
        ops: list = []
        inputs, masks = {}, {}
        current = x
        for i, (kind, n_in, n_out, bias) in enumerate(self._ops):
            live = current[..., :rows, :]
            inputs[i] = live
            if kind == "linear":
                out = stack(("out", i), (n_out,), count=padded)
                w = lane_w[(i, "w")]
                for t in range(0, padded, _TILE):
                    ops.append(partial(
                        np.matmul, current[..., t : t + _TILE, :], w,
                        out=out[..., t : t + _TILE, :],
                    ))
                if bias:
                    ops.append(partial(
                        np.add, out[..., :rows, :], lane_w[(i, "b")][..., None, :],
                        out=out[..., :rows, :],
                    ))
                current = out
            elif kind == "relu":
                mask = masks[i] = stack(("mask", i), (n_in,), np.bool_)
                out = tiles(("relu", i), n_in)
                out_live = out[..., :rows, :]
                ops += [
                    partial(np.greater, live, 0.0, out=mask),
                    partial(out_live.fill, 0.0),
                    partial(np.putmask, out_live, mask, live),
                ]
                current = out
        # CrossEntropyLoss over the (lanes·rows) row stack; per-lane scalars
        # by the same contiguous-block pairwise sum. The softmax shift runs
        # in place on the logits (the last forward buffer).
        c = self.num_classes
        z = current[..., :rows, :]
        if lead:  # the live rows of a lane stack are strided: gather them
            logits = stack("logits", (c,))
            ops.append(partial(np.copyto, logits, z))
            z = logits
        z = z.reshape(n, c)
        target, probs, grad = (
            self._grow(self._bufs, (slot, name), n, (c,))
            for name in ("target", "probs", "grad")
        )
        m = self._grow(self._bufs, (slot, "m"), n, (1,))
        s = self._grow(self._bufs, (slot, "s"), n, (1,))
        lsum = self._grow(self._bufs, "lsum", lanes)
        scale = float(rows)
        ops += [
            partial(np.equal, y.reshape(n, 1), self._classes, out=target),
            partial(np.maximum.reduce, z, axis=-1, keepdims=True, out=m),
            partial(np.subtract, z, m, out=z),
            partial(np.exp, z, out=probs),
            partial(np.add.reduce, probs, axis=-1, keepdims=True, out=s),
            partial(np.log, s, out=s),
            partial(np.subtract, z, s, out=z),  # z is now logp
            partial(np.exp, z, out=probs),
            partial(np.multiply, target, z, out=grad),
            partial(np.add.reduce, grad.reshape(lanes, -1), axis=1, out=lsum),
            partial(np.negative, lsum, out=lsum),
            partial(np.divide, lsum, scale, out=lsum),
            # loss gradient (probs − target) / rows, into the same buffer
            partial(np.subtract, probs, target, out=grad),
            partial(np.divide, grad, scale, out=grad),
        ]
        g = grad.reshape(lead + (rows, c))
        for i in range(len(self._ops) - 1, -1, -1):
            kind, n_in, n_out, bias = self._ops[i]
            if kind == "linear":
                ops.append(partial(
                    np.matmul, inputs[i].swapaxes(-1, -2), g,
                    out=lane_tmp[(i, "w")],
                ))
                if bias and lead:
                    # a lane-strided slot: contiguous reduce, then the copy
                    bsum = self._grow(self._bufs, ("bsum", i), lanes, (n_out,))
                    ops += [
                        partial(np.add.reduce, g, axis=-2, out=bsum),
                        partial(np.copyto, lane_tmp[(i, "b")], bsum),
                    ]
                elif bias:
                    ops.append(partial(
                        np.add.reduce, g, axis=0, out=lane_tmp[(i, "b")]
                    ))
                if i > 0:  # nothing below the first Linear trains
                    gin = stack(("gin", i), (n_in,))
                    ops.append(partial(
                        np.matmul, g, lane_w[(i, "w")].swapaxes(-1, -2), out=gin
                    ))
                    g = gin
            elif kind == "relu":
                gin = stack(("rgin", i), (n_in,))
                ops += [
                    partial(gin.fill, 0.0),
                    partial(np.putmask, gin, masks[i], g),
                ]
                g = gin
        return x[..., :rows, :], y, ops, lsum

    def _update(self, lr: float, momentum: float, prox_mu: float) -> list:
        """The SGD update as bound calls over the prepared solve's stacks,
        compiled once per solve shape and hyperparameters."""
        key = (lr, momentum, prox_mu)
        ops = self._solve["updates"].get(key)
        if ops is not None:
            return ops
        stacks = self._solve["stacks"]
        acc, t1, vel, data = (stacks[k] for k in ("acc", "t1", "vel", "data"))
        # grad = raw gradient + 0 — element for element a zeroed
        # ``Parameter.grad`` receiving ``+=`` (IEEE addition commutes, the
        # 0 + (−0) = +0 sign edge included)
        ops = [partial(np.add, stacks["tmp"], 0.0, out=acc)]
        grad = acc
        if prox_mu > 0:
            ops += [
                partial(np.subtract, data, self.theta_row, out=t1),
                partial(np.multiply, t1, prox_mu, out=t1),
                partial(np.add, grad, t1, out=grad),
            ]
        if momentum:
            ops += [
                partial(np.multiply, vel, momentum, out=vel),
                partial(np.add, vel, grad, out=vel),
            ]
            grad = vel
        ops += [
            partial(np.multiply, grad, lr, out=t1),
            partial(np.subtract, data, t1, out=data),
        ]
        self._solve["updates"][key] = ops
        return ops

    def train(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        *,
        lr: float,
        momentum: float,
        prox_mu: float = 0.0,
    ) -> np.ndarray:
        """Run every lane's local solve in place; returns per-lane mean loss.

        ``features``/``labels`` hold the selected rows, lane ``i``'s ``k``
        rows at ``[i·k, (i + 1)·k)``; ``theta_row`` the broadcast θ and
        ``perms`` each lane's planned permutations of its ``k`` rows (the
        call offsets them to rows of ``features`` in place). Each lane's θ
        trajectory lands in its :attr:`theta_stack` row, bit-identical to
        its client's graph solve.
        """
        if (
            np.minimum.reduce(labels) < 0
            or np.maximum.reduce(labels) >= self.num_classes
        ):
            raise ValueError("labels out of range for num_classes")
        solve = self._solve
        stacks = solve["stacks"]
        np.copyto(stacks["data"], self.theta_row)
        stacks["vel"].fill(0.0)
        for pad in solve["pads"]:
            pad.fill(0.0)
        if self.lanes > 1:
            k = self.selected
            self.perms += np.arange(0, self.lanes * k, k)[:, None]
        update = self._update(lr, momentum, prox_mu)
        take_x, take_y = features.take, labels.take
        for idx, x, y, ops, lsum, loss in solve["steps"]:
            take_x(idx, axis=0, out=x)
            take_y(idx, out=y)
            for op in ops:
                op()
            np.copyto(loss, lsum)
            for op in update:
                op()
        # np.mean's own sum-then-divide, without its dispatch
        losses = solve["losses"]
        return np.divide(np.add.reduce(losses, axis=1), losses.shape[1])

    @property
    def nbytes(self) -> int:
        """Bytes of every array the plan owns (summed by
        ``fastpath.plan_cache_nbytes``); compiled solves hold views only."""
        return (
            self.theta_row.nbytes
            + self._classes.nbytes
            + sum(
                b.nbytes
                for store in (self._bufs, self._scratch, self._inputs)
                for b in store.values()
            )
        )
