"""Module system: parameter registration, freezing, state dicts.

Modules cache whatever they need during ``forward`` and consume the cache in
``backward``; a module therefore supports exactly one outstanding
forward/backward pair, which is all the training loops in this project need.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

#: Advanced by every structural edit of any module tree: binding a
#: :class:`Parameter` or :class:`Module` attribute, or registering a
#: buffer. Structure memos (:meth:`repro.nn.segmented.SegmentedModel.
#: structure`) record it and rebuild once it has moved.
_structure_epoch = 0


def structure_epoch() -> int:
    """The current structure epoch (see :data:`_structure_epoch`)."""
    return _structure_epoch


class Parameter:
    """A trainable array with an accumulated gradient.

    ``requires_grad`` implements the paper's partial-training split: frozen
    parameters (the feature extractor ϕ) keep ``requires_grad = False`` so
    optimisers skip them and layers skip computing their weight gradients.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data: np.ndarray, requires_grad: bool = True):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = "" if self.requires_grad else ", frozen"
        return f"Parameter(shape={self.data.shape}{flag})"


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter`, :class:`Module` and buffer
    attributes normally; registration happens automatically so that
    ``named_parameters``/``state_dict`` see the full tree.
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "training", True)

    # -- attribute registration -------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        global _structure_epoch
        if isinstance(value, Parameter):
            self._parameters[name] = value
            _structure_epoch += 1
        elif isinstance(value, Module):
            self._modules[name] = value
            _structure_epoch += 1
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable persistent array (e.g. BN running stats)."""
        global _structure_epoch
        self._buffers[name] = np.asarray(value, dtype=np.float64)
        object.__setattr__(self, name, self._buffers[name])
        _structure_epoch += 1

    def _set_buffer(self, name: str, value: np.ndarray) -> None:
        """Update a registered buffer in place, keeping aliases consistent."""
        buf = self._buffers[name]
        buf[...] = value

    # -- traversal ----------------------------------------------------------
    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield prefix, self
        for name, mod in self._modules.items():
            sub = f"{prefix}.{name}" if prefix else name
            yield from mod.named_modules(sub)

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for mod_name, mod in self.named_modules(prefix):
            for p_name, param in mod._parameters.items():
                full = f"{mod_name}.{p_name}" if mod_name else p_name
                yield full, param

    def iter_parameters(self) -> Iterator[Parameter]:
        """Parameters of the subtree without building dotted names.

        The nameless twin of :meth:`named_parameters` for hot paths
        (``has_trainable``, ``zero_grad``, mode switches run per training
        step or round): prefix strings dominate the generator walk's cost
        and most callers never look at them.
        """
        yield from self._parameters.values()
        for mod in self._modules.values():
            yield from mod.iter_parameters()

    def parameters(self) -> list[Parameter]:
        return list(self.iter_parameters())

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for mod_name, mod in self.named_modules(prefix):
            for b_name in mod._buffers:
                full = f"{mod_name}.{b_name}" if mod_name else b_name
                yield full, mod._buffers[b_name]

    def num_parameters(self, trainable_only: bool = False) -> int:
        """Total scalar parameter count, optionally counting only trainable."""
        return sum(
            p.size
            for _, p in self.named_parameters()
            if p.requires_grad or not trainable_only
        )

    # -- train / eval --------------------------------------------------------
    def _apply_mode(self, flag: bool) -> None:
        object.__setattr__(self, "training", flag)
        for mod in self._modules.values():
            mod._apply_mode(flag)

    def train(self) -> "Module":
        self._apply_mode(True)
        return self

    def eval(self) -> "Module":
        self._apply_mode(False)
        return self

    def zero_grad(self) -> None:
        for p in self.iter_parameters():
            p.zero_grad()

    # -- freezing -------------------------------------------------------------
    def freeze(self) -> "Module":
        """Mark every parameter in this subtree as non-trainable."""
        for p in self.parameters():
            p.requires_grad = False
        return self

    def unfreeze(self) -> "Module":
        for p in self.parameters():
            p.requires_grad = True
        return self

    def has_trainable(self) -> bool:
        return any(p.requires_grad for p in self.iter_parameters())

    # -- state dict -------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter and buffer, keyed by dotted path."""
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        for name, buf in self.named_buffers():
            state[name] = buf.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray], strict: bool = True) -> None:
        """Load values into matching parameters/buffers.

        With ``strict=False`` keys missing from ``state`` are left untouched
        (used to load only the trainable part θ received from the server).
        """
        params = dict(self.named_parameters())
        buffers = {name: (mod, b_name)
                   for mod_name, mod in self.named_modules()
                   for b_name in mod._buffers
                   for name in [f"{mod_name}.{b_name}" if mod_name else b_name]}
        known = set(params) | set(buffers)
        unknown = set(state) - known
        if unknown:
            raise KeyError(f"unexpected keys in state dict: {sorted(unknown)}")
        if strict:
            missing = known - set(state)
            if missing:
                raise KeyError(f"missing keys in state dict: {sorted(missing)}")
        for name, value in state.items():
            if name in params:
                target = params[name]
                if target.data.shape != np.shape(value):
                    raise ValueError(
                        f"shape mismatch for {name}: "
                        f"{target.data.shape} vs {np.shape(value)}"
                    )
                target.data[...] = value
            else:
                mod, b_name = buffers[name]
                mod._set_buffer(b_name, value)

    # -- compute ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def flops_per_sample(self, in_shape: tuple) -> tuple[int, tuple]:
        """Return ``(forward_flops, out_shape)`` for one sample.

        Default assumes a shape-preserving free operation; layers that do
        real work override this. Used by :mod:`repro.nn.profiling` and by the
        FL timing model.
        """
        return 0, in_shape


class Sequential(Module):
    """A chain of modules.

    Backward always propagates to the chain's input: an enclosing module
    (a segment, a residual block) may need the input gradient. Stopping
    below the trainable frontier is :class:`~repro.nn.segmented.
    SegmentedModel`'s job.
    """

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(self.layers):
            setattr(self, f"layer{i}", layer)

    def __iter__(self) -> Iterator[Module]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, idx: int) -> Module:
        return self.layers[idx]

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad = grad_out
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def flops_per_sample(self, in_shape: tuple) -> tuple[int, tuple]:
        total = 0
        shape = in_shape
        for layer in self.layers:
            flops, shape = layer.flops_per_sample(shape)
            total += flops
        return total, shape
