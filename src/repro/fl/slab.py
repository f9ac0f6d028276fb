"""Flat-slab server θ: every model version as one contiguous float64 array.

:class:`~repro.nn.fused.CohortPlan` keeps θ as flat rows on the client
side; this module makes a flat slab the server's one representation of θ.
A :class:`SlabLayout` packs the communicated θ keys — in ``theta_keys``
order, 64-byte aligned via the same :func:`repro.nn.fused.aligned_slot_layout`
the plans use — and a :class:`SlabState` is a plain ``dict`` state whose θ
entries are views into one flat slab (``theta_slab``). Because it *is* a
dict, every consumer that reads states (``load_state_dict``, ``theta_keys``
walks, pickling) works unchanged, while the server side works on the slab:

- aggregation is one ufunc over a (clients × params) stack
  (:func:`repro.fl.aggregation.weighted_average_flat` and friends),
- server→client broadcast is a memcpy into a plan's ``_data_flat``
  (offset-identical packing) or into a shm slot's θ block,
- checkpoints store a version's θ as the single ``theta_slab`` array.

:meth:`SlabLayout.flatten` is where states enter: an update or installed
state whose θ does not fit the packing is refused there, before anything
is written. Padding between slots is zeroed and every slab kernel maps
``0 → +0``, so pad lanes never contaminate θ lanes. Pickling a SlabState
degrades it to a plain dict (workers see exactly the per-key arrays);
ϕ entries are held by reference and shared across versions.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.nn.fused import aligned_slot_layout


class SlabLayout:
    """Packing of named θ arrays into one aligned float64 slab.

    Keys keep their *given* order (``theta_keys`` order — NOT sorted):
    ``named_parameters`` yields weight-then-bias per layer in chain order,
    which is exactly the slot order :class:`~repro.nn.fused.CohortPlan`
    packs, so a slab and a plan's θ row are offset-identical and
    broadcasts are a single memcpy.
    """

    __slots__ = (
        "keys", "key_set", "shapes", "offsets", "sizes", "total", "signature"
    )

    def __init__(self, items: Sequence[tuple[str, tuple[int, ...]]]):
        self.keys = tuple(key for key, _ in items)
        self.key_set = frozenset(self.keys)
        self.shapes = tuple(tuple(int(d) for d in shape) for _, shape in items)
        offsets, total = aligned_slot_layout(self.shapes)
        self.offsets = tuple(offsets)
        self.sizes = tuple(
            int(np.prod(shape)) if len(shape) else 1 for shape in self.shapes
        )
        self.total = max(total, 1)  # zero-length slabs still allocate
        #: hashable identity: equal signatures ⇔ identical packing
        self.signature = tuple(zip(self.keys, self.shapes))

    @classmethod
    def for_state(
        cls, state: dict[str, np.ndarray], theta: Iterable[str]
    ) -> "SlabLayout | None":
        """Layout over ``theta`` keys of ``state``; None when unsuitable.

        The slab is float64-only (the project's universal dtype); any
        other dtype — or a missing key — declines.
        """
        items = []
        for key in theta:
            value = state.get(key)
            if not isinstance(value, np.ndarray) or value.dtype != np.float64:
                return None
            items.append((key, value.shape))
        return cls(items)

    def views(self, slab: np.ndarray) -> dict[str, np.ndarray]:
        """Named views of ``slab`` per the layout (no copies)."""
        return {
            key: slab[offset : offset + size].reshape(shape)
            for key, shape, offset, size in zip(
                self.keys, self.shapes, self.offsets, self.sizes
            )
        }

    def flatten(
        self, state: dict[str, np.ndarray], scratch: np.ndarray
    ) -> np.ndarray:
        """``state``'s θ as one flat slab per this layout.

        Zero-copy when ``state`` is slab-backed with this packing and holds
        nothing else; gathered into ``scratch`` otherwise. A state that
        does not fit is refused before ``scratch`` is written: ``KeyError``
        when its keys differ from the layout's, ``ValueError`` when an
        entry is not a float64 array of the packed shape.
        """
        slab = getattr(state, "theta_slab", None)
        if (
            slab is not None
            and len(state) == len(self.keys)
            and state.layout.signature == self.signature
        ):
            return slab
        if state.keys() != self.key_set:
            raise KeyError(
                f"θ keys differ from the packing: missing "
                f"{sorted(self.key_set - state.keys())}, unexpected "
                f"{sorted(state.keys() - self.key_set)}"
            )
        for key, shape in self.signature:
            value = state[key]
            if (
                not isinstance(value, np.ndarray)
                or value.shape != shape
                or value.dtype != np.float64
            ):
                raise ValueError(
                    f"θ entry {key!r} is not a float64 array of shape {shape}"
                )
        return self.gather(state, scratch)

    def gather(self, state: dict[str, np.ndarray], out: np.ndarray) -> np.ndarray:
        """Copy ``state``'s θ values into the flat ``out`` per the layout.

        Pad lanes are zeroed explicitly so a recycled scratch row holds
        the same bytes a fresh slab would.
        """
        end = 0
        for key, shape, offset, size in zip(
            self.keys, self.shapes, self.offsets, self.sizes
        ):
            if offset > end:
                out[end:offset] = 0.0
            out[offset : offset + size].reshape(shape)[...] = state[key]
            end = offset + size
        if end < len(out):
            out[end:] = 0.0
        return out


class SlabState(dict):
    """A model state dict whose θ entries are views into ``theta_slab``.

    Subclasses ``dict`` so every reader of states works untouched;
    pickling (:meth:`__reduce__`) degrades to a plain dict of standalone
    arrays, so process-backend workers never see the slab.
    """

    __slots__ = ("theta_slab", "layout")

    def __reduce__(self):
        return (dict, (dict(self),))


def make_slab_state(
    state: dict[str, np.ndarray], layout: SlabLayout
) -> SlabState:
    """A :class:`SlabState` copy of ``state`` with θ gathered into a fresh
    slab.

    ϕ entries (keys outside the layout) are carried by reference — they
    are immutable for the campaign and shared by every version. θ that
    does not fit ``layout`` is refused as :meth:`SlabLayout.flatten`
    refuses it.
    """
    theta = {key: state[key] for key in layout.keys if key in state}
    slab = layout.flatten(theta, np.empty(layout.total))
    return slab_successor(state, slab, layout)


def slab_successor(
    base: dict[str, np.ndarray], slab: np.ndarray, layout: SlabLayout
) -> SlabState:
    """A new state around an already-computed ``slab`` packed per
    ``layout``.

    ϕ entries pass through by reference from ``base``; θ entries become
    views of ``slab`` (with ``base={}``, a θ-only state such as an update
    or a FedBuff delta). This is the aggregation epilogue: the flat
    kernels produced ``slab``, and the result is a *fresh dict object*
    (identity checks like the process backend's ``slot.state is
    global_state`` rely on one dict per model version).
    """
    result = SlabState(base)
    result.layout = layout
    result.theta_slab = slab
    result.update(layout.views(slab))
    return result
