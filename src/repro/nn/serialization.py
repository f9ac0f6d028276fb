"""State-dict helpers: saving, loading and the θ keys.

In FedFT-EDS only the upper part θ of the model is communicated; these
helpers name and copy the trainable (θ) portion of a model's state, and
persist state dicts as ``.npz`` archives.
"""

from __future__ import annotations

import os

import numpy as np

from repro.nn.segmented import SegmentedModel


def save_state(path: str, state: dict[str, np.ndarray]) -> None:
    """Persist a state dict to ``path`` (``.npz`` appended if missing)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    np.savez(path, **state)


def load_state(path: str) -> dict[str, np.ndarray]:
    """Load a state dict saved by :func:`save_state`."""
    if not path.endswith(".npz"):
        path = path + ".npz"
    with np.load(path) as archive:
        return {key: archive[key].copy() for key in archive.files}


def theta_keys(model: SegmentedModel) -> list[str]:
    """Keys of the communicated part θ: trainable parameters plus the
    buffers (BN running stats) of every trainable segment."""
    keys = [name for name, p in model.named_parameters() if p.requires_grad]
    for seg_name, segment in model.segments():
        if not segment.has_trainable():
            continue
        for buf_name, _ in segment.named_buffers(seg_name):
            keys.append(buf_name)
    return keys


def theta_state(model: SegmentedModel) -> dict[str, np.ndarray]:
    """Copy of just the communicated part θ of the model's state.

    Equivalent to ``{k: model.state_dict()[k] for k in theta_keys(model)}``
    without materialising (and copying) the frozen ϕ — the hot-path
    extraction every client round performs.
    """
    params = dict(model.named_parameters())
    buffers = dict(model.named_buffers())
    return {
        key: (params[key].data if key in params else buffers[key]).copy()
        for key in theta_keys(model)
    }

