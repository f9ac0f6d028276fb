"""Shared utilities: seeded RNG trees, durable-commit I/O, tables."""

from __future__ import annotations

import numbers
import os
from typing import Callable, Sequence

import numpy as np


def check_count(name: str, value, minimum: int = 1) -> None:
    """Refuse a run count (rounds, epochs, events, a cadence) that is not
    an integer of at least ``minimum`` (1 or 0). A fractional count would
    be compared, truncated or ranged over differently by each consumer,
    and NaN fails every comparison."""
    if not (isinstance(value, numbers.Integral) and value >= minimum):
        bound = "positive" if minimum == 1 else "non-negative"
        raise ValueError(
            f"{name} must be {bound} and an integer, got {value!r}"
        )


def fsync_path(path: str) -> None:
    """fsync a file or directory by path (directory fsync pins renames)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def commit_staged(
    path: str,
    write: Callable[[str], None],
    *,
    abort: Callable[[], bool] | None = None,
    gc: Callable[[], None] | None = None,
    staging_suffix: str = ".tmp",
) -> bool:
    """Stage → fsync → ``os.replace`` → dir-fsync → post-commit GC.

    The one durable-write primitive shared by the checkpoint writers and
    the artifact store: ``write(staging_path)`` produces the full payload
    in a staging file next to ``path``; the staged bytes are fsynced,
    atomically renamed over ``path``, and the parent directory is fsynced
    so the rename itself survives power loss. Readers therefore only ever
    observe the old bytes or the new bytes, never a partial write.

    ``abort()`` is the chaos seam: probed after the payload is staged but
    before the rename, returning ``True`` simulates a crash at the most
    damaging instant (payload durable, commit missing). The staging file
    is left behind, exactly as a real crash would. Returns ``False`` when
    aborted, ``True`` after a completed commit.

    ``gc()`` runs only after a successful commit (superseded-generation
    cleanup); its failures are not the commit's problem and must be
    handled by the callback itself.
    """
    staging = path + staging_suffix
    write(staging)
    fsync_path(staging)
    if abort is not None and abort():
        return False
    os.replace(staging, path)
    parent = os.path.dirname(os.path.abspath(path))
    try:
        fsync_path(parent)
    except OSError:
        pass  # some filesystems refuse directory fsync; rename still landed
    if gc is not None:
        gc()
    return True


def make_rng(seed: int | np.random.Generator) -> np.random.Generator:
    """Return a Generator from a seed, passing existing generators through."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """Derive ``n`` statistically independent generators from one seed.

    Uses ``SeedSequence.spawn`` so components (model init, per-client data,
    selection, sampling) evolve independently: adding a client or changing
    the model does not perturb anyone else's stream.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in seq.spawn(n)]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render rows as a fixed-width text table (the benchmark reports)."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)

