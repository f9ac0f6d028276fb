"""Linux process-table helpers: children, zombies and peak resident memory.

Standard library only (read from ``/proc``), shared by the runner, which
must find every process a workload left behind, and by the workload,
which sums the peak memory of its backend workers.
"""

from __future__ import annotations

import os


def _stat_fields(pid: int) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name, or None."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            raw = fh.read().decode("ascii", "replace")
    except OSError:
        return None
    # The command name is parenthesised and may itself contain spaces or
    # parentheses: split after the *last* closing parenthesis.
    return raw[raw.rfind(")") + 2 :].split()


def state_of(pid: int) -> str | None:
    """One-letter process state (``R``, ``S``, ``Z`` …), None if gone."""
    fields = _stat_fields(pid)
    return fields[0] if fields else None


def parent_of(pid: int) -> int | None:
    fields = _stat_fields(pid)
    return int(fields[1]) if fields else None


def group_of(pid: int) -> int | None:
    fields = _stat_fields(pid)
    return int(fields[2]) if fields else None


def all_pids() -> list[int]:
    return [int(name) for name in os.listdir("/proc") if name.isdigit()]


def children(pid: int) -> list[int]:
    """Direct children of ``pid`` (zombies included)."""
    return [p for p in all_pids() if parent_of(p) == pid]


def descendants(pid: int) -> list[int]:
    """Every process below ``pid`` in the process tree."""
    table = {}
    for p in all_pids():
        parent = parent_of(p)
        if parent is not None:
            table.setdefault(parent, []).append(p)
    out, frontier = [], [pid]
    while frontier:
        kids = table.get(frontier.pop(), [])
        out.extend(kids)
        frontier.extend(kids)
    return out


def in_group(pgid: int) -> list[int]:
    """Processes whose process group is ``pgid``."""
    return [p for p in all_pids() if group_of(p) == pgid]


def peak_rss_kb(pid: int) -> int:
    """``VmHWM`` of ``pid`` in KiB (0 if it is gone or a zombie)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0

