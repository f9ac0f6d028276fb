"""Sample summaries, metric-name rules and the benchmark's result line.

Standard library only: the runner imports this module before (and
without) the program under test.
"""

from __future__ import annotations

import json
import math
import re

#: a metric name: starts with a letter or digit, then at most 63 more of
#: letters, digits, ``_``, ``.`` and ``-``
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: a unit: ``ms``, ``s``, ``1/s``, ``count``, ``MB`` …
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: the quantiles a summary may report beyond the median, highest first
TAIL_QUANTILES = (0.999, 0.99, 0.9)
#: samples a reported tail quantile must have beyond it
TAIL_SAMPLES = 10


def check_name(name: str) -> str:
    """``name`` if it is a valid metric or workload name, else ValueError."""
    if not isinstance(name, str) or not NAME_RE.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def check_unit(unit: str) -> str:
    """``unit`` if it is a valid unit string, else ValueError."""
    if not isinstance(unit, str) or not UNIT_RE.fullmatch(unit):
        raise ValueError(f"invalid unit {unit!r}")
    return unit


def quantile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation quantile of an ascending, non-empty list."""
    if not sorted_values:
        raise ValueError("quantile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * frac


def tail_quantile(count: int) -> float | None:
    """Highest reportable quantile for ``count`` samples, or None.

    A quantile is reportable when at least :data:`TAIL_SAMPLES` samples
    lie beyond it; below ``TAIL_SAMPLES / (1 - 0.9)`` samples only the
    median is.
    """
    for q in TAIL_QUANTILES:
        # (the epsilon absorbs 1 - 0.9 rounding below 0.1)
        if count * (1.0 - q) + 1e-9 >= TAIL_SAMPLES:
            return q
    return None


def summarize(samples: list[float]) -> dict:
    """Median, reportable tail quantile, extremes and count of ``samples``."""
    if not samples:
        raise ValueError("summary of no samples")
    ordered = sorted(float(v) for v in samples)
    out = {
        "n": len(ordered),
        "median": quantile(ordered, 0.5),
        "min": ordered[0],
        "max": ordered[-1],
    }
    q = tail_quantile(len(ordered))
    if q is not None:
        out["tail_q"] = q
        out["tail"] = quantile(ordered, q)
    return out


def result_line(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: dict[str, tuple[float, str]],
) -> str:
    """The one-line JSON result: ``{"correct", "attempted", "failed",
    "metrics": {name: {"value", "unit"}}}``.

    Every name and unit is validated and every value must be finite, so a
    malformed result fails here rather than in whatever reads it.
    """
    if int(attempted) < 1:
        raise ValueError("attempted must be at least 1")
    if not 0 <= int(failed) <= int(attempted):
        raise ValueError("failed must lie in [0, attempted]")
    body = {}
    for name, (value, unit) in metrics.items():
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        body[check_name(name)] = {"value": value, "unit": check_unit(unit)}
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": body,
        }
    )
