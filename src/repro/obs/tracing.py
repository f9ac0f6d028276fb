"""Dual-clock tracing: wall-time spans plus the engine's virtual clock.

The async engine runs two clocks at once — real wall time (what the
simulator costs *us*) and the virtual `repro.engine.clock.VirtualClock`
(what the simulated federation costs *the clients*). A profiler that sees
only one of them cannot answer the paper's questions: "is pooled eval the
wall-time bottleneck?" needs the first, "which straggler stalls FedBuff?"
needs the second. Spans here record both:

- **wall spans** (:func:`span`) time a code region with
  ``perf_counter`` and optionally tag it with the virtual time it was
  processing;
- **virtual spans** (:func:`event_span` / :func:`virtual_span`) replay an
  engine event's ``[time - duration, time]`` window onto a separate
  track, one lane per client, so simulated stragglers are visually
  inspectable.

Exports are JSONL rows (via the telemetry writer) and Chrome trace-event
JSON loadable in Perfetto / ``chrome://tracing``: wall spans live on
pid 1, virtual spans on pid 2 with ``tid = client_id``.

Zero-cost when disabled is a hard requirement — spans sit on the client
round and event-processing hot paths. The module-level ``_TRACER`` guard
makes every helper a pointer test plus return of the ``_NULL_SPAN``
singleton: no object allocation, no kwargs dict, no closure. The
disabled-mode zero-allocation property is pinned by a test. Nothing in
this module reads or advances an RNG stream.
"""

from __future__ import annotations

import json
import time


class _NullSpan:
    """The shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()

#: module-level guard: ``None`` means every helper is a no-op
_TRACER: "Tracer | None" = None


def install(tracer: "Tracer") -> "Tracer":
    """Make ``tracer`` the process-wide active tracer."""
    global _TRACER
    _TRACER = tracer
    return tracer


def uninstall() -> None:
    global _TRACER
    _TRACER = None


def active() -> "Tracer | None":
    return _TRACER


def span(name, virtual_time=None):
    """A wall-clock span context manager (the no-op singleton if disabled).

    Positional, simple-argument calling convention on purpose: the
    disabled path must not build a kwargs dict or any temporary.
    """
    tracer = _TRACER
    if tracer is None:
        return _NULL_SPAN
    return _Span(tracer, name, virtual_time)


def event_span(name, end_time, duration, track):
    """Record a finished engine event on the virtual-clock track.

    Callers pass the event's *end* time and duration verbatim (both
    already exist as floats on the event object); the subtraction that
    yields the start time only happens when a tracer is installed, so the
    disabled path allocates nothing.
    """
    tracer = _TRACER
    if tracer is not None:
        tracer.add_virtual(name, end_time - duration, duration, track)


def virtual_span(name, start, duration, track=0):
    """Record an explicit ``[start, start + duration]`` virtual interval."""
    tracer = _TRACER
    if tracer is not None:
        tracer.add_virtual(name, start, duration, track)


class _Span:
    __slots__ = ("_tracer", "_name", "_virtual_time", "_t0")

    def __init__(self, tracer: "Tracer", name, virtual_time):
        self._tracer = tracer
        self._name = name
        self._virtual_time = virtual_time

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        t0 = self._t0
        self._tracer.add_wall(
            self._name, t0, time.perf_counter() - t0, self._virtual_time
        )
        return False


class Tracer:
    """Bounded in-memory span store with JSONL and Chrome-trace export.

    ``max_events`` caps memory on long campaigns; overflow is counted in
    ``dropped`` rather than silently discarded (the summary reports it).
    List appends are atomic under the GIL, which is all the thread safety
    the backends' helper threads need; exports copy before reading.
    """

    def __init__(self, max_events: int = 500_000):
        self.origin = time.perf_counter()
        self.max_events = max_events
        self.wall: list[tuple] = []
        self.virtual: list[tuple] = []
        self.dropped = 0

    # -- recording ---------------------------------------------------------

    def add_wall(self, name, t0, duration, virtual_time) -> None:
        if len(self.wall) >= self.max_events:
            self.dropped += 1
            return
        self.wall.append((name, t0 - self.origin, duration, virtual_time))

    def add_virtual(self, name, start, duration, track) -> None:
        if len(self.virtual) >= self.max_events:
            self.dropped += 1
            return
        self.virtual.append((name, start, duration, track))

    # -- aggregation -------------------------------------------------------

    def summary_by_name(self) -> dict[str, tuple[int, float]]:
        """``{span name: (count, total wall seconds)}`` over wall spans."""
        out: dict[str, tuple[int, float]] = {}
        for name, _, duration, _ in list(self.wall):
            count, total = out.get(name, (0, 0.0))
            out[name] = (count + 1, total + duration)
        return out

    # -- export ------------------------------------------------------------

    def jsonl_rows(self) -> list[dict]:
        """Span records in the telemetry JSONL wire format."""
        rows = []
        for name, start, duration, virtual_time in list(self.wall):
            row = {
                "type": "span",
                "name": name,
                "wall_start": start,
                "wall_seconds": duration,
            }
            if virtual_time is not None:
                row["virtual_time"] = virtual_time
            rows.append(row)
        for name, start, duration, track in list(self.virtual):
            rows.append(
                {
                    "type": "vspan",
                    "name": name,
                    "virtual_start": start,
                    "virtual_seconds": duration,
                    "track": track,
                }
            )
        return rows

    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON (the Perfetto-loadable dual-clock view).

        Track layout: pid 1 is the wall clock (one scheduler thread lane),
        pid 2 is the virtual clock with one ``tid`` lane per client (the
        FedBuff flush event's ``client_id = -1`` gets the server lane).
        Timestamps are microseconds, as the format requires; virtual
        seconds map 1:1 onto trace microseconds so straggler windows keep
        their proportions.
        """
        events: list[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "tid": 0,
                "args": {"name": "wall clock"},
            },
            {
                "name": "process_name",
                "ph": "M",
                "pid": 2,
                "tid": 0,
                "args": {"name": "virtual clock (simulated)"},
            },
        ]
        for name, start, duration, virtual_time in list(self.wall):
            event = {
                "name": name,
                "cat": "wall",
                "ph": "X",
                "ts": start * 1e6,
                "dur": duration * 1e6,
                "pid": 1,
                "tid": 0,
            }
            if virtual_time is not None:
                event["args"] = {"virtual_time": virtual_time}
            events.append(event)
        tracks: set[int] = set()
        for name, start, duration, track in list(self.virtual):
            tracks.add(track)
            events.append(
                {
                    "name": name,
                    "cat": "virtual",
                    "ph": "X",
                    "ts": start * 1e6,
                    "dur": duration * 1e6,
                    "pid": 2,
                    "tid": track,
                }
            )
        for track in sorted(tracks):
            label = "server" if track < 0 else f"client {track}"
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 2,
                    "tid": track,
                    "args": {"name": label},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def export_chrome(self, path: str) -> str:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)
        return path
