"""Run reporting: the ``TelemetrySession`` and the shared JSONL writer.

A :class:`TelemetrySession` is the user-facing handle over the other two
observability pillars. Attached to an
:class:`~repro.experiments.common.ExperimentHarness` (or built by
``FedFTEDSConfig.telemetry_dir``), it

- owns a :class:`~repro.obs.metrics.MetricsRegistry` wired to every live
  counter group (module-level exported groups plus the harness's
  lazily-created feature runtime / segment pool / campaign backend);
- optionally installs a :class:`~repro.obs.tracing.Tracer` for dual-clock
  spans (``trace=True``);
- accumulates per-run evidence — evaluation fast-path counters and the
  observed simulated traffic from
  :func:`repro.fl.communication.history_communication` — via
  :meth:`record_run`;
- writes labelled registry snapshots to ``telemetry.jsonl``, exports
  ``trace.json`` (Chrome trace-event format) on close, and renders an
  end-of-run TTY summary: time breakdown, cache hit rates, bytes moved,
  per-method traffic. With ``live_refresh > 0`` a
  daemon thread re-renders the summary periodically while the run is
  still going.

Counters reported by a session are *deltas against activation time*:
module-level groups (``solver.fused``, ``checkpoint``) outlive sessions,
and the experiment CLI runs many experiments through one process and one
harness, so each per-experiment session baselines the counter tree when
it activates and subtracts that baseline from every snapshot.

The session only ever *reads* engine state — it draws from no RNG stream
and mutates nothing the training paths consume, which is what the
telemetry-on/off bitwise-identity tests pin down.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from typing import Iterable

from repro.obs import metrics, tracing
from repro.obs.metrics import CounterGroup, MetricsRegistry
from repro.obs.tracing import Tracer

#: counter keys every Server publishes (the session-level accumulator
#: starts from the same shape so summaries are stable across runs)
_EVAL_KEYS = {
    "local_evals": 0,
    "pooled_evals": 0,
    "full_loads": 0,
    "theta_loads": 0,
    "feature_builds": 0,
}

_COMM_KEYS = {
    "download_parameters": 0,
    "upload_parameters": 0,
    "initial_download_parameters": 0,
    "total_bytes": 0,
    "runs": 0,
}


def write_jsonl(path: str, rows: Iterable[dict], append: bool = False) -> str:
    """Write dict rows as JSON Lines; the one telemetry wire-format writer.

    Shared by registry snapshots, span exports, and
    :meth:`repro.engine.records.EventLog.to_jsonl`, so every artifact a
    run emits is greppable/parseable with the same tooling.
    """
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "a" if append else "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return path


def _rate(hits: float, total: float) -> str:
    return f"{hits / total:6.1%}" if total else "   n/a"


def _mib(nbytes: float) -> str:
    return f"{nbytes / (1024 * 1024):.2f} MiB"


class TelemetrySession:
    """Campaign-scoped telemetry: registry + tracer + reports, one handle.

    Usable as a context manager (``with TelemetrySession(...) as t:``);
    :meth:`close` is idempotent. Everything is inert until
    :meth:`activate` — constructing a session costs nothing on any hot
    path.
    """

    def __init__(
        self,
        directory: str | None = None,
        trace: bool = False,
        live_refresh: float = 0.0,
        stream=None,
        snapshot_every: int = 1,
        max_trace_events: int = 500_000,
    ):
        self.directory = directory
        self.registry = MetricsRegistry()
        self.registry.add_source(metrics.exported_groups)
        self.tracer: Tracer | None = (
            Tracer(max_trace_events) if trace else None
        )
        self.live_refresh = float(live_refresh)
        self.stream = stream
        self.snapshot_every = max(1, int(snapshot_every))
        self.eval_totals = self.registry.register(
            CounterGroup("server.eval", dict(_EVAL_KEYS))
        )
        self.comm_totals = self.registry.register(
            CounterGroup("comm", dict(_COMM_KEYS))
        )
        self.run_seconds = self.registry.histogram("run.virtual_seconds")
        #: per-method observed traffic rows for the summary table
        self.method_traffic: dict[str, dict[str, int]] = {}
        self._baseline: dict[str, float] = {}
        self._runs_recorded = 0
        self._active = False
        self._closed = False
        self._stop = threading.Event()
        self._refresh_thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------

    def activate(self) -> "TelemetrySession":
        if self._active:
            return self
        self._active = True
        if self.directory:
            os.makedirs(self.directory, exist_ok=True)
            # truncate: one session owns one telemetry.jsonl
            write_jsonl(self._jsonl_path(), [])
        self._baseline = self.registry.counters()
        if self.tracer is not None:
            tracing.install(self.tracer)
        if self.live_refresh > 0:
            self._refresh_thread = threading.Thread(
                target=self._refresh_loop, daemon=True
            )
            self._refresh_thread.start()
        return self

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        if self._refresh_thread is not None:
            self._refresh_thread.join(timeout=2.0)
        if self.tracer is not None and tracing.active() is self.tracer:
            tracing.uninstall()
        if self.directory:
            self.write_snapshot("final")
            if self.tracer is not None:
                write_jsonl(
                    self._jsonl_path(), self.tracer.jsonl_rows(), append=True
                )
                self.tracer.export_chrome(
                    os.path.join(self.directory, "trace.json")
                )
        if self.stream is not None:
            print(self.summary(), file=self.stream, flush=True)

    def __enter__(self) -> "TelemetrySession":
        return self.activate()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- wiring ------------------------------------------------------------

    def attach_harness(self, harness) -> None:
        """Follow a harness's lazily-created runtime counter groups."""
        self.registry.add_source(harness.telemetry_groups)

    def add_source(self, source) -> None:
        self.registry.add_source(source)

    # -- recording ---------------------------------------------------------

    def record_run(
        self,
        label: str,
        server=None,
        model=None,
        history=None,
        num_clients: int | None = None,
    ) -> None:
        """Fold one finished federated run into the session totals.

        Pure read-side accounting: evaluation counters are copied off the
        run's server, observed traffic is reconstructed from the finished
        history, and a labelled snapshot row goes to ``telemetry.jsonl``.
        """
        if server is not None:
            self.eval_totals.add(server.eval_stats)
        if model is not None and history is not None and num_clients:
            from repro.fl.communication import history_communication

            traffic = history_communication(model, history, num_clients)
            self.comm_totals["download_parameters"] += traffic.download_parameters
            self.comm_totals["upload_parameters"] += traffic.upload_parameters
            self.comm_totals["initial_download_parameters"] += (
                traffic.initial_download_parameters
            )
            self.comm_totals["total_bytes"] += traffic.bytes()
            self.comm_totals["runs"] += 1
            row = self.method_traffic.setdefault(
                label,
                {"runs": 0, "download": 0, "upload": 0, "initial": 0, "bytes": 0},
            )
            row["runs"] += 1
            row["download"] += traffic.download_parameters
            row["upload"] += traffic.upload_parameters
            row["initial"] += traffic.initial_download_parameters
            row["bytes"] += traffic.bytes()
        if history is not None:
            seconds = getattr(history, "total_client_seconds", None)
            if seconds is None:
                records = getattr(history, "records", [])
                seconds = (
                    records[-1].cumulative_client_seconds if records else 0.0
                )
            self.run_seconds.observe(float(seconds))
        self._runs_recorded += 1
        if self._runs_recorded % self.snapshot_every == 0:
            self.write_snapshot(label)

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """The registry tree as session-relative deltas (plus gauges)."""
        flat = self.registry.snapshot()
        for name, base in self._baseline.items():
            if name in flat:
                flat[name] -= base
        return flat

    def write_snapshot(self, label: str | None = None) -> None:
        if not self.directory:
            return
        write_jsonl(
            self._jsonl_path(),
            [
                {
                    "type": "snapshot",
                    "label": label,
                    "unix_time": time.time(),
                    "counters": self.snapshot(),
                }
            ],
            append=True,
        )

    def _jsonl_path(self) -> str:
        return os.path.join(self.directory, "telemetry.jsonl")

    # -- reporting ---------------------------------------------------------

    def summary(self) -> str:
        """The end-of-run TTY report."""
        counters = self.snapshot()
        get = counters.get
        lines = ["== telemetry summary =="]

        if self.tracer is not None:
            by_name = sorted(
                self.tracer.summary_by_name().items(),
                key=lambda item: item[1][1],
                reverse=True,
            )
            if by_name:
                lines.append("-- wall-time breakdown (top spans) --")
                for name, (count, total) in by_name[:12]:
                    lines.append(
                        f"  {name:<28} {count:>7}x  {total:9.3f}s"
                    )
            if self.tracer.dropped:
                lines.append(
                    f"  (span buffer full: {self.tracer.dropped} dropped)"
                )

        feat_hits = get("features.hits", 0) + get("features.derived", 0)
        feat_total = feat_hits + get("features.builds", 0)
        pool_total = get("campaign.pool.hits", 0) + get(
            "campaign.pool.publishes", 0
        )
        eval_total = get("server.eval.theta_loads", 0) + get(
            "server.eval.full_loads", 0
        )
        lines.append("-- cache hit rates --")
        lines.append(
            f"  features (hit+derive/build)  {_rate(feat_hits, feat_total)}"
        )
        lines.append(
            f"  segment pool                 "
            f"{_rate(get('campaign.pool.hits', 0), pool_total)}"
        )
        lines.append(
            f"  eval θ-only loads            "
            f"{_rate(get('server.eval.theta_loads', 0), eval_total)}"
            f"   pooled evals {get('server.eval.pooled_evals', 0):.0f}"
        )

        lines.append("-- bytes moved --")
        lines.append(
            f"  shm segments resident        "
            f"{_mib(get('campaign.pool.bytes', 0))}"
        )
        lines.append(
            f"  feature cache resident       {_mib(get('features.bytes', 0))}"
        )
        lines.append(
            f"  worker job payloads          "
            f"{_mib(get('backend.process.job_payload_bytes', 0))}"
        )
        lines.append(
            f"  checkpoint payloads          "
            f"{_mib(get('checkpoint.payload_bytes', 0))}"
        )
        lines.append(
            f"  simulated traffic            {_mib(get('comm.total_bytes', 0))}"
        )

        if self.method_traffic:
            lines.append("-- simulated traffic per method --")
            lines.append(
                f"  {'method':<28} {'runs':>4} {'down(param)':>12}"
                f" {'up(param)':>12} {'initial ϕ':>12} {'bytes':>12}"
            )
            for label, row in sorted(self.method_traffic.items()):
                lines.append(
                    f"  {label:<28.28} {row['runs']:>4}"
                    f" {row['download']:>12} {row['upload']:>12}"
                    f" {row['initial']:>12} {_mib(row['bytes']):>12}"
                )

        fused = get("solver.fused.fused_solves", 0)
        graph = get("solver.fused.graph_solves", 0)
        if fused or graph:
            lines.append("-- fused solver --")
            lines.append(
                f"  fused/graph solves           {fused:.0f}/{graph:.0f}"
                f"   plans {get('solver.fused.plans_built', 0):.0f}"
                f" (+{get('solver.fused.plan_failures', 0):.0f} fallbacks)"
            )
        if self.run_seconds.count:
            sums = self.run_seconds.summary()
            lines.append(
                f"-- runs -- {sums['count']:.0f} recorded,"
                f" simulated client time total {sums['total']:.1f}s"
                f" (mean {sums['mean']:.1f}s)"
            )
        return "\n".join(lines)

    def _refresh_loop(self) -> None:  # pragma: no cover - timing-dependent
        stream = self.stream if self.stream is not None else sys.stderr
        while not self._stop.wait(self.live_refresh):
            try:
                print(self.summary(), file=stream, flush=True)
            except Exception:
                return
