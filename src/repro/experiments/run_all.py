"""CLI entry point: regenerate the paper's tables and figures.

Usage::

    repro-experiments --scale default --output results/default
    repro-experiments --scale smoke --only table2,fig6
    repro-experiments --mode fedbuff --backend process --only table3

Reports are printed and saved as ``<output>/<experiment>.{txt,json}``.
``--mode`` switches every experiment's federated runs to the event engine
(FedAsync/FedBuff on an equal-work event budget), and ``--backend process``
moves client local training into shared-memory worker processes —
bitwise identical to serial by the engine's determinism contract.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.core.fedft_eds import MODES
from repro.engine.backends import BACKENDS
from repro.experiments.common import ExperimentHarness
from repro.experiments.registry import get_experiment, list_experiments
from repro.experiments.scales import SCALES
from repro.obs import TelemetrySession


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the FedFT-EDS paper's tables and figures",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="default",
        help="experiment scale preset (default: default)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="campaign seed (default: 0)"
    )
    parser.add_argument(
        "--only",
        default=None,
        help="comma-separated experiment ids (default: all)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="directory for .txt/.json reports (default: print only)",
    )
    parser.add_argument(
        "--mode",
        choices=MODES,
        default="sync",
        help="training mode for every federated run (default: sync)",
    )
    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default="serial",
        help="execution backend for client rounds (default: serial)",
    )
    parser.add_argument(
        "--max-workers",
        type=int,
        default=None,
        help="worker count for the process backend (default: auto)",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-job wall-clock deadline on the process backend; a hung "
            "job is killed and redispatched bitwise identically "
            "(repro.engine.faults.FaultPolicy)"
        ),
    )
    parser.add_argument(
        "--max-job-retries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "consecutive failures of one job before it degrades to inline "
            "execution (default: FaultPolicy's 2); enables the fault layer"
        ),
    )
    parser.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help=(
            "deterministic fault injection, e.g. 'kill@3;delay@5:0.2;"
            "corrupt@0;tear@1' — kill a worker after job 3, stall job 5 "
            "for 0.2s, corrupt a segment of job 0, tear checkpoint save 1; "
            "results stay bitwise identical to the fault-free run "
            "(repro.engine.faults.ChaosPlan)"
        ),
    )
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="DIR",
        help=(
            "write per-experiment telemetry (counter snapshots, run "
            "summaries) under DIR/<experiment>/telemetry.jsonl; implied "
            "as <output>/telemetry when --output is set"
        ),
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help=(
            "also record dual-clock spans and export a Perfetto-loadable "
            "DIR/<experiment>/trace.json per experiment (refused unless "
            "telemetry is on)"
        ),
    )
    parser.add_argument(
        "--no-telemetry",
        action="store_true",
        help=(
            "disable telemetry even when --output is set (refused "
            "together with --telemetry)"
        ),
    )
    parser.add_argument(
        "--telemetry-refresh",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help=(
            "print a live telemetry summary to the terminal every SECONDS "
            "while experiments run (default: only at end of experiment; "
            "refused unless telemetry is on)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=(
            "root of the durable artifact store (repro.store); default "
            "${REPRO_CACHE:-~/.cache/repro}. Pretrained backbones and "
            "feature segments warm-start across invocations — bitwise "
            "identical to a cold run"
        ),
    )
    parser.add_argument(
        "--no-artifact-store",
        action="store_true",
        help=(
            "disable the durable artifact store: every invocation "
            "re-pretrains and re-materialises from scratch"
        ),
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids and exit"
    )
    return parser


def run_experiments(
    scale: str,
    seed: int = 0,
    only: list[str] | None = None,
    output: str | None = None,
    stream=sys.stdout,
    mode: str = "sync",
    backend: str = "serial",
    max_workers: int | None = None,
    telemetry_dir: str | None = None,
    trace: bool = False,
    telemetry_refresh: float = 0.0,
    job_timeout: float | None = None,
    max_job_retries: int | None = None,
    chaos: str | None = None,
    cache_dir: str | None = None,
    artifact_store: object | None = None,
) -> dict[str, "ExperimentReport"]:
    """Run (a subset of) the experiments and return their reports.

    When ``telemetry_dir`` is set, each experiment gets its own
    :class:`~repro.obs.report.TelemetrySession` writing
    ``<telemetry_dir>/<experiment>/telemetry.jsonl`` (plus ``trace.json``
    when ``trace`` is on) and printing an end-of-experiment summary.
    Telemetry is observational only: results are bitwise identical with
    it on or off. ``trace`` and ``telemetry_refresh`` act only through a
    session, so either without ``telemetry_dir`` raises ``ValueError``
    before any experiment runs.

    ``cache_dir``/``artifact_store`` follow
    :func:`repro.store.resolve_store`: programmatic callers get no store
    unless they opt in (the CLI opts in by default), and a warm store
    makes the campaign skip re-pretraining and feature rebuilds — bitwise
    identical to a cold run.
    """
    if telemetry_dir is None and (trace or telemetry_refresh):
        raise ValueError(
            "trace and telemetry_refresh need telemetry_dir: without a "
            "telemetry session there is nothing to trace or refresh"
        )
    ids = only or list_experiments()
    context: dict = {}
    reports = {}
    # The harness owns the campaign runtime (warm process workers plus the
    # shared-memory segment pool); the context manager guarantees segments
    # are unlinked however the campaign ends.
    with ExperimentHarness(
        scale,
        seed=seed,
        mode=mode,
        backend=backend,
        max_workers=max_workers,
        job_timeout=job_timeout,
        max_job_retries=max_job_retries,
        chaos=chaos,
        cache_dir=cache_dir,
        artifact_store=artifact_store,
    ) as harness:
        for experiment_id in ids:
            runner, description = get_experiment(experiment_id)
            start = time.time()
            print(f"== {experiment_id}: {description}", file=stream)
            session = None
            if telemetry_dir is not None:
                session = TelemetrySession(
                    directory=os.path.join(telemetry_dir, experiment_id),
                    trace=trace,
                    live_refresh=telemetry_refresh,
                    stream=stream,
                )
                session.attach_harness(harness)
                harness.telemetry = session
                session.activate()
            try:
                report = runner(harness, context)
            finally:
                harness.telemetry = None
                if session is not None:
                    session.close()
            elapsed = time.time() - start
            print(report.table, file=stream)
            print(f"   ({elapsed:.1f}s)\n", file=stream)
            if output:
                report.save(output)
            reports[experiment_id] = report
    return reports


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cache_dir is not None and args.no_artifact_store:
        parser.error(
            "--cache-dir names an artifact store directory, but "
            "--no-artifact-store turns the store off; pass only one of them"
        )
    if args.telemetry is not None and args.no_telemetry:
        parser.error(
            "--telemetry names a telemetry directory, but --no-telemetry "
            "turns telemetry off; pass only one of them"
        )
    telemetry_on = args.telemetry is not None or (
        bool(args.output) and not args.no_telemetry
    )
    idle = [
        flag for flag, given in (
            ("--trace", args.trace),
            ("--telemetry-refresh", args.telemetry_refresh),
        ) if given
    ]
    if idle and not telemetry_on:
        parser.error(
            f"{' and '.join(idle)} need telemetry, which is off; pass "
            "--telemetry DIR, or --output without --no-telemetry"
        )
    if args.list:
        for experiment_id in list_experiments():
            _, description = get_experiment(experiment_id)
            print(f"{experiment_id:8s} {description}")
        return 0
    only = args.only.split(",") if args.only else None
    telemetry_dir = args.telemetry
    if telemetry_dir is None and telemetry_on:
        telemetry_dir = os.path.join(args.output, "telemetry")
    run_experiments(
        args.scale,
        seed=args.seed,
        only=only,
        output=args.output,
        mode=args.mode,
        backend=args.backend,
        max_workers=args.max_workers,
        telemetry_dir=telemetry_dir,
        trace=args.trace,
        telemetry_refresh=args.telemetry_refresh,
        job_timeout=args.job_timeout,
        max_job_retries=args.max_job_retries,
        chaos=args.chaos,
        cache_dir=args.cache_dir,
        # CLI invocations default the store ON (the warm-start across
        # processes and days the store exists for); programmatic callers
        # must opt in via cache_dir/artifact_store.
        artifact_store=not args.no_artifact_store,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
