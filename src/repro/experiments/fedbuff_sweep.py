"""Paper-scale FedBuff sweep over the buffer size K (Nguyen et al. 2022).

FedBuff's one hyperparameter is how many client deltas the server buffers
before folding them into the model. Small K aggregates eagerly (fresher
updates, more versions, more staleness in flight); large K approaches a
synchronous round assembled from whichever clients finish first. The sweep
runs the FedFT-EDS pool under Table-III straggler conditions (half the
pool ``SLOWDOWN``× slower) for every K and races each against the
synchronous baseline's time-to-target — the operating curve behind picking
K for a deployment.

Every run, the synchronous baseline included, honours the harness
``backend`` (serial or process execution of client rounds); the training
mode is FedBuff by definition, so the harness
``mode`` is ignored. Staleness discounting is disabled for the same reason
as in :mod:`repro.experiments.async_stragglers`: with a 10× speed spread
the stragglers' updates are the only carriers of their shards' classes.
"""

from __future__ import annotations

from repro.engine.aggregators import FedBuffAggregator
from repro.engine.runner import run_async_federated_training
from repro.experiments.common import (
    ExperimentHarness,
    STANDARD_METHODS,
    async_eval_every,
)
from repro.experiments.reporting import ExperimentReport, accuracy_table
from repro.fl.rounds import run_federated_training
from repro.fl.timing import TimingModel, straggler_multipliers

DATASET = "cifar10"
ALPHA = 0.1
#: buffer sizes swept; the paper-scale grid spans eager to near-synchronous
K_VALUES = (1, 2, 4, 8, 16)
#: Table-III-style tier split: half the pool is this many times slower.
SLOW_FRACTION = 0.5
SLOWDOWN = 10.0
#: fraction of the sync best accuracy that defines the time-to-target race
TARGET_FRACTION = 0.8
#: async event budget relative to the sync run's total completions
EVENT_BUDGET_FACTOR = 2


def run(
    harness: ExperimentHarness, context: dict | None = None
) -> ExperimentReport:
    """Sweep FedBuff's K against a synchronous baseline under stragglers."""
    s = harness.scale
    num_clients = s.clients_large
    rounds = s.rounds
    method = STANDARD_METHODS["fedft_eds"]
    timing = TimingModel(
        flops_per_second=harness.timing.flops_per_second,
        speed_multipliers=straggler_multipliers(
            num_clients, SLOW_FRACTION, SLOWDOWN, seed=harness.seed
        ),
    )

    server, clients, run_seed = harness.build_federation(
        DATASET, method, ALPHA, num_clients, seed_extra=("engine", "sync")
    )
    with harness.make_run_backend() as backend:
        sync_history = run_federated_training(
            server,
            clients,
            rounds=rounds,
            seed=run_seed + 1,
            timing=timing,
            backend=backend,
        )
    if harness.telemetry is not None:
        harness.telemetry.record_run(
            f"{DATASET}/sync_baseline",
            server=server,
            model=server.model,
            history=sync_history,
            num_clients=num_clients,
        )
    target = TARGET_FRACTION * sync_history.best_accuracy

    max_events = EVENT_BUDGET_FACTOR * rounds * num_clients
    rows = []
    data: dict = {
        "target_accuracy": target,
        "sync_best_accuracy": sync_history.best_accuracy,
        "sync_seconds_to_target": sync_history.seconds_to_accuracy(target),
        "rows": [],
    }
    for k in K_VALUES:
        server, clients, run_seed = harness.build_federation(
            DATASET, method, ALPHA, num_clients,
            seed_extra=("engine", "fedbuff", k),
        )
        aggregator = FedBuffAggregator(buffer_size=k, staleness_exponent=0.0)
        with harness.make_run_backend() as backend:
            log = run_async_federated_training(
                server,
                clients,
                aggregator,
                max_events=max_events,
                seed=run_seed + 1,
                timing=timing,
                backend=backend,
                eval_every=async_eval_every(aggregator, max_events, rounds),
            )
        if harness.telemetry is not None:
            harness.telemetry.record_run(
                f"{DATASET}/fedbuff_k{k}",
                server=server,
                model=server.model,
                history=log,
                num_clients=num_clients,
            )
        seconds_to_target = log.seconds_to_accuracy(target)
        rows.append(
            [
                f"{k}",
                f"{100 * log.best_accuracy:.2f}",
                f"{log.final_version}",
                f"{log.total_client_seconds:.4g}",
                "—" if seconds_to_target is None else f"{seconds_to_target:.4g}",
            ]
        )
        data["rows"].append(
            {
                "buffer_size": k,
                "best_accuracy": log.best_accuracy,
                "model_versions": log.final_version,
                "total_client_seconds": log.total_client_seconds,
                "seconds_to_target": seconds_to_target,
            }
        )
    return ExperimentReport(
        experiment_id="fedbuff_sweep",
        title=(
            f"FedBuff buffer-size sweep, {num_clients} clients, "
            f"{int(100 * SLOW_FRACTION)}% stragglers at {SLOWDOWN:g}x "
            f"(target = {100 * target:.2f}% accuracy)"
        ),
        table=accuracy_table(
            ["K", "best acc %", "versions", "client seconds", "secs to target"],
            rows,
        ),
        data=data,
    )
