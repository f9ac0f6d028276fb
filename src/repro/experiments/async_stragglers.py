"""Async engine vs synchronous baseline under Table-III stragglers.

The paper's straggler story (Table III) models heavyweight FL as lost
participation. The event engine lets us ask the sharper question: with the
*same* heterogeneous device speeds, how much client time does each training
mode need to reach the same accuracy? Synchronous rounds pay for every
straggler every round; FedAsync/FedBuff keep aggregating fast clients'
updates while stragglers finish at their own pace on the virtual clock.

Each mode runs the FedFT-EDS client pool with identical shards and
identical per-client speed tiers (half the pool slowed ``SLOWDOWN``×). The
async modes get a larger *event* budget (``EVENT_BUDGET_FACTOR × rounds ×
num_clients``): async completions come overwhelmingly from the fast tier
and are ~``SLOWDOWN``× cheaper in simulated seconds, and the race is
decided in seconds, not events. Staleness discounting is disabled here —
with a 10× speed spread the stragglers' updates are the only carriers of
their shards' classes, and discounting them caps accuracy well below the
synchronous baseline.

The modes themselves are this experiment's subject, so the harness
``mode`` is ignored; every run executes client rounds on the harness
``backend`` (serial or shared-memory process — results are bitwise
identical either way).
"""

from __future__ import annotations

from repro.core.fedft_eds import MODES
from repro.engine.aggregators import make_aggregator
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
#: Table-III-style tier split: half the pool is this many times slower.
SLOW_FRACTION = 0.5
SLOWDOWN = 10.0
#: fraction of the sync best accuracy that defines the time-to-target race
TARGET_FRACTION = 0.8
#: async event budget relative to the sync run's total completions
EVENT_BUDGET_FACTOR = 4
#: FedAsync mixing rate α (no staleness discount, see module docstring)
FEDASYNC_MIXING = 0.4


def run(
    harness: ExperimentHarness, context: dict | None = None
) -> ExperimentReport:
    """Race the three training modes to a common accuracy target."""
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

    histories = {}
    for mode in MODES:
        server, clients, run_seed = harness.build_federation(
            DATASET, method, ALPHA, num_clients, seed_extra=("engine", mode)
        )
        with harness.make_run_backend() as backend:
            if mode == "sync":
                histories[mode] = run_federated_training(
                    server,
                    clients,
                    rounds=rounds,
                    seed=run_seed + 1,
                    timing=timing,
                    backend=backend,
                )
            else:
                aggregator = make_aggregator(
                    mode,
                    mixing=FEDASYNC_MIXING,
                    staleness_exponent=0.0,
                    buffer_size=max(2, num_clients // 6),
                )
                max_events = EVENT_BUDGET_FACTOR * rounds * num_clients
                eval_every = async_eval_every(aggregator, max_events, rounds)
                histories[mode] = run_async_federated_training(
                    server,
                    clients,
                    aggregator,
                    max_events=max_events,
                    seed=run_seed + 1,
                    timing=timing,
                    backend=backend,
                    eval_every=eval_every,
                )
        if harness.telemetry is not None:
            harness.telemetry.record_run(
                f"{DATASET}/{mode}",
                server=server,
                model=server.model,
                history=histories[mode],
                num_clients=num_clients,
            )

    target = TARGET_FRACTION * histories["sync"].best_accuracy
    rows = []
    data: dict = {"target_accuracy": target, "rows": []}
    for mode in MODES:
        history = histories[mode]
        seconds_to_target = history.seconds_to_accuracy(target)
        rows.append(
            [
                mode,
                f"{100 * history.best_accuracy:.2f}",
                f"{history.total_client_seconds:.4g}",
                "—" if seconds_to_target is None else f"{seconds_to_target:.4g}",
            ]
        )
        data["rows"].append(
            {
                "mode": mode,
                "best_accuracy": history.best_accuracy,
                "total_client_seconds": history.total_client_seconds,
                "seconds_to_target": seconds_to_target,
            }
        )
    return ExperimentReport(
        experiment_id="async_stragglers",
        title=(
            f"Async vs sync engine, {num_clients} clients, "
            f"{int(100 * SLOW_FRACTION)}% stragglers at {SLOWDOWN:g}x slowdown "
            f"(target = {100 * target:.2f}% accuracy)"
        ),
        table=accuracy_table(
            ["Mode", "best acc %", "client seconds", "secs to target"], rows
        ),
        data=data,
    )
