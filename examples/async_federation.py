"""Asynchronous federation: FedAsync and FedBuff vs lock-step FedAvg.

A tour of the event-driven engine through the one-call API: the same
FedFT-EDS pipeline runs in synchronous mode and in the two asynchronous
modes, with half the clients slowed 8x. Every run uses the process
backend: client rounds execute in long-lived worker processes that read
weights and shards from shared memory, so local training overlaps on your
cores while the virtual clock keeps the simulation deterministic.

Drop ``backend="process"`` to run the same rounds serially in this
process — results are bitwise identical either way. For interrupting and
resuming a run, see ``examples/checkpoint_resume.py``.

Run:  python examples/async_federation.py
"""

from repro.core.fedft_eds import FedFTEDSConfig, run_fedft_eds
from repro.fl.timing import TimingModel, straggler_multipliers
from repro.utils import format_table

CLIENTS = 10
ROUNDS = 8
SLOWDOWN = 8.0


def main() -> None:
    timing = TimingModel(
        speed_multipliers=straggler_multipliers(CLIENTS, 0.5, SLOWDOWN, seed=0)
    )
    common = dict(
        seed=0,
        num_clients=CLIENTS,
        rounds=ROUNDS,
        train_size=600,
        test_size=300,
        pretrain_epochs=2,
        local_epochs=2,
        image_size=8,
        timing=timing,
        backend="process",
        max_workers=2,
    )
    configs = [
        ("sync FedAvg-style rounds", FedFTEDSConfig(mode="sync", **common)),
        (
            "FedAsync (α=0.4)",
            FedFTEDSConfig(
                mode="fedasync",
                async_mixing=0.4,
                staleness_exponent=0.0,
                max_events=3 * ROUNDS * CLIENTS,
                **common,
            ),
        ),
        (
            "FedBuff (K=3)",
            FedFTEDSConfig(
                mode="fedbuff",
                buffer_size=3,
                staleness_exponent=0.0,
                max_events=3 * ROUNDS * CLIENTS,
                **common,
            ),
        ),
    ]
    print(
        f"Running {len(configs)} modes ({CLIENTS} clients, half slowed "
        f"{SLOWDOWN:g}x, process backend)...\n"
    )
    rows = []
    for label, config in configs:
        result = run_fedft_eds(config)
        history = result.history
        rows.append(
            [
                label,
                f"{100 * history.best_accuracy:.2f}",
                f"{history.total_client_seconds:.4g}",
                f"{result.efficiency.efficiency:.1f}",
            ]
        )
    print(
        format_table(
            ["Mode", "best acc %", "client seconds", "acc%/s"],
            rows,
            title="Async federation under stragglers (synthetic CIFAR-10)",
        )
    )
    print(
        "\nThe async modes sidestep the straggler tax: aggregation keeps"
        "\nmoving on fast clients' updates while the slow half finishes at"
        "\nits own pace on the virtual clock."
    )


if __name__ == "__main__":
    main()
