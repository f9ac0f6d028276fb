"""Extension demo: capability-matched fine-tuning levels per client.

The paper motivates workload reduction with heterogeneous edge devices.
This extension lets every client fine-tune from its *own* level — weak
devices train only the classifier, strong ones train from the `mid` group —
and the server merges each parameter over the clients that trained it.

Run:  python examples/heterogeneous_tiers.py
"""

import numpy as np

from repro.core.fedft_eds import build_model
from repro.core.heterogeneous import (
    DEFAULT_TIERS,
    TieredClient,
    aggregate_heterogeneous,
    assign_tiers,
)
from repro.core.partial import adapt_to_task
from repro.data import synthetic
from repro.data.partition import dirichlet_partition
from repro.fl.selection import EntropySelector
from repro.fl.server import Server
from repro.fl.strategies import LocalSolver
from repro.pretrain.pretrainer import PretrainConfig, pretrain_model
from repro.utils import format_table

SEED = 0
CLIENTS = 12
ROUNDS = 10


def main() -> None:
    world = synthetic.make_vision_world(seed=SEED)
    source = synthetic.make_small_imagenet(world, seed=SEED)
    target = synthetic.make_cifar10(world, seed=SEED, train_size=1200, test_size=400)

    model = build_model("mlp", target.input_shape, source.num_classes,
                        np.random.default_rng(SEED))
    print("Pretraining the global model...")
    pretrain_model(model, source, PretrainConfig(epochs=6, seed=SEED))
    adapt_to_task(model, target.num_classes, np.random.default_rng(SEED + 1))

    rng = np.random.default_rng(SEED + 2)
    tiers = assign_tiers(CLIENTS, DEFAULT_TIERS, rng, [0.4, 0.4, 0.2])
    shards = dirichlet_partition(target.train.labels, CLIENTS, 0.1, rng)
    clients = [
        TieredClient(
            client_id=i,
            dataset=target.train.subset(shard),
            selector=EntropySelector(temperature=0.1),
            solver=LocalSolver(lr=0.1, momentum=0.5, batch_size=32),
            selection_fraction=0.5,
            epochs=3,
            rng=np.random.default_rng(SEED + 10 + i),
            tier=tiers[i],
        )
        for i, shard in enumerate(shards)
    ]
    print(format_table(
        ["tier", "clients", "trains"],
        [
            [t.name, sum(c.tier.name == t.name for c in clients), t.level]
            for t in DEFAULT_TIERS
        ],
    ))

    server = Server(model, target.test)
    print(f"\nRunning {ROUNDS} heterogeneous rounds...")
    for round_index in range(1, ROUNDS + 1):
        broadcast = server.broadcast()
        updates = [c.run_round(server.model, broadcast) for c in clients]
        server.set_global_state(aggregate_heterogeneous(broadcast, updates))
        acc = server.evaluate()
        uploaded = sorted({len(u.theta) for u in updates})
        print(f"  round {round_index:2d}: acc={100 * acc:.1f}%  "
              f"uploaded key-set sizes per tier: {uploaded}")


if __name__ == "__main__":
    main()
