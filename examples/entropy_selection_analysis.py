"""Anatomy of entropy-based data selection (the paper's Fig. 1 + §III-E).

Shows, on one client's non-IID shard:

1. how the hardened softmax temperature reshapes the entropy distribution,
2. which *kinds* of samples (easy / boundary / label-noise) the selector
   actually picks at Pds = 10%, and
3. why ρ < 1 matters: the sample kinds selected at ρ = 0.1 vs ρ = 10.

Run:  python examples/entropy_selection_analysis.py
"""

import numpy as np

from repro.core.fedft_eds import build_model
from repro.data import synthetic
from repro.data.dataset import ArrayDataset
from repro.data.worlds import SampleKind, SampleMix
from repro.fl.selection import EntropySelector
from repro.pretrain.pretrainer import PretrainConfig, pretrain_model
from repro.utils import format_table

SEED = 0
KIND_NAMES = {0: "easy", 1: "boundary", 2: "noisy-label"}


def main() -> None:
    world = synthetic.make_vision_world(seed=SEED)
    source = synthetic.make_small_imagenet(world, seed=SEED)
    target = synthetic.make_cifar10(world, seed=SEED, train_size=500, test_size=200)

    # One client's data, keeping the generator's per-sample kind labels.
    x, y, kinds = target.domain.sample(
        400,
        np.random.default_rng(SEED + 1),
        mix=SampleMix(boundary=0.3, label_noise=0.05),
    )
    shard = ArrayDataset(x, y)

    model = build_model("mlp", target.input_shape, source.num_classes,
                        np.random.default_rng(SEED))
    print("Pretraining the scoring model on the source domain...")
    pretrain_model(model, source, PretrainConfig(epochs=6, seed=SEED))
    model.head = model.new_head(target.num_classes, np.random.default_rng(1))
    model.eval()

    print("\n1) Entropy distribution vs temperature (Fig. 1):")
    rows = []
    for rho in (1.0, 0.5, 0.1):
        scores = EntropySelector(temperature=rho).scores(model, shard)
        q = np.quantile(scores, [0.5, 0.9])
        rows.append([f"{rho:.1f}", f"{scores.mean():.3f}",
                     f"{q[0]:.3f}", f"{q[1]:.3f}"])
    print(format_table(["rho", "mean", "median", "p90"], rows))

    print("\n2) What gets selected at Pds=10% (hardened, rho=0.1):")
    for rho in (0.1, 10.0):
        # The selector needs no RNG: it keeps the top-entropy 10%.
        chosen = EntropySelector(temperature=rho).select(model, shard, 0.1, None)
        counts = np.bincount(kinds[chosen], minlength=3)
        base = np.bincount(kinds, minlength=3)
        rows = [
            [
                KIND_NAMES[k],
                f"{base[k]}",
                f"{counts[k]}",
                f"{counts[k] / max(1, len(chosen)):.0%}",
            ]
            for k in range(3)
        ]
        print(f"\n   rho = {rho}:")
        print(format_table(["kind", "in shard", "selected", "share"], rows))

    print(
        "\nWith rho < 1, confident easy samples collapse to ~zero entropy and"
        "\nthe informative boundary samples dominate the selected set — the"
        "\nmechanism behind FedFT-EDS's 'not all data is beneficial' result."
    )


if __name__ == "__main__":
    main()
