"""Data substrate: synthetic dataset worlds and non-IID partitioning.

The paper evaluates on CIFAR-10/100 (target), Small ImageNet (pretraining
source) and Google Speech Commands (cross-domain target). None of those are
downloadable offline, so this package provides procedural stand-ins built on
a shared :class:`~repro.data.worlds.LatentWorld` (see DESIGN.md for why the
substitution preserves the behaviours under study), plus the Dirichlet
non-IID partitioner the paper uses to distribute client data.
"""

from repro.data.dataset import ArrayDataset, DataLoader, Dataset, Subset
from repro.data.worlds import ClassDomain, LatentWorld, SampleKind
from repro.data.synthetic import (
    DomainSpec,
    make_cifar10,
    make_cifar100,
    make_small_imagenet,
    make_speech_commands,
)
from repro.data.partition import (
    dirichlet_partition,
    iid_partition,
    partition_statistics,
)

__all__ = [
    "Dataset",
    "ArrayDataset",
    "Subset",
    "DataLoader",
    "LatentWorld",
    "ClassDomain",
    "SampleKind",
    "DomainSpec",
    "make_cifar10",
    "make_cifar100",
    "make_small_imagenet",
    "make_speech_commands",
    "dirichlet_partition",
    "iid_partition",
    "partition_statistics",
]
