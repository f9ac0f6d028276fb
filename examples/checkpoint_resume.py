"""Restartable federation: kill a run mid-stream, resume it bitwise.

Both run loops checkpoint through one format (:mod:`repro.fl.checkpoint`):
the asynchronous engine's complete scheduler state — virtual clock, event
queue, RNG streams, FedBuff buffer — and, as its simplest case, the
synchronous loop's round records and RNG streams. An interrupted campaign
resumes to the *bitwise-identical* records and final weights of an
uninterrupted one. This script demonstrates the real restart workflow for
each loop:

1. run with checkpointing and "crash" partway through (here: an
   exception from the ``on_event``/``on_round`` hook stands in for a dead
   process);
2. a fresh process rebuilds the same federation from configuration
   (everything in :mod:`repro.testbed` is deterministic in the seed);
3. ``resume_async_federated_training`` / ``resume_sync_federated_training``
   restore everything the run had mutated and finish it.

The async leg checkpoints every event. Each save writes a model version
once and later saves refer to the payload that stored it, so the leg
checks that the checkpoint it crashes on names a pending version an
earlier save stored: the resume then reads across generations. The sync
leg saves every other round and arms ``emergency_checkpoint``, so the
crash handler writes the last completed round on the way down, and the
resume keeps journaling into the same directory. The script exits
non-zero if either resumed run differs from its reference (event times,
clients, kinds, accuracies and billed client seconds for the async leg)
or the async crash left no cross-generation reference to resume across.

Run:  python examples/checkpoint_resume.py
"""

import json
import os
import sys
import tempfile

import numpy as np

from repro.engine.aggregators import FedBuffAggregator
from repro.engine.backends import ProcessPoolBackend
from repro.engine.runner import run_async_federated_training
from repro.fl.checkpoint import (
    resume_async_federated_training,
    resume_sync_federated_training,
)
from repro.fl.rounds import run_federated_training
from repro.fl.timing import TimingModel
from repro.testbed import tiny_federation

MAX_EVENTS = 18
KILL_AT = 7
ROUNDS = 6
KILL_ROUND = 3
SEED = 11
TIMING = TimingModel(speed_multipliers={0: 6.0})  # client 0 is a straggler


def make_aggregator():
    return FedBuffAggregator(buffer_size=3, staleness_exponent=0.0)


class SimulatedCrash(Exception):
    pass


def weights_equal(a: dict, b: dict) -> bool:
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


def versions_from_earlier_saves(checkpoint: str) -> list[int]:
    """Pending model versions the committed manifest reads from a payload
    an earlier save wrote (not the one its own save wrote)."""
    with open(os.path.join(checkpoint, "async_state.json")) as handle:
        manifest = json.load(handle)
    return [
        version
        for version in manifest["snapshots"]
        if manifest["versions"][str(version)]["file"] != manifest["payload"]
    ]


def event_signature(log) -> list[tuple]:
    return [
        (
            r.virtual_time, r.client_id, r.kind, r.test_accuracy,
            r.client_seconds, r.cumulative_client_seconds,
        )
        for r in log.records
    ]


def async_leg() -> bool:
    # Reference: the uninterrupted run.
    server, clients = tiny_federation(seed=SEED)
    reference = run_async_federated_training(
        server, clients, make_aggregator(),
        max_events=MAX_EVENTS, seed=SEED, timing=TIMING,
    )
    reference_state = {k: v.copy() for k, v in server.global_state.items()}

    # The same run, checkpointing every event and dying at event KILL_AT.
    checkpoint = tempfile.mkdtemp(prefix="repro-async-ckpt-")

    def crash(record):
        if record.event_index == KILL_AT:
            raise SimulatedCrash

    server, clients = tiny_federation(seed=SEED)
    try:
        run_async_federated_training(
            server, clients, make_aggregator(),
            max_events=MAX_EVENTS, seed=SEED, timing=TIMING,
            checkpoint_path=checkpoint, checkpoint_every=1, on_event=crash,
        )
    except SimulatedCrash:
        print(f"async: crashed after event {KILL_AT}; checkpoint {checkpoint}")
    inherited = versions_from_earlier_saves(checkpoint)
    print(f"async: pending versions stored by earlier saves: {inherited}")

    # "New process": rebuild the federation from config, resume from disk.
    # Checkpoints are backend-invariant — finish the serial run's work on
    # the shared-memory process backend for good measure.
    server, clients = tiny_federation(seed=SEED)
    with ProcessPoolBackend(max_workers=2) as backend:
        resumed = resume_async_federated_training(
            checkpoint, server, clients, make_aggregator(),
            timing=TIMING, backend=backend,
        )

    logs_match = event_signature(reference) == event_signature(resumed)
    weights_match = weights_equal(reference_state, server.global_state)
    print(f"async: events {len(resumed)} (reference {len(reference)})")
    print(f"async: event logs bitwise identical:    {logs_match}")
    print(f"async: final weights bitwise identical: {weights_match}")
    print(
        f"async: final accuracy {resumed.final_accuracy:.4f} after "
        f"{resumed.final_version} model versions"
    )
    return bool(inherited) and logs_match and weights_match


def sync_leg() -> bool:
    server, clients = tiny_federation(seed=SEED)
    reference = run_federated_training(
        server, clients, rounds=ROUNDS, seed=SEED, timing=TIMING
    )
    reference_state = {k: v.copy() for k, v in server.global_state.items()}

    # Periodic saves after even rounds only: the round-KILL_ROUND state on
    # disk comes from the crash handler's emergency checkpoint.
    checkpoint = tempfile.mkdtemp(prefix="repro-sync-ckpt-")

    def crash(record):
        if record.round_index == KILL_ROUND:
            raise SimulatedCrash

    server, clients = tiny_federation(seed=SEED)
    try:
        run_federated_training(
            server, clients, rounds=ROUNDS, seed=SEED, timing=TIMING,
            checkpoint_path=checkpoint, checkpoint_every=2,
            emergency_checkpoint=True, on_round=crash,
        )
    except SimulatedCrash:
        print(
            f"sync:  crashed after round {KILL_ROUND}; "
            f"checkpoint {checkpoint}"
        )

    # Resume and keep checkpointing every round into the same directory.
    server, clients = tiny_federation(seed=SEED)
    resumed = resume_sync_federated_training(
        checkpoint, server, clients, timing=TIMING,
        checkpoint_path=checkpoint, checkpoint_every=1,
    )
    accuracies_match = (
        resumed.accuracies.tolist() == reference.accuracies.tolist()
    )
    weights_match = weights_equal(reference_state, server.global_state)
    print(
        f"sync:  rounds {len(resumed.records)} "
        f"(reference {len(reference.records)})"
    )
    print(f"sync:  accuracies bitwise identical:    {accuracies_match}")
    print(f"sync:  final weights bitwise identical: {weights_match}")
    return accuracies_match and weights_match


def main() -> int:
    ok = async_leg()
    ok = sync_leg() and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
