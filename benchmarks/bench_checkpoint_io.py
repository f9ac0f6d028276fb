"""Benchmark: incremental checkpoint I/O is O(1) per save in event count.

Periodic async checkpoints used to rewrite the model, every pending
snapshot and the *entire* event log on each save — linear bytes per save,
quadratic total I/O over a run at tight cadences. The log-structured
format (`repro.fl.checkpoint`, DESIGN.md "Checkpoint format")
appends new event records to a JSONL journal, writes each model version's
θ once (later saves refer to the payload that stored it), and rewrites
only the manifest plus one payload of new versions and the buffer.

This benchmark runs the same checkpoint-every-event federation twice:

1. **incremental** — the production path; per-save bytes written must stay
   flat as the event log grows;
2. **full-rewrite** — `save_async_checkpoint(..., full=True)` after each
   event, reproducing the old rewrite-everything cost; per-save bytes must
   grow linearly with the journal, and dominate the incremental path late
   in the run.

The measured byte counters are attached to the pytest-benchmark JSON
(``extra_info``) so the CI artifact records the perf trajectory.
"""

import json
import os

import numpy as np
from conftest import run_once

from repro.engine.aggregators import FedAsyncAggregator
from repro.engine.runner import run_async_federated_training
from repro.fl.checkpoint import load_async_checkpoint, save_async_checkpoint
from repro.fl.timing import TimingModel
from repro.testbed import tiny_federation

MAX_EVENTS = 30


def _save_sizes(path):
    """(payload bytes, manifest bytes, journal bytes, snapshot bytes) of
    the committed save.

    Payload bytes count the files the save created: its own payload, plus
    the server base when it wrote one (the base's generation suffix
    matches the manifest's); payloads of earlier saves that it only
    refers to are not counted. Snapshot bytes are the arrays its payload
    stores for model versions other than the server's current one.
    """
    with open(os.path.join(path, "async_state.json")) as fh:
        manifest = json.load(fh)
    payload = os.path.join(path, manifest["payload"])
    payloads = os.path.getsize(payload)
    base = manifest["server_base"]["file"]
    if base.endswith(f"-{manifest['generation']}.npz"):
        payloads += os.path.getsize(os.path.join(path, base))
    current = str(manifest["server_round_index"])
    with np.load(payload) as archive:
        snapshots = sum(
            archive[name].nbytes
            for name in archive.files
            if name.partition("::")[0] not in ("buffer", current)
        )
    journal = os.path.getsize(os.path.join(path, manifest["journal"]["file"]))
    manifest_bytes = os.path.getsize(os.path.join(path, "async_state.json"))
    return payloads, manifest_bytes, journal, snapshots


def _run_checkpointed(path, full):
    """Run the federation checkpointing every event; return per-save bytes.

    ``full=False`` measures the incremental path as driven by the engine
    itself. ``full=True`` reloads and fully rewrites the directory after
    every event — byte-for-byte the old rewrite-everything behaviour
    (manifest carrying the whole record list ≙ journal rewritten whole).
    """
    per_save = []
    journal_sizes = []
    snapshot_bytes = []
    last_journal_size = 0

    def on_event(record):
        nonlocal last_journal_size
        if full:
            state = load_async_checkpoint(path)
            save_async_checkpoint(path, state, full=True)
        payload_bytes, manifest_bytes, size, snapshots = _save_sizes(path)
        journal_written = size if full else max(0, size - last_journal_size)
        last_journal_size = size
        journal_sizes.append(size)
        snapshot_bytes.append(snapshots)
        per_save.append(journal_written + manifest_bytes + payload_bytes)

    server, clients = tiny_federation()
    run_async_federated_training(
        server,
        clients,
        FedAsyncAggregator(mixing=0.4, staleness_exponent=0.0),
        max_events=MAX_EVENTS,
        seed=11,
        timing=TimingModel(speed_multipliers={0: 6.0}),
        checkpoint_path=path,
        checkpoint_every=1,
        on_event=on_event,
    )
    return per_save, journal_sizes, snapshot_bytes


def test_checkpoint_bytes_per_save_flat_vs_linear(benchmark, tmp_path):
    incremental, journal_sizes, inc_snapshots = run_once(
        benchmark, lambda: _run_checkpointed(os.path.join(tmp_path, "inc"), False)
    )
    full, _, full_snapshots = _run_checkpointed(
        os.path.join(tmp_path, "full"), True
    )
    assert len(incremental) == len(full) == MAX_EVENTS

    head = slice(2, 7)          # past startup, pending queue filled
    tail = slice(-5, None)
    inc_head = sum(incremental[head]) / 5
    inc_tail = sum(incremental[tail]) / 5
    full_head = sum(full[head]) / 5
    full_tail = sum(full[tail]) / 5
    journal_tail = sum(journal_sizes[tail]) / 5

    # 1. incremental per-save bytes are flat in event count (pending-queue
    #    contents wobble a little; a linear term would not stay this close)
    assert inc_tail < inc_head * 1.25, (inc_head, inc_tail)
    # 2. the full-rewrite path grows with the journal and, late in the run,
    #    pays (at least most of) the whole journal per save on top of what
    #    the incremental path writes
    assert full_tail > full_head * 1.10, (full_head, full_tail)
    assert full_tail - inc_tail > 0.5 * journal_tail, (
        full_tail, inc_tail, journal_tail,
    )

    benchmark.extra_info["incremental_per_save_head"] = inc_head
    benchmark.extra_info["incremental_per_save_tail"] = inc_tail
    benchmark.extra_info["full_per_save_head"] = full_head
    benchmark.extra_info["full_per_save_tail"] = full_tail
    benchmark.extra_info["incremental_total_bytes"] = sum(incremental)
    benchmark.extra_info["full_total_bytes"] = sum(full)
    # snapshot bytes each save wrote: versions other than the current one
    benchmark.extra_info["incremental_snapshot_bytes_per_save"] = inc_snapshots
    benchmark.extra_info["full_snapshot_bytes_per_save"] = full_snapshots
