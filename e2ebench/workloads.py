"""The benchmark's workloads, and the child process that runs one
repetition of one of them.

Run as ``python -m e2ebench.workloads --workload NAME --seed N --index I
--trace 0|1 --tmp DIR --result FILE`` from the root of a checkout with
``src`` on ``PYTHONPATH``. :mod:`e2ebench.run` starts one such process per
repetition, each in its own process group, so every repetition starts
cold, the way a user's experiment process does.

A *repetition* is one complete pass of a workload through the public
API, from its first call into the program to the return of its last.
It measures:

- ``setup_s``: importing the program, plus every stretch of the
  repetition spent before a federated run loop (``run_federated_training``
  / ``run_async_federated_training``) was entered: datasets, pretraining
  or store loads, partitions, model, federation and backend
  construction, once per run the workload makes;
- ``updates_per_s``: client updates completed (sync participations or
  async completion events) over the wall time spent inside the run
  loops, first rounds included;
- ``peak_rss_kb``: peak resident memory (``VmHWM``) of this process plus
  that of every process it started (the backend's workers), each read
  just before the backend shuts it down.

The two timings are recorded as measured; the runner scales them to a
reference host speed (:mod:`e2ebench.hostspeed`).

It also records what the runner checks: updates completed, the digest of
every run's accuracy history and final θ, and any ``faults.*`` counter
that moved. A traced repetition (``--trace 1``) adds the per-layer
figures of :func:`layer_figures` and writes its spans as Chrome trace
JSON next to the result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import inspect
import json
import os
import sys
import time
import traceback

from e2ebench import layers, procs

NPROC = os.cpu_count() or 1


# ---------------------------------------------------------------------------
# digests


def arrays_digest(arrays: dict) -> str:
    """Digest of named arrays: name, dtype, shape and bytes, sorted by name."""
    import numpy as np

    h = hashlib.blake2b(digest_size=16)
    for name in sorted(arrays):
        value = np.ascontiguousarray(arrays[name])
        h.update(name.encode())
        h.update(str(value.dtype).encode())
        h.update(repr(value.shape).encode())
        h.update(value.tobytes())
    return h.hexdigest()


def run_digest(accuracies, theta: dict) -> str:
    """Digest of one federated run: its accuracy history and final θ."""
    import numpy as np

    h = hashlib.blake2b(digest_size=16)
    h.update(np.asarray(accuracies, dtype=np.float64).tobytes())
    h.update(arrays_digest(theta).encode())
    return h.hexdigest()


def combine_digests(digests: list[str]) -> str:
    h = hashlib.blake2b(digest_size=16)
    for digest in digests:
        h.update(digest.encode())
    return h.hexdigest()


def server_digest(server, history) -> str:
    """:func:`run_digest` of a finished run's server and history."""
    from repro.nn.serialization import theta_keys

    state = server.global_state
    theta = {k: state[k] for k in theta_keys(server.model)}
    return run_digest([r.test_accuracy for r in history.records], theta)


def count_updates(history) -> int:
    """Client updates a run completed: sync participations, or async
    completion events (server-side flush records carry client id -1)."""
    records = history.records
    if records and hasattr(records[0], "participants"):
        return sum(len(r.participants) for r in records)
    return sum(1 for r in records if r.client_id >= 0 and r.kind != "drop")


def exported_counters() -> dict[str, float]:
    """Flat view of the program's exported counter groups (worker-side
    counts already merged in by the backends)."""
    from repro.obs.metrics import exported_groups

    out: dict[str, float] = {}
    for group in exported_groups():
        out.update(group.flat())
    return out


# ---------------------------------------------------------------------------
# the run-loop probe


class LoopProbe:
    """Wraps the two federated run loops to time and check every run.

    Records, per run: loop entry and exit times, updates completed, model
    versions produced, the run digest, the counter groups of the run's
    backend, segment pool and feature runtime, and the solver plan-cache
    size. Also sums the peak memory of a process backend's workers just
    before it shuts them down.
    """

    def __init__(self):
        self.runs: list[dict] = []
        self.worker_peak_kb = 0
        self.patcher = layers.Patcher()

    def install(self) -> "LoopProbe":
        from repro.engine import runner
        from repro.engine.backends import ProcessPoolBackend
        from repro.fl import rounds

        for module, name in (
            (rounds, "run_federated_training"),
            (runner, "run_async_federated_training"),
        ):
            original = vars(module)[name]
            self.patcher.rebind(original, self._wrap_loop(original))
        shutdown = vars(ProcessPoolBackend)["shutdown"]

        def shutdown_probe(backend):
            self.worker_peak_kb += sum(
                procs.peak_rss_kb(pid) for pid in procs.descendants(os.getpid())
            )
            return shutdown(backend)

        self.patcher.set(ProcessPoolBackend, "shutdown", shutdown_probe)
        return self

    def uninstall(self) -> None:
        self.patcher.restore()

    def _wrap_loop(self, original):
        signature = inspect.signature(original)

        def probe(*args, **kwargs):
            from repro.fl import fastpath

            bound = signature.bind(*args, **kwargs).arguments
            server = bound["server"]
            backend = bound.get("backend")
            runtime = bound.get("feature_runtime")
            if runtime is None:
                runtime = getattr(backend, "feature_runtime", None)
            groups = {
                "backend": getattr(backend, "stats", None),
                "pool": getattr(
                    getattr(backend, "segment_pool", None), "stats", None
                ),
                "features": getattr(runtime, "stats", None),
            }
            before = {k: dict(g) for k, g in groups.items() if g is not None}
            version = server.round_index
            entry = time.perf_counter()
            history = original(*args, **kwargs)
            exit_ = time.perf_counter()
            self.runs.append(
                {
                    "entry": entry,
                    "exit": exit_,
                    "updates": count_updates(history),
                    "versions": server.round_index - version,
                    "digest": server_digest(server, history),
                    "groups": {k: (before[k], dict(groups[k])) for k in before},
                    "plans_bytes": fastpath.plan_cache_nbytes(),
                }
            )
            # The program resumes here: the probe's own work is no one's.
            self.runs[-1]["resume"] = time.perf_counter()
            return history

        return probe


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One benchmark workload: what a repetition runs, and its checks."""

    name = ""
    #: the program modules a repetition calls into; importing them is
    #: part of its set-up time
    modules = ("repro.core",)
    #: client updates one repetition must complete
    scheduled_updates = 0
    #: whether the runner first runs one untimed repetition that the timed
    #: ones depend on (a primed artifact store)
    primed = False
    #: digest of every repetition at seed 0; a change means the program's
    #: results changed
    pinned_digest: str | None = None
    #: whether a repetition runs on every CPU (the process backend) rather
    #: than pinned to one
    parallel = False

    def __init__(self, seed: int, tmp: str):
        self.seed = seed
        self.tmp = tmp

    def run(self, index: int) -> None:
        raise NotImplementedError


class Table2Serial(Workload):
    """Table II's four Pds = 10 % rows on both CIFAR stand-ins, α = 0.1,
    ``default`` scale (10 clients, MLP, E = 5, 30 rounds), sync mode on
    the serial backend, library-default cold start without a store."""

    name = "table2_serial"
    modules = ("repro.experiments.common", "repro.experiments.table2")
    methods = ("fedavg_rds", "fedprox_rds", "fedft_rds", "fedft_eds")
    datasets = ("cifar10", "cifar100")
    scheduled_updates = 4 * 2 * 30 * 10
    pinned_digest = "be1c6bcec8eae7293c8ee2c2dc15f31e"

    def run(self, index: int) -> None:
        from repro.experiments.common import ExperimentHarness
        from repro.experiments.table2 import run_matrix

        with ExperimentHarness(scale="default", seed=self.seed) as harness:
            run_matrix(
                harness, methods=self.methods, datasets=self.datasets,
                alphas=(0.1,),
            )


class Scale512ProcessWarm(Workload):
    """FedFT-EDS (Pds = 10 %, E = 5, Diri(0.1)) over 512 clients of 30
    samples each, sync mode on the process backend with one worker per
    core, warm-started from the store an untimed priming run filled."""

    name = "scale512_process_warm"
    num_clients = 512
    rounds = 10
    scheduled_updates = num_clients * rounds
    primed = True
    parallel = True
    pinned_digest = "d4a65e6fb11134fc06a6e3b551fcdfb9"

    def run(self, index: int) -> None:
        from repro.core import FedFTEDSConfig, run_fedft_eds

        run_fedft_eds(
            FedFTEDSConfig(
                seed=self.seed,
                num_clients=self.num_clients,
                train_size=30 * self.num_clients,
                rounds=self.rounds,
                local_epochs=5,
                alpha=0.1,
                selection="eds",
                selection_fraction=0.1,
                backend="process",
                max_workers=NPROC,
                # shared by the priming run and every repetition
                cache_dir=os.path.join(self.tmp, "store"),
            )
        )


class FedBuff100Ckpt(Workload):
    """FedBuff (K = 4) FedFT-EDS over Table III's 100-client pool on the
    serial backend: 3,000 events, evaluation every 10 model versions, a
    checkpoint every 50 events, cold start into a fresh store."""

    name = "fedbuff100_ckpt"
    num_clients = 100
    max_events = 3000
    scheduled_updates = max_events
    pinned_digest = "cf3df78df8e8f184e98679b050660712"

    def run(self, index: int) -> None:
        from repro.core import FedFTEDSConfig, run_fedft_eds

        root = os.path.join(self.tmp, f"rep{index}")
        run_fedft_eds(
            FedFTEDSConfig(
                seed=self.seed,
                num_clients=self.num_clients,
                train_size=3000,
                local_epochs=5,
                alpha=0.1,
                selection="eds",
                selection_fraction=0.1,
                mode="fedbuff",
                buffer_size=4,
                max_events=self.max_events,
                eval_every=10,
                checkpoint_path=os.path.join(root, "ckpt"),
                checkpoint_every=50,
                cache_dir=os.path.join(root, "store"),
            )
        )


WORKLOADS = {
    cls.name: cls for cls in (Table2Serial, Scale512ProcessWarm, FedBuff100Ckpt)
}


# ---------------------------------------------------------------------------
# one repetition


def measure(workload: Workload, index: int, traced: bool) -> tuple[dict, list]:
    """Run one repetition; returns its record and (if traced) its spans.

    Never raises for a failure of the program: the traceback becomes the
    record's ``error``.
    """
    start = time.perf_counter()
    for module in workload.modules:
        importlib.import_module(module)
    import_s = time.perf_counter() - start
    tracer = layers.Tracer().install() if traced else None
    # After the tracer, so the probe times the loop span from outside.
    probe = LoopProbe().install()
    counters_before = exported_counters()
    log = None
    if tracer is not None:
        log = tracer.log = layers.SpanLog()
        root = log.begin("repetition", "other")
    error = None
    start = time.perf_counter()
    try:
        workload.run(index)
    except Exception:
        error = traceback.format_exc()
    end = time.perf_counter()
    if log is not None:
        log.end(root)
        tracer.log = None
    counters = {
        k: v - counters_before.get(k, 0) for k, v in exported_counters().items()
    }
    runs = probe.runs
    loop_s = sum(r["exit"] - r["entry"] for r in runs)
    updates = sum(r["updates"] for r in runs)
    # Set-up: the import, then each stretch before a run loop was entered.
    setup_s = import_s
    previous = start
    for r in runs:
        setup_s += r["entry"] - previous
        previous = r["resume"]
    record = {
        "index": index,
        "traced": traced,
        "error": error,
        "wall_s": end - start,
        "updates": updates,
        "setup_s": setup_s if runs else None,
        "updates_per_s": updates / loop_s if loop_s > 0 else None,
        "peak_rss_kb": procs.peak_rss_kb(os.getpid()) + probe.worker_peak_kb,
        "digest": combine_digests([r["digest"] for r in runs]),
        "faults": {
            k: v for k, v in counters.items() if k.startswith("faults.") and v
        },
    }
    if log is not None and error is None:
        record["layers"] = layer_figures(log, runs, counters)
    return record, ([log] if log is not None else [])


def layer_figures(log: layers.SpanLog, runs: list[dict], counters: dict) -> dict:
    """Per-layer figures of one traced repetition.

    Times are self times summed per bucket; counts come from span counts,
    from the exported counter groups (``counters``: this repetition's
    deltas) and from the run objects' own groups the probe captured.
    """
    roll = log.rollup()

    def self_s(bucket: str) -> float:
        return roll.get(bucket, {}).get("self_s", 0.0)

    def calls(bucket: str) -> int:
        return roll.get(bucket, {}).get("count", 0)

    def group_delta(kind: str, key: str) -> float:
        return sum(
            r["groups"][kind][1].get(key, 0) - r["groups"][kind][0].get(key, 0)
            for r in runs
            if kind in r["groups"]
        )

    def group_max(kind: str, key: str) -> float:
        return max(
            (r["groups"][kind][1].get(key, 0) for r in runs if kind in r["groups"]),
            default=0,
        )

    wall = log.ends[0] - log.starts[0]  # the repetition's root span
    lookups = calls("features.lookup")
    versions = sum(r["versions"] for r in runs)
    updates = sum(r["updates"] for r in runs)
    ckpt = roll.get("ckpt.save", {})
    return {
        "data.gen_s": self_s("data.gen"),
        "data.partition_s": self_s("data.partition"),
        "pretrain.s": self_s("pretrain"),
        "pretrain.calls": calls("pretrain"),
        "model.build_s": self_s("model"),
        "store.get_s": self_s("store.get"),
        "store.put_s": self_s("store.put"),
        "store.hits": counters.get("store.hits", 0),
        "store.misses": counters.get("store.misses", 0),
        "store.writes": counters.get("store.writes", 0),
        "store.bytes": counters.get("store.bytes", 0),
        "features.lookup_s": self_s("features.lookup"),
        "features.lookups": lookups,
        "features.build_s": self_s("features.build"),
        "features.builds": calls("features.build"),
        "features.hit_ratio": (
            group_delta("features", "hits") / lookups if lookups else 0.0
        ),
        "features.bytes": group_max("features", "bytes"),
        "selection.entropy_s": self_s("selection.entropy"),
        "selection.entropy_calls": calls("selection.entropy"),
        "selection.random_s": self_s("selection.random"),
        "solve.graph_s": self_s("solve.graph"),
        "solve.graph_updates": counters.get("solver.fused.graph_solves", 0),
        "solve.fused_s": self_s("solve.fused"),
        "solve.fused_updates": counters.get("solver.fused.fused_solves", 0),
        "solve.cohorts": counters.get("solver.cohort.cohorts", 0),
        "solve.cohort_lanes": counters.get("solver.cohort.cohort_clients", 0),
        "solve.client_self_s": self_s("solve.client"),
        "plans.bytes": max((r["plans_bytes"] for r in runs), default=0),
        "aggregate.s": self_s("aggregate"),
        "aggregate.calls": versions,
        "aggregate.lanes": updates / versions if versions else 0.0,
        "eval.s": self_s("eval"),
        "eval.calls": log.names.count("Server.evaluate"),
        "loop.self_s": self_s("loop"),
        "dispatch.submit_s": self_s("dispatch.submit"),
        "dispatch.wait_s": self_s("dispatch.wait"),
        "dispatch.teardown_s": self_s("dispatch.teardown"),
        "dispatch.jobs": group_delta("backend", "jobs"),
        "dispatch.job_bytes_max": group_max("backend", "max_job_payload_bytes"),
        "dispatch.state_publishes": group_delta("backend", "state_publishes"),
        "pool.publishes": group_delta("pool", "publishes"),
        "pool.bytes": group_max("pool", "bytes"),
        "faults.retries": counters.get("faults.retries", 0),
        "ckpt.save_s": self_s("ckpt.save"),
        "ckpt.saves": ckpt.get("count", 0),
        "ckpt.save_max_ms": ckpt.get("max_s", 0.0) * 1e3,
        "ckpt.bytes": counters.get("checkpoint.payload_bytes", 0)
        + counters.get("checkpoint.journal_bytes", 0),
        "other.s": self_s("other"),
        "trace.other_share": self_s("other") / wall if wall > 0 else 0.0,
        "trace.spans": len(log),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark repetition.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.tmp)
    record, logs = measure(workload, args.index, bool(args.trace))
    if logs:
        record["trace_file"] = args.result + ".trace.json"
        with open(record["trace_file"], "w") as fh:
            json.dump(layers.chrome_trace(logs), fh)
    with open(args.result, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
