#!/usr/bin/env python3
"""End-to-end benchmark of the FedFT-EDS reproduction.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload table2_serial --seed 0 --seconds 25 --trace 0

runs repetitions of one workload (see ``e2ebench/workloads.py`` and
``BENCHMARK.json``; ``--workload all`` runs each in turn) for ``--seconds``, each in a fresh child process in
its own process group, checks every repetition's output and prints each
metric with its unit and sample count. The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``;
with ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``, with ``--trace 1`` the per-layer ones. With
``--trace 1`` repetitions alternate traced and untraced, and the spans of
the traced ones are merged into ``.e2ebench/trace-<workload>.json``
(Chrome trace JSON, loads in Perfetto).

An operation is one client update. A repetition that raises, misses its
scheduled update count, moves a ``faults.*`` counter, produces a digest
other than the run's reference (the pinned digest at seed 0), leaves a
process behind or overruns the time limit counts all its updates as
failed. The exit status is 0 only when every check passed; 2 means no
repetition produced a result, and no result line is printed.

No process outlives a run: the runner is a child subreaper, so
everything a repetition starts is reparented to it and reaped before the
next repetition, and SIGTERM or SIGINT kills and reaps the running
repetition's process group before the runner exits. Durable state (the
artifact stores, checkpoints and ``REPRO_CACHE``) lives in a fresh
directory under ``.e2ebench/`` that is removed at exit.

Repetitions run with one BLAS thread per process (``OPENBLAS_NUM_THREADS``
and ``OMP_NUM_THREADS`` set to 1). Results are bitwise the same either way; on a
shared two-core VM the single-threaded runs are faster and their set-up
time spreads several times less from run to run.

The end-to-end timings are scaled to one host speed. A shared host runs
the same code up to twice as slowly and more, for minutes at a time, and
CPU time slows with wall time. So while each repetition runs, the runner
times a fixed probe on the CPUs the repetition runs on
(:mod:`e2ebench.hostspeed`), and ``setup_s`` and ``updates_per_s`` are
reported as they would read on a host on which the probe takes
:data:`e2ebench.hostspeed.REFERENCE_S`. The unscaled medians and the
probe time are printed as well. So that the probe shares the
repetition's CPU, a repetition of a serial workload is pinned to one
CPU; the process workload's repetitions use them all.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from e2ebench import hostspeed, procs, stats  # noqa: E402
from e2ebench.workloads import WORKLOADS  # noqa: E402

#: every run ends within this many seconds of its start
RUN_LIMIT_S = 170.0
#: how long processes a repetition left behind get to exit on their own
REAP_GRACE_S = 5.0
#: temporary files and traces, inside the checkout
WORK_DIR = ROOT / ".e2ebench"
#: one BLAS thread, for the repetitions and the runner's own probe: the
#: process backend already runs one worker per core, and the serial
#: workloads' matrices are too small to gain from threads, which only
#: add jitter
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
_PR_SET_CHILD_SUBREAPER = 36


class Interrupted(Exception):
    """SIGTERM or SIGINT arrived; ``args[0]`` is the signal number."""


def _raise_interrupted(signum, frame):
    raise Interrupted(signum)


def become_subreaper() -> bool:
    """Adopt orphaned descendants (Linux ``PR_SET_CHILD_SUBREAPER``)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        prctl = libc.prctl
    except (OSError, AttributeError):
        return False
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    return prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0


def reap_zombies() -> None:
    """Collect every exited child without blocking."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _live(pids) -> list[int]:
    return [p for p in pids if procs.state_of(p) not in (None, "Z")]


class Supervisor:
    """Runs repetition processes one at a time and reaps what they leave."""

    def __init__(
        self, workload: str, seed: int, tmp: str, deadline: float, cpus: set[int]
    ):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.deadline = deadline
        #: the CPUs repetitions run on, and the probe is timed on
        self.cpus = cpus
        self.proc: subprocess.Popen | None = None
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                [str(ROOT / "src"), str(ROOT)]
                + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
            ),
            REPRO_CACHE=os.path.join(tmp, "cache"),
            TMPDIR=tmp,
            **ONE_BLAS_THREAD,
        )

    def run(self, index: int, traced: bool) -> dict:
        """One repetition in a fresh process group; its record, with the
        runner's own findings (``exit``, ``survivors``, ``timeout``)."""
        result = os.path.join(self.tmp, f"rep{index}.json")
        cmd = [
            sys.executable, "-m", "e2ebench.workloads",
            "--workload", self.workload, "--seed", str(self.seed),
            "--index", str(index), "--trace", str(int(traced)),
            "--tmp", self.tmp, "--result", result,
        ]
        started = time.monotonic()
        with hostspeed.Sampler(self.cpus) as sampler:
            self.proc = subprocess.Popen(
                cmd, cwd=ROOT, env=self.env, start_new_session=True,
                stdin=subprocess.DEVNULL, stdout=sys.stderr.fileno(),
            )
            try:  # before the program starts; whatever it starts inherits it
                os.sched_setaffinity(self.proc.pid, self.cpus)
            except ProcessLookupError:
                pass
            timeout = False
            try:
                code = self.proc.wait(
                    timeout=max(0.0, self.deadline - time.monotonic())
                )
            except subprocess.TimeoutExpired:
                timeout = True
                code = self.kill_group()
        survivors = self.reap_group()
        self.proc = None
        try:
            with open(result) as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            record = {
                "index": index, "traced": traced, "crashed": True,
                "error": f"no result (exit status {code})",
            }
        record.update(
            exit=code, timeout=timeout, survivors=survivors,
            process_s=time.monotonic() - started, probe_s=sampler.probe_s(),
        )
        return record

    def kill_group(self) -> int:
        """SIGKILL the running repetition's group; its exit status."""
        proc = self.proc
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        return proc.wait()

    def reap_group(self) -> list[int]:
        """Wait for every process the repetition started to exit.

        The repetition's process group and every child of the runner
        (orphans are reparented here) get :data:`REAP_GRACE_S` to exit on
        their own; whatever is still alive then is a survivor, and is
        killed and reaped. Returns the survivors' pids.
        """
        pgid = self.proc.pid
        me = os.getpid()

        def leftovers() -> list[int]:
            reap_zombies()
            return _live(set(procs.in_group(pgid)) | set(procs.children(me)))

        survivors = _wait_for_none(leftovers, REAP_GRACE_S)
        for pid in survivors:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        _wait_for_none(leftovers, REAP_GRACE_S)
        return survivors

    def abort(self) -> None:
        """Kill and reap everything still running (the signal path)."""
        if self.proc is not None:
            self.kill_group()
            self.reap_group()
            self.proc = None
        for pid in procs.children(os.getpid()):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        _wait_for_none(lambda: reap_zombies() or procs.children(os.getpid()), 5.0)


def _wait_for_none(probe, seconds: float) -> list:
    """Poll ``probe`` until it returns nothing or ``seconds`` pass; its
    last answer."""
    limit = time.monotonic() + seconds
    while True:
        found = probe()
        if not found or time.monotonic() > limit:
            return found
        time.sleep(0.01)


def check(workload, reps: list[dict], reference: str | None) -> list[str]:
    """Mark each failed repetition ``failed``; returns the failures."""
    problems = []
    if reference is None:
        reference = next((r["digest"] for r in reps if not r["error"]), None)
    if workload.seed == 0 and workload.pinned_digest is not None:
        if reference != workload.pinned_digest:
            problems.append(
                f"reference digest {reference} != pinned {workload.pinned_digest}"
            )
            reference = workload.pinned_digest
    for rep in reps:
        reasons = []
        if rep["error"]:
            reasons.append("raised: " + rep["error"].strip().splitlines()[-1])
        else:
            if rep["updates"] != workload.scheduled_updates:
                reasons.append(
                    f"completed {rep['updates']} of "
                    f"{workload.scheduled_updates} updates"
                )
            if rep["digest"] != reference:
                reasons.append(f"digest {rep['digest']} != {reference}")
            if rep["faults"]:
                reasons.append(f"fault counters moved: {rep['faults']}")
        if rep.get("timeout"):
            reasons.append("overran the run's time limit")
        if rep.get("exit"):
            reasons.append(f"exit status {rep['exit']}")
        if rep.get("survivors"):
            reasons.append(f"left processes behind: {rep['survivors']}")
        rep["failed"] = bool(reasons)
        problems.extend(f"repetition {rep['index']}: {r}" for r in reasons)
    return problems


def values_of(reps: list[dict], key: str) -> list[float]:
    return [float(r[key]) for r in reps if r.get(key) is not None]


def scaled(reps: list[dict], key: str, scale) -> list[float]:
    """``key`` of each repetition at the reference host speed; ``scale``
    is :func:`hostspeed.scale_time` or :func:`hostspeed.scale_rate`."""
    return [scale(r[key], r["probe_s"]) for r in reps if r.get(key) is not None]


def update_rates(reps: list[dict]) -> list[float]:
    return scaled(reps, "updates_per_s", hostspeed.scale_rate)


def end_to_end(reps: list[dict]) -> dict[str, list[float]]:
    """Samples of each end-to-end metric over untraced repetitions."""
    plain = [r for r in reps if not r["traced"] and not r["failed"]]
    return {
        "setup_s": scaled(plain, "setup_s", hostspeed.scale_time),
        "updates_per_s": update_rates(plain),
        "peak_rss_mb": [kb / 1024.0 for kb in values_of(plain, "peak_rss_kb")],
    }


def per_layer(reps: list[dict]) -> dict[str, list[float]]:
    """Samples of each per-layer metric over traced repetitions, plus the
    tracing overhead: untraced over traced ``updates_per_s``, minus 1."""
    traced = [r for r in reps if r["traced"] and "layers" in r and not r["failed"]]
    out: dict[str, list[float]] = {}
    for rep in traced:
        for name, value in rep["layers"].items():
            out.setdefault(name, []).append(float(value))
    plain = update_rates([r for r in reps if not r["traced"] and not r["failed"]])
    with_trace = update_rates(traced)
    if plain and with_trace:
        overhead = (
            stats.summarize(plain)["median"] / stats.summarize(with_trace)["median"]
            - 1.0
        )
        out["trace.overhead"] = [overhead]
    return out


def merge_traces(reps: list[dict], path: Path) -> bool:
    """One Chrome trace of every traced repetition, a lane each."""
    events = []
    for rep in reps:
        if not rep.get("trace_file"):
            continue
        with open(rep["trace_file"]) as fh:
            for event in json.load(fh)["traceEvents"]:
                event["tid"] = rep["index"]
                if event["ph"] == "M":
                    event["args"]["name"] = f"repetition {rep['index']}"
                events.append(event)
    if not events:
        return False
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
    return True


def report(name: str, samples: list[float], unit: str) -> str:
    s = stats.summarize(samples)
    tail = (
        f", p{100 * s['tail_q']:g} {s['tail']:.4g}" if "tail_q" in s else ""
    )
    return (
        f"  {name:28s} {s['median']:>12.5g} {unit:6s} median of {s['n']}"
        f" (min {s['min']:.4g}, max {s['max']:.4g}{tail})"
    )


def run(args) -> int:
    workload = WORKLOADS[args.workload](args.seed, "")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not (ROOT / "src" / "repro").is_dir():
        print(f"e2ebench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(ONE_BLAS_THREAD)  # before the probe imports NumPy
    become_subreaper()
    WORK_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    cpus = sorted(os.sched_getaffinity(0))
    supervisor = Supervisor(
        args.workload, args.seed, tmp, time.monotonic() + RUN_LIMIT_S,
        set(cpus) if workload.parallel else {cpus[-1]},
    )
    handlers = {
        signum: signal.signal(signum, _raise_interrupted)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        return measure_and_report(args, workload, wanted, supervisor)
    except Interrupted as exc:
        for signum in handlers:
            signal.signal(signum, signal.SIG_IGN)
        supervisor.abort()
        print(f"e2ebench: interrupted by signal {exc.args[0]}", file=sys.stderr)
        return 128 + exc.args[0]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        for signum, handler in handlers.items():
            signal.signal(signum, handler)


def measure_and_report(args, workload, wanted, supervisor) -> int:
    index = 0
    reference = None
    reps: list[dict] = []
    if workload.primed:
        priming = supervisor.run(index, traced=False)
        index += 1
        reps.append(priming)
        reference = None if priming["error"] else priming["digest"]
    begin = time.monotonic()
    min_reps = 2 if args.trace else 1
    while not (reps and reps[-1]["error"]):
        traced = bool(args.trace) and (index - workload.primed) % 2 == 0
        rep = supervisor.run(index, traced)
        index += 1
        reps.append(rep)
        print(
            f"e2ebench {args.workload}: repetition {rep['index']}"
            f"{' traced' if traced else ''} took {rep['process_s']:.2f} s,"
            f" probe {1e3 * rep['probe_s']:.3f} ms",
            file=sys.stderr,
        )
        timed = len(reps) - workload.primed
        elapsed = time.monotonic() - begin
        # Stop when the next repetition would overrun by more than half of
        # itself, so a run lasts --seconds give or take half a repetition.
        if timed >= min_reps and elapsed + 0.5 * rep["process_s"] >= args.seconds:
            break
        if rep.get("timeout") or time.monotonic() > supervisor.deadline:
            break
    if all(r.get("crashed") for r in reps):
        print(f"e2ebench: no repetition produced a result: {reps[-1]['error']}",
              file=sys.stderr)
        return 2
    problems = check(workload, reps, reference)
    timed = reps[workload.primed:]
    samples = per_layer(timed) if args.trace else end_to_end(timed)
    attempted = workload.scheduled_updates * len(reps)
    failed = workload.scheduled_updates * sum(r["failed"] for r in reps)
    print(
        f"e2ebench {args.workload} seed {args.seed}: {len(timed)} timed "
        f"repetitions of {workload.scheduled_updates} client updates"
        + (" (plus one untimed priming run)" if workload.primed else "")
    )
    metrics = {}
    for entry in wanted:
        values = samples.get(entry["name"])
        if not values:
            problems.append(f"metric {entry['name']} was not measured")
            continue
        print(report(entry["name"], values, entry["unit"]))
        metrics[entry["name"]] = (stats.summarize(values)["median"], entry["unit"])
    if not args.trace:
        plain = [r for r in timed if not r["traced"] and not r["failed"]]
        unscaled = [
            f"{key} {stats.summarize(values)['median']:.5g} {unit}"
            for key, unit in (("setup_s", "s"), ("updates_per_s", "1/s"))
            if (values := values_of(plain, key))
        ]
        if unscaled:
            probe = stats.summarize(values_of(plain, "probe_s"))["median"]
            print(
                f"  unscaled medians: {', '.join(unscaled)}; host probe"
                f" {1e3 * probe:.3f} ms (reference"
                f" {1e3 * hostspeed.REFERENCE_S:g} ms)"
            )
    if args.trace:
        if "trace.other_share" in metrics:
            named = 1.0 - metrics["trace.other_share"][0]
            print(f"  named layers cover {100 * named:.2f}% of traced wall time")
        path = WORK_DIR / f"trace-{args.workload}.json"
        if merge_traces(timed, path):
            print(f"  spans: {path}")
    for problem in problems:
        print(f"  FAILED {problem}")
    correct = not problems
    print(stats.result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="FedFT-EDS end-to-end benchmark")
    parser.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS) + ["all"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    try:
        for args.workload in names:
            status = max(status, run(args))
            if status >= 128:  # interrupted
                break
    except Interrupted as exc:  # between repetitions: nothing to reap
        return 128 + exc.args[0]
    return status


if __name__ == "__main__":
    sys.exit(main())
