"""Tests of the end-to-end benchmark's own code.

The arithmetic tests need nothing but the standard library and NumPy.
The process tests run the real runner on real workloads (a few seconds
each) and check that it leaves no process behind.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from e2ebench import hostspeed, layers, procs, run, stats, workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_children_and_counts_overlap_once():
    # root [0, 10]: A [1, 4] holding A1 [2, 3]; B [5, 9]; C [8, 10]
    # overlapping B (children of one span may overlap on a thread pool).
    starts = [0.0, 1.0, 2.0, 5.0, 8.0]
    ends = [10.0, 4.0, 3.0, 9.0, 10.0]
    parents = [-1, 0, 1, 0, 0]
    own = layers.self_times(starts, ends, parents)
    assert own == pytest.approx([10 - (3 + 5), 3 - 1, 1, 4, 2])


def test_span_log_nesting_rollup_and_round_ids():
    # begin/end read the clock once each, in call order.
    log = layers.SpanLog(clock=FakeClock([0, 1, 2, 3, 5, 6, 7, 10]))
    root = log.begin("repetition", "other")
    a = log.begin("Server.evaluate", "eval")
    b = log.begin("compute_features", "features.build")
    log.end(b)
    log.end(a)
    log.round += 1
    c = log.begin("Server.aggregate", "aggregate")
    log.end(c, bucket="eval")  # a split hook may re-bucket at the end
    log.end(root)
    assert log.parents == [-1, 0, 1, 0]
    assert log.rounds == [0, 0, 0, 1]
    roll = log.rollup()
    assert roll["other"]["self_s"] == pytest.approx(10 - 4 - 1)
    assert roll["features.build"]["self_s"] == pytest.approx(1)
    assert roll["eval"]["self_s"] == pytest.approx((4 - 1) + 1)
    assert roll["eval"]["count"] == 2
    assert roll["eval"]["max_s"] == pytest.approx(4)
    trace = layers.chrome_trace([log])
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert [e["dur"] for e in spans] == pytest.approx([10e6, 4e6, 1e6, 1e6])
    assert spans[1]["args"]["self_us"] == pytest.approx(3e6)


def test_every_bucket_maps_to_a_layer():
    for hook in layers.HOOKS:
        assert hook.bucket in layers.BUCKET_LAYERS
        if hook.split:
            assert hook.split[2] in layers.BUCKET_LAYERS


def test_tracer_attributes_layers_without_changing_results():
    from repro.core import FedFTEDSConfig, run_fedft_eds
    from repro.core import fedft_eds
    from repro.data.partition import dirichlet_partition
    from repro.fl.client import Client

    smoke = FedFTEDSConfig(
        seed=0, rounds=2, num_clients=3, train_size=120, test_size=60,
        pretrain_epochs=1, local_epochs=1, image_size=8,
    )

    def probed_run() -> dict:
        probe = workloads.LoopProbe().install()
        try:
            run_fedft_eds(smoke)
        finally:
            probe.uninstall()
        (record,) = probe.runs
        return record

    plain = probed_run()
    run_round = Client.run_round
    tracer = layers.Tracer().install()
    try:
        log = tracer.log = layers.SpanLog()
        root = log.begin("repetition", "other")
        traced = probed_run()
        log.end(root)
        tracer.log = None
    finally:
        tracer.uninstall()
    assert Client.run_round is run_round
    assert fedft_eds.dirichlet_partition is dirichlet_partition
    assert traced["digest"] == plain["digest"]
    assert traced["updates"] == plain["updates"] == 6
    roll = log.rollup()
    for bucket in (
        "data.gen", "data.partition", "pretrain", "model", "features.lookup",
        "selection.entropy", "solve.fused", "aggregate", "eval", "loop",
        "dispatch.submit", "dispatch.wait",
    ):
        assert roll[bucket]["count"] > 0, bucket
    assert {1, 2} <= set(log.rounds)  # one id per sync round
    figures = workloads.layer_figures(log, [traced], {})
    assert figures["eval.calls"] == 2 and figures["aggregate.calls"] == 2


# -- summaries ----------------------------------------------------------------


def test_summary_median_tail_and_count():
    s = stats.summarize([3.0, 1.0, 2.0, 10.0])
    assert s["n"] == 4 and s["median"] == pytest.approx(2.5)
    assert (s["min"], s["max"]) == (1.0, 10.0)
    assert "tail" not in s  # fewer than ten samples beyond any quantile
    s = stats.summarize(list(range(1, 101)))
    assert s["n"] == 100 and s["median"] == pytest.approx(50.5)
    assert s["tail_q"] == 0.9 and s["tail"] == pytest.approx(90.1)
    assert stats.summarize(list(range(1000)))["tail_q"] == 0.99
    assert stats.tail_quantile(99) is None
    with pytest.raises(ValueError):
        stats.summarize([])


def test_end_to_end_timings_are_scaled_to_the_reference_host_speed():
    ref = hostspeed.REFERENCE_S
    reps = [
        # probed at twice the reference time: a host half as fast
        {"traced": False, "failed": False, "setup_s": 2.0,
         "updates_per_s": 100.0, "peak_rss_kb": 2048, "probe_s": 2 * ref},
        {"traced": False, "failed": False, "setup_s": 1.0,
         "updates_per_s": 200.0, "peak_rss_kb": 1024, "probe_s": ref},
        {"traced": False, "failed": True, "setup_s": 9.0,
         "updates_per_s": 9.0, "peak_rss_kb": 9, "probe_s": ref},
    ]
    samples = run.end_to_end(reps)
    assert samples["setup_s"] == pytest.approx([1.0, 1.0])
    assert samples["updates_per_s"] == pytest.approx([200.0, 200.0])
    assert samples["peak_rss_mb"] == [2.0, 1.0]  # memory is not scaled


def test_host_probe_sampler_and_trimmed_mean():
    assert 0 < hostspeed.probe_once(steps=20) < hostspeed.probe_once(steps=400)
    values = [5.0] + [1.0] * 8 + [0.0]  # one pass each way cut
    assert hostspeed.trimmed_mean(values) == 1.0
    assert hostspeed.trimmed_mean([2.0, 4.0]) == 3.0
    with pytest.raises(ValueError):
        hostspeed.trimmed_mean([])
    cpus = sorted(os.sched_getaffinity(0))[:2]
    with hostspeed.Sampler(cpus, steps=8, duty=0.5) as sampler:
        time.sleep(0.2)
    counts = {cpu: len(s) for cpu, s in sampler.samples.items()}
    assert set(counts) == set(cpus) and min(counts.values()) >= 2
    assert sampler.probe_s() > 0
    time.sleep(0.05)
    assert {cpu: len(s) for cpu, s in sampler.samples.items()} == counts


# -- names --------------------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["setup_s", "updates_per_s", "features.hit_ratio", "a-b.c_1", "9x"]
)
def test_valid_metric_names(name):
    assert stats.check_name(name) == name


@pytest.mark.parametrize(
    "name", ["", "_x", ".x", "a b", "a/b", "é", "x" * 65, "a:b", None]
)
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        stats.check_name(name)


def test_result_line_rejects_bad_names_units_and_values():
    line = stats.result_line(True, 3, 0, {"setup_s": (1.5, "s")})
    assert json.loads(line) == {
        "correct": True, "attempted": 3, "failed": 0,
        "metrics": {"setup_s": {"value": 1.5, "unit": "s"}},
    }
    with pytest.raises(ValueError):
        stats.result_line(True, 3, 0, {"bad name": (1.0, "s")})
    with pytest.raises(ValueError):
        stats.result_line(True, 3, 0, {"x": (1.0, "a b")})
    with pytest.raises(ValueError):
        stats.result_line(True, 3, 0, {"x": (float("nan"), "s")})
    with pytest.raises(ValueError):
        stats.result_line(True, 0, 0, {})


def test_benchmark_json_names_units_and_emitted_metrics():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        stats.check_name(name)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        stats.check_unit(metric["unit"])
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(
        workloads.WORKLOADS
    )
    # The traced run emits exactly the per-layer metrics BENCHMARK.json
    # lists: layer_figures' keys plus the tracing overhead.
    log = layers.SpanLog(clock=FakeClock([0.0, 1.0]))
    log.end(log.begin("repetition", "other"))
    emitted = set(workloads.layer_figures(log, [], {})) | {"trace.overhead"}
    assert emitted == {m["name"] for m in SPEC["per_layer"]}


# -- output checks ------------------------------------------------------------


def _rep(index, digest, **extra):
    rep = {
        "index": index, "traced": False, "error": None, "updates": 3000,
        "digest": digest, "faults": {}, "exit": 0, "timeout": False,
        "survivors": [],
    }
    rep.update(extra)
    return rep


def test_digest_check_fails_on_a_perturbed_theta():
    rng = np.random.default_rng(0)
    theta = {"head.w": rng.standard_normal((8, 4)), "head.b": np.zeros(4)}
    accuracies = [0.1, 0.25, 0.5]
    good = workloads.run_digest(accuracies, theta)
    perturbed = {k: v.copy() for k, v in theta.items()}
    perturbed["head.w"][3, 1] = np.nextafter(perturbed["head.w"][3, 1], np.inf)
    bad = workloads.run_digest(accuracies, perturbed)
    assert bad != good
    assert workloads.run_digest(accuracies, dict(reversed(theta.items()))) == good

    workload = workloads.FedBuff100Ckpt(seed=7, tmp="")
    reps = [_rep(0, good), _rep(1, bad), _rep(2, good)]
    problems = run.check(workload, reps, reference=None)
    assert [r["failed"] for r in reps] == [False, True, False]
    assert len(problems) == 1 and "digest" in problems[0]


def test_pinned_digest_and_other_checks():
    workload = workloads.FedBuff100Ckpt(seed=0, tmp="")
    pinned = workload.pinned_digest
    reps = [_rep(0, "0" * 32), _rep(1, "0" * 32)]
    run.check(workload, reps, reference=None)
    assert all(r["failed"] for r in reps)  # consistent, but not the pin
    reps = [
        _rep(0, pinned),
        _rep(1, pinned, updates=2999),
        _rep(2, pinned, faults={"faults.retries": 1}),
        _rep(3, pinned, survivors=[12345]),
        _rep(4, None, error="Traceback ...\nValueError: boom"),
    ]
    problems = run.check(workload, reps, reference=None)
    assert [r["failed"] for r in reps] == [False, True, True, True, True]
    assert any("boom" in p for p in problems)


# -- processes ----------------------------------------------------------------


def _watch(cmd, on_poll=None, timeout=150.0):
    """Run ``cmd``; returns (status, stdout, every descendant pid seen)."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True,
    )
    seen: set[int] = set()
    deadline = time.monotonic() + timeout
    while proc.poll() is None and time.monotonic() < deadline:
        found = procs.descendants(proc.pid)
        seen.update(found)
        if on_poll is not None:
            on_poll(proc, found)
        time.sleep(0.02)
    if proc.poll() is None:
        proc.kill()
    out = proc.communicate(timeout=30)[0]
    return proc.returncode, out, seen


def _left_behind(pids) -> list[int]:
    # Zombies count: a reaped process has no /proc entry at all.
    return [p for p in pids if procs.state_of(p) is not None]


def test_sigterm_mid_run_leaves_no_descendant():
    sent = []

    def terminate_once_workers_run(proc, found):
        # runner -> repetition -> backend workers (+ resource tracker)
        if not sent and len(found) >= 3:
            proc.send_signal(signal.SIGTERM)
            sent.append(time.monotonic())

    status, out, seen = _watch(
        [sys.executable, "e2ebench/run.py", "--workload",
         "scale512_process_warm", "--seed", "0", "--seconds", "60",
         "--trace", "0"],
        on_poll=terminate_once_workers_run,
    )
    assert sent, "the backend workers never started"
    assert status == 128 + signal.SIGTERM
    assert out == ""  # no result line
    assert len(seen) >= 3
    assert _left_behind(seen) == []


def test_failed_check_exits_nonzero_and_leaves_nothing():
    script = (
        "import sys; from e2ebench import run, workloads; "
        "workloads.FedBuff100Ckpt.pinned_digest = '0' * 32; "
        "sys.exit(run.main(sys.argv[1:]))"
    )
    status, out, seen = _watch(
        [sys.executable, "-c", script, "--workload", "fedbuff100_ckpt",
         "--seed", "0", "--seconds", "1", "--trace", "0"]
    )
    assert status == 1
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 3000
    assert seen and _left_behind(seen) == []


def test_normal_run_passes_its_checks_and_leaves_nothing():
    status, out, seen = _watch(
        [sys.executable, "e2ebench/run.py", "--workload", "fedbuff100_ckpt",
         "--seed", "0", "--seconds", "1", "--trace", "0"]
    )
    assert status == 0
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    assert result == {
        "correct": True, "attempted": 3000, "failed": 0,
        "metrics": result["metrics"],
    }
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert any(
            line.split()[:1] == [metric["name"]] and "median of 1" in line
            for line in lines
        ), metric["name"]
    assert seen and _left_behind(seen) == []
    assert not list((ROOT / ".e2ebench").glob("fedbuff100_ckpt-*"))
