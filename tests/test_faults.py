"""Fault layer: deterministic chaos, bitwise-exact retry, degradation.

Every recovery path here must satisfy one contract: the run's final θ,
history/EventLog and accuracies are bitwise identical to the fault-free
run, and every injected event lands in the ``faults.*`` counters.
"""

import os

import numpy as np
import pytest

from repro.core.fedft_eds import FedFTEDSConfig, run_fedft_eds
from repro.data import synthetic
from repro.engine.aggregators import FedBuffAggregator
from repro.engine.backends import (
    BACKENDS,
    ProcessPoolBackend,
    SerialBackend,
    make_backend,
)
from repro.engine.campaign import CampaignSegmentPool
from repro.engine.faults import (
    FAULTS,
    ChaosPlan,
    FaultPolicy,
    install_chaos,
    reject_worker_only_knobs,
    run_supervised,
    segment_fingerprint,
)
from repro.engine.runner import run_async_federated_training
from repro.experiments.common import ExperimentHarness
from repro.fl.checkpoint import (
    load_async_checkpoint,
    resume_sync_federated_training,
)
from repro.fl.rounds import run_federated_training
from repro.obs.metrics import reset_exported
from repro.testbed import ENGINE_SMOKE, tiny_federation


@pytest.fixture(autouse=True)
def _clean_fault_state():
    reset_exported()
    install_chaos(None)
    yield
    install_chaos(None)


# ---------------------------------------------------------------------------
# FaultPolicy / ChaosPlan units
# ---------------------------------------------------------------------------


def test_backoff_is_deterministic_and_bounded():
    a = FaultPolicy(backoff_base=0.05)
    b = FaultPolicy(backoff_base=0.05)
    delays_a = [a.backoff_delay(n) for n in range(1, 8)]
    delays_b = [b.backoff_delay(n) for n in range(1, 8)]
    assert delays_a == delays_b  # replayed scenario waits the same ms
    assert len(set(delays_a)) == len(delays_a)  # jittered, not constant
    for n, delay in enumerate(delays_a, start=1):
        exact = min(2.0, 0.05 * 2.0 ** (n - 1))
        assert 0.0 <= delay <= exact * 1.1
        assert delay >= exact * 0.9
    with pytest.raises(ValueError, match="1-based"):
        a.backoff_delay(0)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"job_deadline": -1.0}, "job_deadline"),
        ({"job_deadline": 0.0}, "job_deadline"),
        ({"job_deadline": float("nan")}, "job_deadline"),
        ({"job_deadline": float("inf")}, "job_deadline"),
        ({"max_retries": -1}, "max_retries"),
        ({"max_retries": 1.5}, "max_retries"),
        ({"backoff_base": -0.1}, "backoff_base"),
        ({"backoff_base": float("nan")}, "backoff_base"),
        ({"backoff_base": float("inf")}, "backoff_base"),
    ],
    ids=["deadline_negative", "deadline_0", "deadline_nan", "deadline_inf",
         "retries_negative", "retries_fractional", "backoff_negative",
         "backoff_nan", "backoff_inf"],
)
def test_fault_policy_refuses_invalid_settings(kwargs, name):
    with pytest.raises(ValueError, match=name):
        FaultPolicy(**kwargs)
    # what the fault tests run with stays accepted
    FaultPolicy(job_deadline=0.25, max_retries=0)


def test_chaos_plan_parse_and_spec_roundtrip():
    plan = ChaosPlan.parse("kill@3;delay@5:0.25;corrupt@0;tear@1", seed=9)
    assert plan.events == [
        ("kill", 3, 0.0),
        ("delay", 5, 0.25),
        ("corrupt", 0, 0.0),
        ("tear", 1, 0.0),
    ]
    assert ChaosPlan.parse(plan.spec(), seed=9).events == plan.events
    with pytest.raises(ValueError, match="unknown chaos kind"):
        ChaosPlan.parse("explode@1")
    with pytest.raises(ValueError, match="missing '@job'"):
        ChaosPlan.parse("kill")


def test_chaos_plan_spec_round_trips_every_kind():
    spec = "kill@3;delay@5:0.25;corrupt@0;tear@1;disk-corrupt@2;disk-tear@*"
    plan = ChaosPlan.parse(spec, seed=4)
    assert plan.spec() == spec  # parse(spec).spec() is the identity
    assert ChaosPlan.parse(plan.spec(), seed=4).events == plan.events


def test_chaos_plan_parse_errors_name_the_token_and_grammar():
    with pytest.raises(
        ValueError, match=r"unknown chaos kind 'explode'.*grammar"
    ):
        ChaosPlan.parse("kill@1;explode@1")
    with pytest.raises(ValueError, match=r"'kill@'.*missing '@job'.*grammar"):
        ChaosPlan.parse("kill@")
    with pytest.raises(ValueError, match=r"bad job index 'x'.*int or '\*'"):
        ChaosPlan.parse("kill@x")
    with pytest.raises(ValueError, match=r"negative job index '-1'"):
        ChaosPlan.parse("kill@-1")
    with pytest.raises(ValueError, match=r"bad value 'fast'.*float"):
        ChaosPlan.parse("delay@1:fast")


def test_disk_faults_count_store_writes_and_tear_wins():
    plan = ChaosPlan.parse("disk-tear@0;disk-corrupt@0;disk-corrupt@2")
    # write 0: both target it, but a torn write never reaches the commit
    # a corruption would flip, so the tear takes precedence
    assert plan.disk_fault_for_write() == "disk-tear"
    assert plan.disk_fault_for_write() is None  # write 1: untouched
    assert plan.disk_fault_for_write() == "disk-corrupt"  # write 2
    assert plan.disk_fault_for_write() is None  # indexed: fired exactly once


def test_indexed_events_fire_once_and_star_fires_always():
    plan = ChaosPlan.parse("kill@2;delay@*:0.1")
    assert not plan.kill_before(1)
    assert plan.kill_before(2)
    assert not plan.kill_before(2)  # indexed: exactly once
    assert plan.delay_for(0) == 0.1
    assert plan.delay_for(7) == 0.1  # star: every job
    # tear uses its own save counter
    tear = ChaosPlan.parse("tear@1")
    assert not tear.tear_save()  # save 0
    assert tear.tear_save()  # save 1
    assert not tear.tear_save()


def test_corrupt_offsets_replay_with_the_seed():
    a = ChaosPlan.parse("corrupt@0", seed=3)
    b = ChaosPlan.parse("corrupt@0", seed=3)
    assert [a.corrupt_offset(1 << 16) for _ in range(5)] == [
        b.corrupt_offset(1 << 16) for _ in range(5)
    ]


# ---------------------------------------------------------------------------
# Chaos matrix: injected faults, bitwise-identical recovery
# ---------------------------------------------------------------------------

ROUNDS = 3


def _sync_run(backend=None):
    server, clients = tiny_federation(seed=3, num_clients=4)
    try:
        history = run_federated_training(
            server, clients, rounds=ROUNDS, seed=5, backend=backend,
            eval_every=1,
        )
    finally:
        if backend is not None:
            getattr(backend, "shutdown", backend.close)()
    return history, {k: v.copy() for k, v in server.global_state.items()}


def _assert_identical(run_a, run_b):
    history_a, theta_a = run_a
    history_b, theta_b = run_b
    assert history_a.accuracies.tolist() == history_b.accuracies.tolist()
    assert [r.participants for r in history_a.records] == [
        r.participants for r in history_b.records
    ]
    assert set(theta_a) == set(theta_b)
    for key in theta_a:
        assert theta_a[key].tobytes() == theta_b[key].tobytes(), key


@pytest.fixture(scope="module")
def baseline_sync():
    return _sync_run()


def test_worker_kill_is_retried_bitwise_identically(baseline_sync):
    faulty = _sync_run(
        ProcessPoolBackend(
            max_workers=2,
            fault_policy=FaultPolicy(max_retries=3, backoff_base=0.01),
            chaos=ChaosPlan.parse("kill@1", seed=0),
        )
    )
    _assert_identical(baseline_sync, faulty)
    assert FAULTS["chaos_kills"] == 1
    assert FAULTS["respawns"] >= 1
    assert FAULTS["retries"] >= 1


def test_hung_job_hits_watchdog_deadline_and_retries(baseline_sync):
    faulty = _sync_run(
        ProcessPoolBackend(
            max_workers=2,
            fault_policy=FaultPolicy(
                job_deadline=0.25, max_retries=3, backoff_base=0.01
            ),
            chaos=ChaosPlan.parse("delay@1:30", seed=0),
        )
    )
    _assert_identical(baseline_sync, faulty)
    assert FAULTS["chaos_delays"] == 1
    assert FAULTS["timeouts"] >= 1
    assert FAULTS["retries"] >= 1


def test_corrupt_segment_is_detected_repaired_and_retried(baseline_sync):
    faulty = _sync_run(
        ProcessPoolBackend(
            max_workers=2,
            fault_policy=FaultPolicy(max_retries=3, backoff_base=0.01),
            chaos=ChaosPlan.parse("corrupt@0", seed=0),
        )
    )
    _assert_identical(baseline_sync, faulty)
    assert FAULTS["chaos_corruptions"] == 1
    assert FAULTS["corrupt_segments"] >= 1
    assert FAULTS["segment_repairs"] >= 1


def test_exhausted_retries_degrade_inline_with_identical_results(
    baseline_sync,
):
    # max_retries=0: the first failure exhausts the budget, so the killed
    # job must complete through the degradation ladder (a private thread,
    # else inline, in the parent) instead of a redispatch — still bitwise
    # identical.
    faulty = _sync_run(
        ProcessPoolBackend(
            max_workers=2,
            fault_policy=FaultPolicy(max_retries=0),
            chaos=ChaosPlan.parse("kill@1", seed=0),
        )
    )
    _assert_identical(baseline_sync, faulty)
    assert FAULTS["degradations"] >= 1


def test_async_cohort_rounds_survive_worker_kill():
    def run(backend=None):
        server, clients = tiny_federation(seed=1, num_clients=4)
        try:
            log = run_async_federated_training(
                server,
                clients,
                FedBuffAggregator(buffer_size=3, staleness_exponent=0.0),
                max_events=10,
                seed=11,
                backend=backend,
            )
        finally:
            if backend is not None:
                backend.shutdown()
        return log, {k: v.copy() for k, v in server.global_state.items()}

    clean_log, clean_theta = run()
    faulty_log, faulty_theta = run(
        ProcessPoolBackend(
            max_workers=2,
            fault_policy=FaultPolicy(max_retries=3, backoff_base=0.01),
            chaos=ChaosPlan.parse("kill@2", seed=0),
        )
    )
    assert clean_log.records == faulty_log.records
    for key in clean_theta:
        assert clean_theta[key].tobytes() == faulty_theta[key].tobytes()
    assert FAULTS["chaos_kills"] == 1
    assert FAULTS["respawns"] >= 1


# ---------------------------------------------------------------------------
# Idempotent, exception-safe teardown (satellite)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", BACKENDS)
def test_double_close_end_run_shutdown_are_noops(name):
    backend = make_backend(name, 2)
    server, clients = tiny_federation(seed=0, num_clients=3)
    run_federated_training(server, clients, rounds=1, seed=1, backend=backend)
    for method in ("end_run", "close", "shutdown"):
        hook = getattr(backend, method, None)
        if hook is not None:
            hook()
            hook()  # idempotent: a second teardown is a no-op


def test_process_backend_usable_again_after_end_run():
    backend = ProcessPoolBackend(max_workers=2, persistent=True)
    try:
        first = _sync_run_with(backend)
        backend.end_run()
        backend.end_run()
        second = _sync_run_with(backend)
        _assert_identical(first, second)
    finally:
        backend.shutdown()
        backend.shutdown()


def _sync_run_with(backend):
    server, clients = tiny_federation(seed=3, num_clients=4)
    history = run_federated_training(
        server, clients, rounds=ROUNDS, seed=5, backend=backend, eval_every=1
    )
    backend.end_run()
    return history, {k: v.copy() for k, v in server.global_state.items()}


# ---------------------------------------------------------------------------
# Segment-pool verification (satellite)
# ---------------------------------------------------------------------------


def test_pool_reacquire_detects_and_repairs_corruption():
    with CampaignSegmentPool() as pool:
        segment = pool.acquire(
            ("shard", 0), lambda: {"x": np.arange(64.0)}, fingerprint=True
        )
        pristine = bytes(segment.shm.buf[: segment.nbytes])
        segment.shm.buf[5] ^= 0xFF  # bit rot between runs
        again = pool.acquire(
            ("shard", 0), lambda: {"x": np.arange(64.0)}, fingerprint=True
        )
        assert again is segment
        assert pool.stats["verifies"] == 1
        assert pool.stats["corruptions"] == 1
        assert FAULTS["segment_repairs"] == 1
        assert bytes(segment.shm.buf[: segment.nbytes]) == pristine
        assert segment.fingerprint == segment_fingerprint(
            segment.shm.buf, segment.nbytes
        )
        # a clean re-acquire verifies without repairing
        pool.acquire(
            ("shard", 0), lambda: {"x": np.arange(64.0)}, fingerprint=True
        )
        assert pool.stats == {
            **pool.stats, "verifies": 2, "corruptions": 1,
        }


def test_persistent_own_pool_repairs_a_segment_corrupted_between_runs():
    """A persistent backend's own pool outlives its runs, so it
    fingerprints keyed segments at publish: bit rot between two runs is
    caught on re-acquire and repaired, and the second run's results are
    bitwise the first's."""
    backend = ProcessPoolBackend(max_workers=2, persistent=True)
    pool = backend.segment_pool
    runs = []
    try:
        for run in range(2):
            server, clients = tiny_federation(seed=3, num_clients=4)
            for client in clients:
                client.shard_key = ("faults", client.client_id)
            if run:
                resident = pool.peek(("raw",) + clients[1].shard_key)
                # bit rot between runs, inside client 1's entry
                resident.shm.buf[resident.offset + 3] ^= 0xFF
            with backend:  # persistent: close() is end_run()
                history = run_federated_training(
                    server, clients, rounds=ROUNDS, seed=5, backend=backend,
                    eval_every=1,
                )
            theta = {k: v.copy() for k, v in server.global_state.items()}
            runs.append((history, theta))
        # each client's raw shard and descriptor
        assert pool.stats["publishes"] == 8
        assert pool.stats["verifies"] == 8
        assert pool.stats["corruptions"] == 1
        assert FAULTS["segment_repairs"] == 1
        _assert_identical(*runs)
    finally:
        backend.shutdown()
    assert pool._closed  # the backend's own pool goes with it


def test_pool_repair_by_key():
    with CampaignSegmentPool() as pool:
        segment = pool.acquire(
            ("k",), lambda: {"x": np.ones(32)}, fingerprint=True
        )
        pristine = bytes(segment.shm.buf[: segment.nbytes])
        segment.shm.buf[0] ^= 0xFF
        assert pool.repair(("k",))
        assert bytes(segment.shm.buf[: segment.nbytes]) == pristine
        assert not pool.repair(("missing",))


# ---------------------------------------------------------------------------
# Torn checkpoint saves (chaos tear)
# ---------------------------------------------------------------------------


def test_sync_torn_save_leaves_previous_checkpoint_loadable(tmp_path):
    clean_history, clean_theta = _sync_run()
    path = os.path.join(tmp_path, "ckpt")

    def run_with_tear():
        install_chaos(ChaosPlan.parse("tear@2", seed=0))
        try:
            server, clients = tiny_federation(seed=3, num_clients=4)
            run_federated_training(
                server, clients, rounds=ROUNDS, seed=5, eval_every=1,
                checkpoint_path=path, checkpoint_every=1,
            )
        finally:
            install_chaos(None)

    run_with_tear()
    assert FAULTS["chaos_torn_saves"] == 1
    # the torn save was round 3's; the committed checkpoint is round 2's,
    # and resuming it reproduces the uninterrupted run bit for bit
    restored = load_async_checkpoint(path)
    assert restored.records[-1].round_index == ROUNDS - 1
    server, clients = tiny_federation(seed=3, num_clients=4)
    resumed = resume_sync_federated_training(path, server, clients)
    _assert_identical(
        (clean_history, clean_theta),
        (resumed, {k: v.copy() for k, v in server.global_state.items()}),
    )


# ---------------------------------------------------------------------------
# Supervised execution
# ---------------------------------------------------------------------------


def test_run_supervised_restarts_from_start_without_checkpoint(tmp_path):
    calls = []

    def start():
        calls.append("start")
        if len(calls) == 1:
            raise RuntimeError("first attempt dies")
        return "done"

    def resume():  # pragma: no cover - must not be called
        calls.append("resume")
        return "resumed"

    result = run_supervised(start, resume, str(tmp_path), max_restarts=2)
    assert result == "done"
    assert calls == ["start", "start"]  # no checkpoint on disk yet
    assert FAULTS["supervised_restarts"] == 1


def test_run_supervised_resumes_from_checkpoint(tmp_path):
    path = os.path.join(tmp_path, "ckpt")
    clean_history, clean_theta = _sync_run()
    bombed = []

    def start():
        server, clients = tiny_federation(seed=3, num_clients=4)

        def bomb(record):
            if record.round_index == 2 and not bombed:
                bombed.append(True)
                raise RuntimeError("simulated crash mid-campaign")

        history = run_federated_training(
            server, clients, rounds=ROUNDS, seed=5, eval_every=1,
            checkpoint_path=path, checkpoint_every=1,
            emergency_checkpoint=True, on_round=bomb,
        )
        return server, history

    def resume():
        server, clients = tiny_federation(seed=3, num_clients=4)
        history = resume_sync_federated_training(path, server, clients)
        return server, history

    server, history = run_supervised(start, resume, path, max_restarts=2)
    assert FAULTS["supervised_restarts"] == 1
    assert FAULTS["emergency_checkpoints"] == 1
    _assert_identical(
        (clean_history, clean_theta),
        (history, {k: v.copy() for k, v in server.global_state.items()}),
    )


def test_run_supervised_gives_up_after_max_restarts(tmp_path):
    attempts = []

    def start():
        attempts.append(1)
        raise RuntimeError("always broken")

    with pytest.raises(RuntimeError, match="always broken"):
        run_supervised(start, start, str(tmp_path), max_restarts=2)
    assert len(attempts) == 3  # the first try + two restarts
    assert FAULTS["supervised_restarts"] == 3


# ---------------------------------------------------------------------------
# Validation plumbing
# ---------------------------------------------------------------------------


def test_emergency_checkpoint_requires_path():
    server, clients = tiny_federation(seed=0, num_clients=3)
    with pytest.raises(ValueError, match="checkpoint_path"):
        run_federated_training(
            server, clients, rounds=1, seed=0, emergency_checkpoint=True
        )
    with pytest.raises(ValueError, match="checkpoint_path"):
        run_async_federated_training(
            server,
            clients,
            FedBuffAggregator(buffer_size=2, staleness_exponent=0.0),
            max_events=2,
            emergency_checkpoint=True,
        )


def test_chaos_without_policy_enables_default_policy():
    backend = ProcessPoolBackend(
        max_workers=1, chaos=ChaosPlan.parse("kill@0")
    )
    try:
        assert isinstance(backend.fault_policy, FaultPolicy)
    finally:
        backend.shutdown()


# ---------------------------------------------------------------------------
# Worker-only knobs on the serial backend (no jobs, so loud failure)
# ---------------------------------------------------------------------------


def _no_setup(*args, **kwargs):
    raise AssertionError("the configuration error surfaced after setup began")


@pytest.mark.parametrize(
    "knobs",
    [
        {"job_timeout": 5.0},
        {"max_job_retries": 1},
        {"chaos": "kill@1"},
        {"chaos": "tear@0;delay@2:0.1"},
        {"chaos": ChaosPlan.parse("corrupt@*")},
    ],
    ids=["job_timeout", "max_job_retries", "kill", "delay_beside_tear",
         "corrupt_plan"],
)
def test_worker_only_fault_knobs_fail_loudly_on_serial(monkeypatch, knobs):
    """Serial runs no worker jobs: the deadline, the retry budget and the
    job-indexed chaos events fail up front instead of doing nothing."""
    monkeypatch.setattr(synthetic, "make_vision_world", _no_setup)
    with pytest.raises(ValueError, match="backend='process'"):
        run_fedft_eds(FedFTEDSConfig(backend="serial", **ENGINE_SMOKE, **knobs))
    with ExperimentHarness("smoke", **knobs) as harness:
        with pytest.raises(ValueError, match="backend='process'"):
            harness.make_run_backend("serial")
        backend = harness.make_run_backend("process")  # the knobs' home
        assert isinstance(backend, ProcessPoolBackend)


def test_checkpoint_and_store_chaos_stay_legal_on_serial():
    """Tears and disk faults do not address jobs, so serial accepts them."""
    spec = "tear@0;disk-tear@1;disk-corrupt@2"
    reject_worker_only_knobs(None, None, spec)
    with ExperimentHarness("smoke", chaos=spec) as harness:
        with harness.make_run_backend("serial") as backend:
            assert isinstance(backend, SerialBackend)
