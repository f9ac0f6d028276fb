"""Campaign-scoped shared-memory runtime: pool lifecycle, warm workers,
crash-path cleanup."""

import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from multiprocessing import shared_memory

from repro.engine.backends import ProcessPoolBackend
from repro.engine.campaign import CampaignSegmentPool
from repro.fl.rounds import run_federated_training
from repro.testbed import tiny_federation

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


# ---------------------------------------------------------------------------
# Pool lifecycle and refcounting
# ---------------------------------------------------------------------------


def test_pool_publishes_once_and_refcounts():
    calls = []

    def factory():
        calls.append(1)
        return {"x": np.arange(8.0), "y": np.arange(8)}

    with CampaignSegmentPool() as pool:
        first = pool.acquire(("shard", 0), factory)
        again = pool.acquire(("shard", 0), factory)
        assert first is again
        assert len(calls) == 1  # arrays built (and copied) exactly once
        assert first.refs == 2
        assert pool.stats == {
            "publishes": 1, "hits": 1, "segments": 1,
            "bytes": first.nbytes, "verifies": 1, "corruptions": 0,
        }
        pool.release(("shard", 0))
        assert first.refs == 1
        pool.release(("shard", 0))
        assert first.refs == 0
        assert len(pool) == 1  # an idle segment stays for the next run


def test_pool_close_unlinks_and_rejects_reuse():
    pool = CampaignSegmentPool()
    segment = pool.acquire(("k",), lambda: {"x": np.zeros(16)})
    name = segment.shm.name
    pool.close()
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)
    with pytest.raises(RuntimeError):
        pool.acquire(("k2",), lambda: {"x": np.zeros(16)})


def _keyed_federation(seed=0):
    server, clients = tiny_federation(seed=seed)
    for client in clients:
        client.shard_key = ("tiny", seed, client.client_id)
    return server, clients


def test_campaign_backend_publishes_shards_once_across_runs():
    """Three runs, one warm backend: shard publishes == distinct clients,
    workers survive the template change, results match fresh backends."""
    baseline = []
    for seed in (0, 1, 0):
        server, clients = _keyed_federation(seed=seed)
        with ProcessPoolBackend(max_workers=2) as backend:
            run_federated_training(
                server, clients, rounds=2, seed=3, backend=backend
            )
        baseline.append({k: v.copy() for k, v in server.global_state.items()})

    with CampaignSegmentPool() as pool:
        backend = ProcessPoolBackend(
            max_workers=2, segment_pool=pool, persistent=True
        )
        try:
            campaign = []
            executors = set()
            for seed in (0, 1, 0):
                server, clients = _keyed_federation(seed=seed)
                with backend:  # per-run close() is the soft end_run()
                    run_federated_training(
                        server, clients, rounds=2, seed=3, backend=backend
                    )
                executors.add(id(backend._executor))
                campaign.append(server.global_state)
            # shard identity: 3 distinct clients per seed, two distinct seeds
            assert pool.stats["publishes"] == 6
            assert pool.stats["hits"] == 3
            # one template per run, but one warm worker pool for all of them
            assert backend.stats["template_publishes"] == 3
            assert len(executors) == 1
            for expected, got in zip(baseline, campaign):
                assert set(expected) == set(got)
                for key in expected:
                    assert np.array_equal(expected[key], got[key])
        finally:
            backend.shutdown()


def test_end_run_releases_pool_refs_and_own_segments():
    with CampaignSegmentPool() as pool:
        backend = ProcessPoolBackend(
            max_workers=1, segment_pool=pool, persistent=True
        )
        try:
            server, clients = _keyed_federation()
            unkeyed = clients[0]
            unkeyed.shard_key = None
            for client in clients:
                backend._ensure_shard(client)
            own = [
                r.shm.name
                for r in backend._shards.values()
                if r.pool_key is None
            ]
            assert len(own) == 1
            assert pool.stats["publishes"] == len(clients) - 1
            assert all(s.refs == 1 for s in pool._segments.values())
            backend.close()  # persistent: soft close
            # pool refs released but segments resident; own segment unlinked
            assert all(s.refs == 0 for s in pool._segments.values())
            assert len(pool) == len(clients) - 1
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=own[0])
        finally:
            backend.shutdown()


# ---------------------------------------------------------------------------
# Crash-path cleanup (atexit + fatal signals)
# ---------------------------------------------------------------------------

_CRASH_SCRIPT = textwrap.dedent(
    """
    import signal, sys
    import numpy as np
    from repro.engine.backends import ProcessPoolBackend
    from repro.engine.campaign import CampaignSegmentPool
    from repro.fl.slab import SlabLayout, make_slab_state

    pool = CampaignSegmentPool()
    segment = pool.acquire(("k", 0), lambda: {"x": np.zeros(256)})
    backend = ProcessPoolBackend(max_workers=1)
    state = make_slab_state({"w": np.ones(128)}, SlabLayout([("w", (128,))]))
    slot = backend._publish_state(state)
    print(segment.shm.name)
    print(slot.shm.name)
    sys.stdout.flush()
    if sys.argv[1] == "exit":
        sys.exit(0)          # dies without close(): atexit must unlink
    signal.pause()           # parent delivers SIGTERM: handler must unlink
    """
)


def _run_crash_child(mode):
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    child = subprocess.Popen(
        [sys.executable, "-c", _CRASH_SCRIPT, mode],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    names = [child.stdout.readline().strip() for _ in range(2)]
    assert all(names), "child failed to publish segments"
    if mode == "sigterm":
        child.send_signal(signal.SIGTERM)
    child.wait(timeout=30)
    stderr = child.stderr.read()
    child.stdout.close()
    child.stderr.close()
    return names, stderr


@pytest.mark.parametrize("mode", ["exit", "sigterm"])
def test_dead_process_leaves_no_segments(mode):
    """A run that dies without close() — normal exit or SIGTERM — leaks no
    shared memory: the emergency cleanup unlinks (and unregisters) every
    segment, so not even the resource tracker has leftovers to complain
    about."""
    names, stderr = _run_crash_child(mode)
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
    assert "leaked shared_memory" not in stderr
