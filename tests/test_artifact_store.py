"""Durable artifact store: crash-safety, quarantine/rebuild, warm-start.

The store (``repro.store``) promises that caching artifacts on disk never
changes results: a warm-started campaign is bitwise identical to a cold
one, every read is CRC-verified, and corrupt or torn entries are
quarantined and transparently rebuilt. These tests enforce that promise
under simulated crashes, injected disk chaos, concurrent builders from
separate processes, and a literal ``kill -9`` mid-write.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.core.fedft_eds import FedFTEDSConfig, run_fedft_eds
from repro.core.partial import prepare_partial_model
from repro.data.dataset import ArrayDataset
from repro.engine.campaign import CampaignSegmentPool
from repro.engine.faults import FAULTS, ChaosPlan, install_chaos
from repro.experiments.common import ExperimentHarness
from repro.fl.client import Client
from repro.fl.features import FeatureRuntime
from repro.fl.selection import RandomSelector
from repro.fl.strategies import LocalSolver
from repro.nn.cnn import SmallConvNet
from repro.obs.metrics import reset_exported
from repro.store import (
    STORE,
    ArtifactStore,
    arrays_digest,
    key_digest,
    resolve_store,
)

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

RNG = np.random.default_rng


@pytest.fixture(autouse=True)
def _clean_state():
    reset_exported()
    install_chaos(None)
    yield
    install_chaos(None)


def _arrays(seed=0, n=64):
    rng = RNG(seed)
    return {
        "w": rng.normal(size=(n, 4)),
        "b": rng.integers(0, 9, size=n),
    }


def _payload_path(store, key):
    return store._base(key) + ".npz"


# ---------------------------------------------------------------------------
# Keys and digests
# ---------------------------------------------------------------------------


def test_key_digest_is_structural_not_positional():
    key = ("feat", 3, 1.5, b"\x00\xff", None, ("nested", 7))
    assert key_digest(key) == key_digest(list(key))  # tuple/list agnostic
    assert key_digest(key) != key_digest(("feat", 3, 1.5, b"\x00\xfe", None, ("nested", 7)))
    assert key_digest(1.0) != key_digest(1)  # floats keyed by repr, not value
    with pytest.raises(TypeError, match="unsupported artifact key"):
        key_digest(object())


def test_arrays_digest_is_order_independent_and_content_sensitive():
    a = _arrays(0)
    assert arrays_digest(a) == arrays_digest(dict(reversed(list(a.items()))))
    mutated = {k: v.copy() for k, v in a.items()}
    mutated["w"][0, 0] += 1.0
    assert arrays_digest(a) != arrays_digest(mutated)
    # dtype is part of the identity even when the bytes happen to match
    assert arrays_digest({"x": np.zeros(4, np.float64)}) != arrays_digest(
        {"x": np.zeros(8, np.float32)}
    )


def test_resolve_store_conventions(tmp_path):
    store = ArtifactStore(tmp_path)
    assert resolve_store(store) is store  # instance passes through
    assert resolve_store(None, None) is None  # programmatic default: off
    assert resolve_store(False) is None  # False forces off
    on = resolve_store(None, str(tmp_path))  # cache_dir alone enables
    assert on is not None and on.root == str(tmp_path)
    forced = resolve_store(True, str(tmp_path))
    assert forced is not None and forced.root == str(tmp_path)


@pytest.mark.parametrize(
    "surface", ["resolve_store", "run_fedft_eds", "harness", "cli"]
)
def test_cache_dir_with_store_off_is_refused(
    surface, tmp_path, monkeypatch, capsys
):
    """A cache directory for a store switched off is refused on every
    surface — run_fedft_eds before any setup — and no store is created."""
    from repro.data import synthetic
    from repro.experiments.run_all import main

    def no_setup(*args, **kwargs):
        raise AssertionError("the contradiction surfaced after setup began")

    monkeypatch.setattr(synthetic, "make_vision_world", no_setup)
    cache_dir = str(tmp_path / "cache")
    if surface == "cli":
        with pytest.raises(SystemExit) as exit_info:
            main(
                ["--scale", "smoke", "--cache-dir", cache_dir,
                 "--no-artifact-store"]
            )
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--cache-dir" in err and "--no-artifact-store" in err
    else:
        with pytest.raises(ValueError) as error:
            if surface == "resolve_store":
                resolve_store(False, cache_dir)
            elif surface == "run_fedft_eds":
                run_fedft_eds(
                    FedFTEDSConfig(
                        cache_dir=cache_dir, artifact_store=False, **SMOKE
                    )
                )
            else:
                ExperimentHarness(
                    "smoke", cache_dir=cache_dir, artifact_store=False
                )
        assert "cache_dir" in str(error.value)
        assert "artifact_store=False" in str(error.value)
    assert not os.path.exists(cache_dir)


# ---------------------------------------------------------------------------
# Round-trips and counters
# ---------------------------------------------------------------------------


def test_put_get_roundtrip_preserves_bytes_and_dtypes(tmp_path):
    store = ArtifactStore(tmp_path)
    key = ("feat", "shard", 0)
    arrays = _arrays(1)
    assert store.put(key, arrays)
    assert not store.put(key, _arrays(2))  # present: second put is a no-op
    assert store.contains(key)
    loaded = store.get(key)
    assert set(loaded) == set(arrays)
    for name in arrays:
        assert loaded[name].dtype == arrays[name].dtype
        assert loaded[name].tobytes() == arrays[name].tobytes()
    assert store.get(("feat", "shard", 1)) is None
    assert STORE["writes"] == 1 and STORE["verifies"] == 1
    assert STORE["hits"] == 1 and STORE["misses"] == 1
    assert STORE["bytes"] > 0


def test_json_roundtrip(tmp_path):
    store = ArtifactStore(tmp_path)
    value = {"acc": [0.5, 0.75], "label": "baseline", "n": 3}
    assert store.put_json(("bench", "table2"), value)
    assert store.get_json(("bench", "table2")) == value
    assert store.get_json(("bench", "missing")) is None


def test_get_or_build_builds_once_then_avoids(tmp_path):
    store = ArtifactStore(tmp_path)
    calls = []

    def factory():
        calls.append(1)
        return _arrays(3)

    value, built = store.get_or_build(("pretrain", 1), factory)
    assert built and len(calls) == 1
    again, built2 = store.get_or_build(("pretrain", 1), factory)
    assert not built2 and len(calls) == 1
    assert again["w"].tobytes() == value["w"].tobytes()
    assert STORE["builds_avoided"] == 1 and STORE["misses"] == 1


# ---------------------------------------------------------------------------
# Quarantine: torn writes, corruption, poisoned keys
# ---------------------------------------------------------------------------


def test_torn_entry_is_quarantined_and_rebuilt(tmp_path):
    store = ArtifactStore(tmp_path)
    key = ("feat", "torn")
    arrays = _arrays(4)
    store.put(key, arrays)
    os.unlink(store._base(key) + ".meta")  # crash window: payload, no sidecar
    value, built = store.get_or_build(key, lambda: _arrays(4))
    assert built
    assert value["w"].tobytes() == arrays["w"].tobytes()
    assert STORE["quarantines"] == 1 and STORE["rebuilds"] == 1
    assert STORE["poisoned"] == 0
    assert os.listdir(store.quarantine_dir)  # the torn payload was kept


def test_corrupt_entry_is_quarantined_and_rebuilt_bitwise(tmp_path):
    store = ArtifactStore(tmp_path)
    key = ("feat", "flip")
    arrays = _arrays(5)
    store.put(key, arrays)
    with open(_payload_path(store, key), "r+b") as f:
        f.seek(7)
        byte = f.read(1)
        f.seek(7)
        f.write(bytes([byte[0] ^ 0xFF]))
    assert store.get(key) is None  # CRC catches the flip
    assert STORE["corruptions"] == 1 and STORE["quarantines"] == 1
    value, built = store.get_or_build(key, lambda: _arrays(5))
    assert built and STORE["rebuilds"] == 1 and STORE["poisoned"] == 0
    assert value["w"].tobytes() == arrays["w"].tobytes()
    assert store.get(key)["w"].tobytes() == arrays["w"].tobytes()


def test_under_pinned_key_is_reported_as_poisoned(tmp_path):
    store = ArtifactStore(tmp_path)
    key = ("feat", "under-pinned")
    store.put(key, _arrays(6))
    with open(_payload_path(store, key), "r+b") as f:
        f.write(b"\xde\xad")
    # the rebuild produces different bytes than the sidecar recorded: the
    # key must not pretend the warm path is reproducible
    with pytest.warns(RuntimeWarning, match="poisoned"):
        value, built = store.get_or_build(key, lambda: _arrays(7))
    assert built and STORE["poisoned"] == 1 and STORE["rebuilds"] == 1
    assert value["w"].tobytes() == _arrays(7)["w"].tobytes()


def test_mangled_sidecar_is_quarantined(tmp_path):
    store = ArtifactStore(tmp_path)
    key = ("feat", "mangled")
    store.put(key, _arrays(8))
    with open(store._base(key) + ".meta", "w") as f:
        f.write("{not json")
    assert store.get(key) is None
    assert STORE["quarantines"] == 1
    assert not store.contains(key)


# ---------------------------------------------------------------------------
# Locks
# ---------------------------------------------------------------------------


def test_stale_lock_from_dead_process_is_broken(tmp_path):
    store = ArtifactStore(tmp_path)
    key = ("pretrain", "locked")
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    with open(store._base(key) + ".lock", "w") as f:
        f.write(f"{proc.pid} {time.time():.3f}")  # owner is gone
    value, built = store.get_or_build(key, lambda: _arrays(9))
    assert built and STORE["locks_broken"] >= 1
    assert not os.path.exists(store._base(key) + ".lock")


def test_aged_mangled_lock_is_broken(tmp_path):
    store = ArtifactStore(tmp_path, stale_lock_after=0.01)
    key = ("pretrain", "aged")
    lock_path = store._base(key) + ".lock"
    with open(lock_path, "w") as f:
        f.write("")  # no pid recorded: only the age check can break it
    past = time.time() - 60.0
    os.utime(lock_path, (past, past))
    value, built = store.get_or_build(key, lambda: _arrays(10))
    assert built and STORE["locks_broken"] >= 1


# ---------------------------------------------------------------------------
# LRU GC, pins, spills
# ---------------------------------------------------------------------------


def test_trim_evicts_lru_but_never_pinned(tmp_path):
    store = ArtifactStore(tmp_path)
    keys = [("feat", i) for i in range(3)]
    for i, key in enumerate(keys):
        store.put(key, _arrays(i))
        stamp = 100.0 * (i + 1)
        os.utime(_payload_path(store, key), (stamp, stamp))
    store.pin(keys[1])
    assert store.trim(byte_budget=0) == 2  # everything unpinned goes, LRU first
    assert not store.contains(keys[0]) and not store.contains(keys[2])
    assert store.contains(keys[1])
    assert STORE["evictions"] == 2
    store.unpin(keys[1])
    assert store.trim(byte_budget=0) == 1


def test_spill_lands_only_when_disk_entry_is_gone(tmp_path):
    store = ArtifactStore(tmp_path)
    key = ("feat", "spillee")
    arrays = _arrays(11)
    store.put(key, arrays)
    assert not store.spill(key, arrays)  # already durable: a no-op
    assert STORE["spills"] == 0
    store.trim(byte_budget=0)  # disk GC claims it
    assert store.spill(key, arrays)
    assert STORE["spills"] == 1
    assert store.get(key)["w"].tobytes() == arrays["w"].tobytes()


# ---------------------------------------------------------------------------
# Chaos: disk-tear / disk-corrupt through the store write path
# ---------------------------------------------------------------------------


def test_disk_tear_chaos_leaves_torn_entry_then_rebuild(tmp_path):
    store = ArtifactStore(tmp_path)
    key = ("feat", "chaos-tear")
    install_chaos(ChaosPlan.parse("disk-tear@0"))
    assert not store.put(key, _arrays(12))  # commit aborted before sidecar
    assert FAULTS["chaos_disk_tears"] == 1
    assert not store.contains(key)
    assert os.path.exists(_payload_path(store, key))  # the torn payload
    install_chaos(None)
    value, built = store.get_or_build(key, lambda: _arrays(12))
    assert built and STORE["quarantines"] == 1 and STORE["rebuilds"] == 1
    assert STORE["poisoned"] == 0
    assert store.get(key)["w"].tobytes() == _arrays(12)["w"].tobytes()


def test_disk_corrupt_chaos_flips_committed_byte_then_rebuild(tmp_path):
    store = ArtifactStore(tmp_path)
    key = ("feat", "chaos-flip")
    install_chaos(ChaosPlan.parse("disk-corrupt@0", seed=3))
    assert store.put(key, _arrays(13))  # commit succeeds, then the flip
    assert FAULTS["chaos_disk_corruptions"] == 1
    install_chaos(None)
    assert store.get(key) is None
    assert STORE["corruptions"] == 1 and STORE["quarantines"] == 1
    value, built = store.get_or_build(key, lambda: _arrays(13))
    assert built and STORE["rebuilds"] == 1 and STORE["poisoned"] == 0
    assert value["w"].tobytes() == _arrays(13)["w"].tobytes()


# ---------------------------------------------------------------------------
# Cross-process robustness: concurrent builders, kill -9 mid-write
# ---------------------------------------------------------------------------

_BUILDER = textwrap.dedent(
    """
    import sys, time
    sys.path.insert(0, sys.argv[3])
    import numpy as np
    from repro.store import ArtifactStore

    store = ArtifactStore(sys.argv[1])

    def factory():
        with open(sys.argv[2], "w") as f:
            f.write("built")
        time.sleep(0.4)  # widen the window the loser must wait out
        return {"v": np.arange(512, dtype=np.int64)}

    value, built = store.get_or_build(("concurrent", 1), factory)
    print(int(built), int(value["v"].sum()))
    """
)


def test_two_processes_share_one_build(tmp_path):
    """Two campaigns pointed at one cache dir: exactly one builds."""
    procs = [
        subprocess.Popen(
            [
                sys.executable, "-c", _BUILDER,
                str(tmp_path / "cache"), str(tmp_path / f"marker{i}"), REPO_SRC,
            ],
            stdout=subprocess.PIPE, text=True,
        )
        for i in range(2)
    ]
    outputs = [proc.communicate(timeout=120)[0].split() for proc in procs]
    assert all(proc.returncode == 0 for proc in procs)
    builds = sum(int(built) for built, _ in outputs)
    markers = [p for p in os.listdir(tmp_path) if p.startswith("marker")]
    assert builds == 1 and len(markers) == 1  # single-builder semantics
    expected = str(np.arange(512, dtype=np.int64).sum())
    assert all(total == expected for _, total in outputs)


_HAMMER = textwrap.dedent(
    """
    import sys
    sys.path.insert(0, sys.argv[2])
    import numpy as np
    from repro.store import ArtifactStore

    store = ArtifactStore(sys.argv[1])
    print("ready", flush=True)
    i = 0
    while True:
        arrays = {"x": np.full((64, 1024), i % 4, dtype=np.float64)}
        store.put(("k", i % 4), arrays, overwrite=True)
        i += 1
    """
)


def test_kill_nine_mid_write_leaves_loadable_store(tmp_path):
    """SIGKILL a writer hammering the store; survivors must load cleanly."""
    root = str(tmp_path / "cache")
    proc = subprocess.Popen(
        [sys.executable, "-c", _HAMMER, root, REPO_SRC],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        assert proc.stdout.readline().strip() == "ready"
        time.sleep(0.3)  # let it get mid-flight
    finally:
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    store = ArtifactStore(root)
    for i in range(4):
        expected = {"x": np.full((64, 1024), i, dtype=np.float64)}
        value = store.get(("k", i))
        if value is not None:  # survived intact: must verify bitwise
            assert value["x"].tobytes() == expected["x"].tobytes()
        # torn/corrupt/missing entries (and any stale lock the dead writer
        # left) must not block a rebuild
        value, _ = store.get_or_build(("k", i), lambda e=expected: dict(e))
        assert value["x"].tobytes() == expected["x"].tobytes()
    assert store.put(("fresh", 0), _arrays(14))  # store still writable
    assert STORE["poisoned"] == 0


# ---------------------------------------------------------------------------
# Byte-budget LRU extension: runtime and pool spill to disk
# ---------------------------------------------------------------------------


def _feature_world(num_clients=2):
    model = SmallConvNet(4, RNG(0), channels=(4, 4, 4))
    prepare_partial_model(model, "moderate")
    clients = []
    for i in range(num_clients):
        x = RNG(10 + i).normal(size=(20, 3, 8, 8))
        y = RNG(20 + i).integers(0, 4, size=20)
        clients.append(
            Client(
                i, ArrayDataset(x, y), RandomSelector(),
                LocalSolver(batch_size=8), 0.5, 1, RNG(30 + i),
                shard_key=("shard", i),
            )
        )
    return model, clients


def test_feature_runtime_extends_lru_to_disk(tmp_path):
    """A fresh runtime on a warm store serves a shard's features from
    disk, without a forward pass."""
    store = ArtifactStore(tmp_path)
    model, clients = _feature_world()
    first = FeatureRuntime(store=store).features_for(clients[0], model)
    runtime = FeatureRuntime(store=store)
    again = runtime.features_for(clients[0], model)
    assert runtime.stats["builds"] == runtime.stats["derived"] == 0
    assert again.tobytes() == first.tobytes()


def test_segment_pool_reads_through_and_spills(tmp_path):
    """A fresh pool on a warm store publishes a feature segment from disk,
    without running its factory."""
    from repro.engine.backends import _view_arrays

    store = ArtifactStore(tmp_path)
    arrays = {"f": np.arange(4096, dtype=np.float64).reshape(64, 64)}
    calls = []

    def factory():
        calls.append(1)
        return {k: v.copy() for k, v in arrays.items()}

    key = ("feat", "seed", 0)
    with CampaignSegmentPool(store=store) as pool:
        pool.acquire(key, factory)
        assert len(calls) == 1 and store.contains(key)  # published durably
        pool.release(key)
    with CampaignSegmentPool(store=store) as pool:
        segment = pool.acquire(key, factory)  # published from disk
        assert len(calls) == 1  # the factory never ran again
        view = _view_arrays(segment.shm.buf, segment.layout)
        assert bytes(view["f"].tobytes()) == arrays["f"].tobytes()
        pool.release(key)


# ---------------------------------------------------------------------------
# Warm-start bitwise identity: campaign and harness integration
# ---------------------------------------------------------------------------

SMOKE = dict(
    rounds=2,
    num_clients=3,
    train_size=120,
    test_size=60,
    pretrain_epochs=1,
    local_epochs=1,
    image_size=8,
)


def _signature(result):
    return (
        np.asarray(result.history.accuracies).tobytes(),
        tuple(
            (k, v.tobytes()) for k, v in sorted(result.model.state_dict().items())
        ),
    )


@pytest.mark.parametrize(
    "mode,backend",
    [("sync", "serial"), ("fedasync", "serial"), ("sync", "process")],
)
def test_warm_start_is_bitwise_identical(tmp_path, mode, backend):
    cfg = dict(seed=5, mode=mode, backend=backend, **SMOKE)
    plain = _signature(run_fedft_eds(FedFTEDSConfig(**cfg)))
    cold = _signature(
        run_fedft_eds(FedFTEDSConfig(cache_dir=str(tmp_path), **cfg))
    )
    assert STORE["writes"] > 0  # the cold run populated the store
    avoided, writes = STORE["builds_avoided"], STORE["writes"]
    warm = _signature(
        run_fedft_eds(FedFTEDSConfig(cache_dir=str(tmp_path), **cfg))
    )
    assert STORE["builds_avoided"] > avoided  # pretrain + features reused
    assert STORE["writes"] == writes  # and nothing was rebuilt
    assert plain == cold == warm


def test_disk_chaos_campaign_recovers_bitwise(tmp_path):
    """A corrupted cold cache heals on the next campaign, bitwise."""
    cfg = dict(seed=5, **SMOKE)
    plain = _signature(run_fedft_eds(FedFTEDSConfig(**cfg)))
    # store write 0 (the pretrained backbone) is torn, write 1 (the first
    # feature shard) corrupted after commit — the run itself is unaffected
    chaotic = _signature(
        run_fedft_eds(
            FedFTEDSConfig(
                cache_dir=str(tmp_path),
                chaos="disk-tear@0;disk-corrupt@1",
                **cfg,
            )
        )
    )
    assert FAULTS["chaos_disk_tears"] == 1
    assert FAULTS["chaos_disk_corruptions"] == 1
    assert chaotic == plain
    # the next campaign must quarantine both damaged entries, rebuild them,
    # prove the rebuilds bitwise (no poisoned keys), and match exactly
    warm = _signature(
        run_fedft_eds(FedFTEDSConfig(cache_dir=str(tmp_path), **cfg))
    )
    assert warm == plain
    assert STORE["corruptions"] >= 1
    assert STORE["quarantines"] >= 2
    assert STORE["rebuilds"] >= 2
    assert STORE["poisoned"] == 0
    assert os.listdir(os.path.join(tmp_path, "quarantine"))
    # healed: one more campaign is a pure warm start
    avoided = STORE["builds_avoided"]
    assert _signature(
        run_fedft_eds(FedFTEDSConfig(cache_dir=str(tmp_path), **cfg))
    ) == plain
    assert STORE["builds_avoided"] > avoided


def test_harness_pretrained_state_warm_starts_across_campaigns(tmp_path):
    def campaign_state():
        with ExperimentHarness(
            "smoke", seed=0, cache_dir=str(tmp_path)
        ) as harness:
            state = harness.pretrained_state("main", "cifar10")
            return {k: v.tobytes() for k, v in state.items()}

    cold = campaign_state()
    avoided, writes = STORE["builds_avoided"], STORE["writes"]
    warm = campaign_state()
    assert warm == cold
    assert STORE["builds_avoided"] > avoided
    assert STORE["writes"] == writes
