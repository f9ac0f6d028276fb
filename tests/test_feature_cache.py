"""Frozen-feature cache: bitwise equivalence, invalidation, lifecycle.

The cache (``repro.fl.features``) promises that head-only execution over
materialised ϕ(x) reproduces the full-forward path *exactly* — same
EventLog, same accuracies, same θ trajectory — under every execution
backend. These tests are that promise's enforcement, plus the supporting
invariants: row-deterministic layer forwards, fingerprint keying and
invalidation, θ-only server loads, pooled evaluation's exact reduction,
and shared-memory lifecycle for the new segment kinds.

The full-forward reference is a serial backend without a
:class:`~repro.fl.features.FeatureRuntime` for the rounds and
``batched_logits`` over the raw test inputs for evaluation
(:class:`_FullForwardServer`); it runs in-process, since patches do not
reach process workers started with spawn.
"""

import gc
import json
import os
import signal
import subprocess
import sys
import textwrap
import weakref

import numpy as np
import pytest

from multiprocessing import shared_memory

from repro.core import fedft_eds
from repro.core.fedft_eds import FedFTEDSConfig, run_fedft_eds
from repro.core.heterogeneous import CapabilityTier, TieredClient
from repro.core.partial import adapt_to_task, prepare_partial_model
from repro.data.dataset import ArrayDataset
from repro.data.partition import iid_partition
from repro.engine.aggregators import make_aggregator
from repro.engine.backends import (
    PooledEvaluator,
    ProcessPoolBackend,
    SerialBackend,
)
from repro.engine.runner import run_async_federated_training
from repro.fl.client import Client
from repro.fl.features import FeatureRuntime, compute_features
from repro.fl.rounds import run_federated_training
from repro.fl.selection import EntropySelector, RandomSelector, batched_logits
from repro.fl.server import Server
from repro.fl.strategies import LocalSolver
from repro.fl.timing import TimingModel
from repro.nn import functional as F
from repro.nn.cnn import SmallConvNet
from repro.nn.fused import head_ops
from repro.nn.linear import Linear
from repro.nn.mlp import MLP
from repro.nn.module import Module, Sequential
from repro.nn.serialization import theta_keys
from repro.testbed import ENGINE_SMOKE

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

RNG = np.random.default_rng


def _states_bitwise_equal(a, b):
    return set(a) == set(b) and all(
        a[k].tobytes() == b[k].tobytes() for k in a
    )


# ---------------------------------------------------------------------------
# Row-determinism invariants (the numerical bedrock of the cache)
# ---------------------------------------------------------------------------


def test_linear_singleton_batch_is_row_canonical():
    """A 1-row forward matches the same row inside a larger batch exactly.

    BLAS would dispatch the singleton to gemv (different summation order);
    Linear routes it through the gemm path instead.
    """
    layer = Linear(37, 11, RNG(0))
    x = RNG(1).normal(size=(16, 37))
    full = layer(x)
    for i in (0, 7, 15):
        single = layer(x[i : i + 1])
        assert single.tobytes() == full[i : i + 1].tobytes()


def test_linear_empty_batch_still_works():
    layer = Linear(5, 3, RNG(0))
    out = layer(np.zeros((0, 5)))
    assert out.shape == (0, 3)


def test_conv_forward_is_row_deterministic():
    """A sample's conv output is bitwise independent of its batch.

    Guards the batched-matmul contraction: the einsum it replaced folded
    the whole batch into one BLAS call whose kernel choice — and rounding
    — varied with total size (observably at small channel counts).
    """
    model = SmallConvNet(4, RNG(0), channels=(4, 4, 4))
    model.eval()
    x = RNG(1).normal(size=(40, 3, 8, 8))
    full = model(x)
    idx = np.array([3, 9, 17])
    assert model(x[idx]).tobytes() == full[idx].tobytes()
    assert model(x[5:6]).tobytes() == full[5:6].tobytes()


def test_features_match_in_batch_phi_rows():
    model = SmallConvNet(4, RNG(0), channels=(4, 4, 4))
    prepare_partial_model(model, "moderate")
    x = RNG(1).normal(size=(50, 3, 8, 8))
    features = compute_features(model, x, batch_size=16)
    model.eval()
    idx = np.array([1, 8, 33, 49])
    assert model.forward_features(x[idx]).tobytes() == features[idx].tobytes()
    # and the head over cached rows equals the full forward
    assert model.forward_head(features[idx]).tobytes() == model(x[idx]).tobytes()


# ---------------------------------------------------------------------------
# Fingerprinting and cache keying
# ---------------------------------------------------------------------------


#: ``phi_prefix_chain()`` of ``SmallConvNet(4, RNG(0), channels=(4, 4, 4))``
#: at the ``moderate`` split, as computed before the chain was memoized:
#: artifact stores keyed by earlier builds must stay warm.
PINNED_MODERATE_CHAIN = [
    "d4bd7437499333dc78c8e392b1aa3cb5",
    "e1ec9346b84b3d42846bcedda91a746a",
    "5e3849f5a0a88f9fa77b237ee22329e0",
]


def _phi_mutations(model):
    """``(name, edit, stat)`` triples, applied in order, each of which must
    change a ``moderate`` SmallConvNet's fingerprint even right after a memo
    hit. ``stat`` is the ``FeatureRuntime`` counter the edit must raise: an
    edit to the stem changes every prefix digest, so nothing cached can be
    reused and only a full ``builds`` is correct; the switch to a deeper
    split keeps the cached ``moderate`` prefix and is ``derived`` from it."""
    conv = model.stem.layers[0].weight
    norm = model.stem.layers[1]

    def add_in_place():
        conv.data += 1e-3

    def write_running_stat():
        norm.running_var[0] += 0.5

    def flip_zero_sign():
        # value-equal, byte-different: only a byte comparison sees it
        assert norm.running_mean[1] == 0.0
        assert not np.signbit(norm.running_mean[1])
        norm.running_mean[1] = -0.0

    def switch_level():
        prepare_partial_model(model, "classifier")

    return [
        ("in-place += on a ϕ weight", add_in_place, "builds"),
        ("write into a ϕ BatchNorm running stat", write_running_stat, "builds"),
        ("ϕ element 0.0 -> -0.0", flip_zero_sign, "builds"),
        ("another fine-tune level", switch_level, "derived"),
    ]


def test_phi_fingerprint_keys_the_split_and_the_weights():
    model = SmallConvNet(4, RNG(0), channels=(4, 4, 4))
    prepare_partial_model(model, "moderate")
    moderate = model.phi_fingerprint()
    assert moderate is not None
    assert model.phi_prefix_chain() == PINNED_MODERATE_CHAIN
    # stable across recomputation
    assert model.phi_fingerprint() == moderate
    # the returned chain is the caller's: editing it leaves the memo alone
    chain = model.phi_prefix_chain()
    chain[-1] = "edited"
    chain.append("appended")
    assert model.phi_prefix_chain() == PINNED_MODERATE_CHAIN
    # rebinding a ϕ tensor to an equal-bytes copy is no change to ϕ
    conv = model.stem.layers[0].weight
    conv.data = conv.data.copy()
    assert model.phi_fingerprint() == moderate
    # every edit to ϕ's content changes it, right after a memo hit
    for name, mutate, _stat in _phi_mutations(model):
        before = model.phi_fingerprint()
        assert model.phi_fingerprint() == before
        mutate()
        assert model.phi_fingerprint() != before, name
    # a different split is a different ϕ
    prepare_partial_model(model, "moderate")
    moderate = model.phi_fingerprint()
    prepare_partial_model(model, "classifier")
    assert model.phi_fingerprint() != moderate
    # no frozen prefix -> no fingerprint (nothing to cache)
    prepare_partial_model(model, "full")
    assert model.phi_fingerprint() is None
    # different ϕ weights -> different fingerprint
    prepare_partial_model(model, "moderate")
    with_weights = model.phi_fingerprint()
    model.stem.layers[0].weight.data += 1e-3
    assert model.phi_fingerprint() != with_weights


def test_phi_fingerprint_memo_does_not_keep_the_model_alive():
    """The structure memo holds the model's parameters, ϕ arrays and (for
    ``head_ops``) its head layers, never the model: a model dies with its
    last reference, memo and all."""
    from repro.nn import segmented

    for build in (
        lambda: SmallConvNet(4, RNG(0), channels=(4, 4, 4)),
        lambda: MLP(48, (16, 16, 16), 5, RNG(1)),  # a head with a plan
    ):
        model = build()
        prepare_partial_model(model, "moderate")
        assert model.phi_fingerprint() is not None
        head_ops(model)
        assert segmented._STRUCTURES[model].head is not None
        alive = weakref.ref(model)
        del model
        gc.collect()
        assert alive() is None


def _structure_answers(model):
    """Everything the structure memo answers: split, head signature, chain."""
    return (
        model.frozen_split_index(),
        head_ops(model)[1],
        model.phi_prefix_chain(),
    )


def _memo_mlp():
    model = MLP(48, (16, 16, 16), 5, RNG(1))
    prepare_partial_model(model, "moderate")
    return model


#: structural edits the memo must see, each applied right after a hit
_STRUCTURE_EDITS = {
    "freeze": lambda model: model.up.freeze(),
    "unfreeze": lambda model: model.mid.unfreeze(),
    "fine_tune_level": lambda model: model.apply_fine_tune_level(
        "large"
    ),
    "requires_grad_flip": lambda model: setattr(
        model.head.layers[0].bias, "requires_grad", False
    ),
    "data_rebound": lambda model: setattr(
        model.low.layers[0].weight, "data",
        model.low.layers[0].weight.data + 1e-3,
    ),
    "new_head": lambda model: adapt_to_task(model, 7, RNG(5)),
    "register_buffer": lambda model: model.mid.layers[0].register_buffer(
        "offset", np.full(16, 0.5)
    ),
}


@pytest.mark.parametrize("edit", sorted(_STRUCTURE_EDITS))
def test_structure_memo_follows_every_structural_edit(edit):
    """Right after a memo hit, each structural edit gives the split, head
    signature and ϕ chain of a freshly built model in the same state.
    The fresh model is built and edited first: building a model advances
    the structure epoch, which would hide a stale identity check."""
    apply = _STRUCTURE_EDITS[edit]
    fresh = _memo_mlp()
    apply(fresh)
    expected = _structure_answers(fresh)
    model = _memo_mlp()
    before = _structure_answers(model)
    assert _structure_answers(model) == before  # a hit
    assert before != expected, edit  # the edit matters
    apply(model)
    assert _structure_answers(model) == expected, edit


def test_feature_runtime_builds_once_and_invalidates_on_phi_change():
    model = SmallConvNet(4, RNG(0), channels=(4, 4, 4))
    prepare_partial_model(model, "moderate")
    x = RNG(1).normal(size=(30, 3, 8, 8))
    y = RNG(2).integers(0, 4, size=30)
    client = Client(
        0, ArrayDataset(x, y), RandomSelector(), LocalSolver(batch_size=8),
        0.5, 1, RNG(3), shard_key=("shard", 0),
    )
    runtime = FeatureRuntime()
    first = runtime.features_for(client, model)
    again = runtime.features_for(client, model)
    assert first is again
    assert runtime.stats["builds"] == 1 and runtime.stats["hits"] == 1
    # mutating ϕ changes the fingerprint: a fresh entry is built (derived
    # only for the deeper split), the stale one can never be served for the
    # new ϕ — also right after a fingerprint memo hit
    for step, (name, mutate, stat) in enumerate(_phi_mutations(model)):
        cached = runtime.features_for(client, model)
        before = dict(runtime.stats)
        mutate()
        assert runtime.features_for(client, model) is not cached, name
        other = "derived" if stat == "builds" else "builds"
        assert runtime.stats[stat] == before[stat] + 1, name
        assert runtime.stats[other] == before[other], name
        if step == 0:
            assert runtime.stats["builds"] == 2
    # no frozen prefix -> no features
    prepare_partial_model(model, "full")
    assert runtime.features_for(client, model) is None


def test_feature_runtime_anonymous_entries_die_with_the_client():
    model = SmallConvNet(4, RNG(0), channels=(4, 4, 4))
    prepare_partial_model(model, "moderate")
    x = RNG(1).normal(size=(20, 3, 8, 8))
    y = RNG(2).integers(0, 4, size=20)
    runtime = FeatureRuntime()
    client = Client(
        0, ArrayDataset(x, y), RandomSelector(), LocalSolver(batch_size=8),
        0.5, 1, RNG(3),
    )
    assert client.shard_key is None
    assert runtime.features_for(client, model) is not None
    assert len(runtime) == 1
    del client
    assert len(runtime) == 0


def test_process_backend_feature_segments_invalidate_on_phi_change():
    """The parent-side segment memo is fingerprint-keyed, so a mutated ϕ
    builds a fresh segment instead of serving the stale one."""
    model = SmallConvNet(4, RNG(0), channels=(4, 4, 4))
    prepare_partial_model(model, "moderate")
    x = RNG(1).normal(size=(20, 3, 8, 8))
    y = RNG(2).integers(0, 4, size=20)
    client = Client(
        0, ArrayDataset(x, y), RandomSelector(), LocalSolver(batch_size=8),
        0.5, 1, RNG(3),
    )
    backend = ProcessPoolBackend(max_workers=1, feature_runtime=FeatureRuntime())
    try:
        first = backend._ensure_features(client, model)
        assert backend._ensure_features(client, model) is first
        model.stem.layers[0].weight.data += 1e-3
        rebuilt = backend._ensure_features(client, model)
        assert rebuilt is not first
        assert backend.stats["feature_segments"] == 2
    finally:
        backend.shutdown()


def test_tiered_clients_opt_out_of_the_cache():
    model = SmallConvNet(4, RNG(0), channels=(4, 4, 4))
    prepare_partial_model(model, "moderate")
    x = RNG(1).normal(size=(20, 3, 8, 8))
    y = RNG(2).integers(0, 4, size=20)
    client = TieredClient(
        0, ArrayDataset(x, y), RandomSelector(), LocalSolver(batch_size=8),
        0.5, 1, RNG(3), CapabilityTier("weak", "classifier"),
    )
    runtime = FeatureRuntime()
    assert runtime.features_for(client, model) is None
    with pytest.raises(ValueError):
        client.run_round(model, model.state_dict(), features=x)


# ---------------------------------------------------------------------------
# End-to-end bitwise equivalence (the acceptance contract)
# ---------------------------------------------------------------------------


def _run(config_kwargs):
    result = run_fedft_eds(FedFTEDSConfig(**config_kwargs))
    return result.history.records, {
        k: v.copy() for k, v in result.server.global_state.items()
    }


class _FullForwardServer(Server):
    """Reference evaluation: load the full state and run the full forward
    through ϕ over the raw test inputs."""

    def evaluate(self, batch_size: int = 512) -> float:
        self.model.load_state_dict(self.global_state)
        x, y = self.test_set.arrays()
        return F.accuracy(batched_logits(self.model, x, batch_size), y)


def _run_full_forward(config_kwargs):
    """The uncached reference run: full-forward rounds and evaluations.

    Every run gets a serial backend without a FeatureRuntime, so each
    client round runs the full forward through ϕ.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Server, "evaluate", _FullForwardServer.evaluate)
        patch.setattr(
            fedft_eds, "make_backend", lambda *args, **kwargs: SerialBackend()
        )
        return _run(config_kwargs)


def test_sync_equivalence_cached_vs_full_forward():
    base = dict(ENGINE_SMOKE, model="cnn", seed=3)
    cached_records, cached_state = _run(base)
    full_records, full_state = _run_full_forward(base)
    assert cached_records == full_records
    assert _states_bitwise_equal(cached_state, full_state)


def test_sync_equivalence_mlp_singleton_batches():
    """Selection fractions that induce 1-sample minibatches (the BLAS gemv
    edge) stay bitwise identical through the MLP's dense ϕ."""
    base = dict(
        ENGINE_SMOKE, model="mlp", seed=5, selection_fraction=0.02,
    )
    cached_records, cached_state = _run(base)
    full_records, full_state = _run_full_forward(base)
    assert cached_records == full_records
    assert _states_bitwise_equal(cached_state, full_state)


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_async_equivalence_cached_backends_vs_full_forward(backend):
    """Every backend's cached EventLog and final weights match the
    uncached serial reference bit for bit (dropout events included)."""
    base = dict(
        ENGINE_SMOKE, model="cnn", seed=7, mode="fedasync",
        dropout_probability=0.2,
    )
    reference_records, reference_state = _run_full_forward(base)
    records, state = _run(dict(base, backend=backend, max_workers=2))
    assert records == reference_records
    assert _states_bitwise_equal(state, reference_state)


class _Dropout(Module):
    """Inverted dropout (a test stand-in): random in train mode, the
    identity in eval mode, which is how ϕ always runs."""

    def __init__(self, p, rng):
        super().__init__()
        self.p = p
        self.rng = rng

    def forward(self, x):
        if not self.training:
            return x
        keep = 1.0 - self.p
        return x * (self.rng.random(x.shape) < keep) / keep


def test_dropout_and_norm_in_phi_are_deterministic():
    """Dropout in ϕ is identity (ϕ always runs in eval mode) and frozen
    BatchNorm uses its running stats, so cached features are reproducible
    and the cached round matches the full forward exactly."""
    def build():
        model = SmallConvNet(4, RNG(0), channels=(4, 4, 4))
        # inject dropout into what will become ϕ
        low = model.low
        model.low = Sequential(*low.layers, _Dropout(0.5, RNG(9)))
        prepare_partial_model(model, "moderate")
        return model

    x = RNG(1).normal(size=(30, 3, 8, 8))
    y = RNG(2).integers(0, 4, size=30)

    model = build()
    features = compute_features(model, x)
    assert features.tobytes() == compute_features(model, x).tobytes()

    def one_round(features):
        model = build()
        client = Client(
            0, ArrayDataset(x, y), EntropySelector(),
            LocalSolver(lr=0.05, batch_size=8), 0.4, 2, RNG(4),
        )
        state = model.state_dict()
        update = client.run_round(model, state, features=features)
        return update

    cached = one_round(compute_features(build(), x))
    full = one_round(None)
    assert cached.mean_loss == full.mean_loss
    assert _states_bitwise_equal(cached.theta, full.theta)


# ---------------------------------------------------------------------------
# Server evaluation: θ-only loads, feature reuse, pooled jobs
# ---------------------------------------------------------------------------


def _conv_federation(num_clients=3, full_forward=False, samples=90, test=48):
    rng = RNG(0)
    x = rng.normal(size=(samples, 3, 8, 8))
    y = rng.integers(0, 4, size=samples)
    model = SmallConvNet(4, RNG(1), channels=(4, 4, 4))
    prepare_partial_model(model, "moderate")
    shards = iid_partition(y, num_clients, RNG(2))
    clients = [
        Client(
            i, ArrayDataset(x, y).subset(shard), EntropySelector(),
            LocalSolver(lr=0.05, batch_size=8), 0.3, 1, RNG(10 + i),
            shard_key=("conv", i),
        )
        for i, shard in enumerate(shards)
    ]
    server_cls = _FullForwardServer if full_forward else Server
    server = server_cls(model, ArrayDataset(x[:test], y[:test]))
    return server, clients


def test_server_evaluate_theta_only_loads_and_feature_reuse():
    cached_server, clients = _conv_federation()
    full_server, _ = _conv_federation(full_forward=True)
    for _ in range(3):
        assert cached_server.evaluate() == full_server.evaluate()
    assert cached_server.eval_stats["full_loads"] == 1
    assert cached_server.eval_stats["theta_loads"] == 2
    assert cached_server.eval_stats["feature_builds"] == 1
    # after a round, both servers still agree (θ changed, ϕ did not)
    backend = SerialBackend()
    for server in (cached_server, full_server):
        history = run_federated_training(
            server, clients, rounds=1, seed=3, backend=backend
        )
    assert cached_server.evaluate() == full_server.evaluate()


def test_server_evaluate_self_heals_after_workspace_phi_mutation():
    """Tiered/heterogeneous flows train ϕ segments inside the server's
    workspace model; the θ-only fast path must detect the dirty backbone
    (by fingerprint) and fall back to a full reload, matching the seed
    full-load behaviour exactly."""
    cached_server, _ = _conv_federation()
    reference, _ = _conv_federation(full_forward=True)
    assert cached_server.evaluate() == reference.evaluate()
    # simulate a tiered client retraining part of ϕ in the workspace
    for server in (cached_server, reference):
        server.model.mid.layers[0].weight.data += 0.05
    assert cached_server.evaluate() == reference.evaluate()
    assert cached_server.eval_stats["full_loads"] == 2  # self-healed
    # clean workspace again: the fast path resumes
    assert cached_server.evaluate() == reference.evaluate()
    assert cached_server.eval_stats["theta_loads"] == 1


def test_pooled_evaluation_is_bitwise_exact_and_publishes_once():
    runtime = FeatureRuntime()
    backend = ProcessPoolBackend(
        max_workers=2, persistent=True, feature_runtime=runtime,
    )
    pool = backend.segment_pool
    try:
        for _ in range(2):  # two runs of one campaign
            server, clients = _conv_federation()
            reference, _ = _conv_federation(full_forward=True)
            server.evaluator = PooledEvaluator(
                backend, server.test_set, test_key=("test", 0),
                batch_size=16,  # multiple aligned shards
            )
            with backend:
                assert server.evaluate() == reference.evaluate()
                run_federated_training(
                    server, clients, rounds=1, seed=3, backend=backend
                )
                reference.global_state = server.global_state
                assert server.evaluate() == reference.evaluate()
            assert server.eval_stats["pooled_evals"] >= 2
        # test-set shards were published once for the whole campaign
        assert pool.publishes_by_kind["eval"] == 2  # 48/16 -> 2 workers
        assert pool.publishes_by_kind["feat"] == 3  # one per client
    finally:
        backend.shutdown()


# ---------------------------------------------------------------------------
# Checkpoint: delta-encoded server payload
# ---------------------------------------------------------------------------


def test_async_checkpoint_server_delta_shrinks_below_model(tmp_path):
    path = os.path.join(tmp_path, "ckpt")
    server, clients = _conv_federation()
    run_async_federated_training(
        server,
        clients,
        make_aggregator("fedasync"),
        max_events=6,
        seed=11,
        timing=TimingModel(),
        checkpoint_path=path,
        checkpoint_every=1,
    )
    with open(os.path.join(path, "async_state.json")) as handle:
        manifest = json.load(handle)
    assert manifest["format"] == 6
    base_file = manifest["server_base"]["file"]
    payload_file = manifest["payload"]
    # the base was written once, at generation 1, and carried since
    assert base_file.endswith("-1.npz")
    entry = manifest["versions"][str(manifest["server_round_index"])]
    theta = set(theta_keys(server.model))
    # slab-backed: the whole changed θ block travels as one flat entry,
    # covering exactly θ; everything else is inherited from the base
    assert entry["stored"] == ["__theta_slab__"]
    assert {key for key, _ in manifest["server_slab"]} == theta
    # per-save bytes: the payload is strictly smaller than the full base
    assert os.path.getsize(os.path.join(path, payload_file)) < (
        os.path.getsize(os.path.join(path, base_file))
    )
    # exact round trip of the reconstructed state
    from repro.fl.checkpoint import load_async_checkpoint

    state = load_async_checkpoint(path)
    assert _states_bitwise_equal(state.server_state, server.global_state)
    # compaction rewrites a fresh base and stays loadable
    from repro.fl.checkpoint import compact_async_checkpoint

    compact_async_checkpoint(path)
    reloaded = load_async_checkpoint(path)
    assert _states_bitwise_equal(reloaded.server_state, server.global_state)


# ---------------------------------------------------------------------------
# Crash-path cleanup for the new segment kinds
# ---------------------------------------------------------------------------

_CRASH_SCRIPT = textwrap.dedent(
    """
    import signal, sys
    import numpy as np
    from repro.core.partial import prepare_partial_model
    from repro.data.dataset import ArrayDataset
    from repro.engine.backends import ProcessPoolBackend
    from repro.fl.client import Client
    from repro.fl.features import FeatureRuntime
    from repro.fl.selection import RandomSelector
    from repro.fl.strategies import LocalSolver
    from repro.nn.cnn import SmallConvNet

    model = SmallConvNet(3, np.random.default_rng(0), channels=(4, 4, 4))
    prepare_partial_model(model, "moderate")
    rng = np.random.default_rng(1)
    x = rng.normal(size=(24, 3, 8, 8))
    y = rng.integers(0, 3, size=24)
    client = Client(
        0, ArrayDataset(x, y), RandomSelector(), LocalSolver(batch_size=8),
        0.5, 1, np.random.default_rng(2),
    )
    backend = ProcessPoolBackend(max_workers=1, feature_runtime=FeatureRuntime())
    feature = backend._ensure_features(client, model)
    shards = backend._ensure_eval_segments(
        model, ArrayDataset(x[:12], y[:12]), None, 512
    )
    print(feature.shm.name)
    print(shards[0].shm.name)
    sys.stdout.flush()
    if sys.argv[1] == "exit":
        sys.exit(0)          # dies without close(): atexit must unlink
    signal.pause()           # parent delivers SIGTERM: handler must unlink
    """
)


@pytest.mark.parametrize("mode", ["exit", "sigterm"])
def test_killed_process_leaves_no_feature_or_eval_segments(mode):
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    child = subprocess.Popen(
        [sys.executable, "-c", _CRASH_SCRIPT, mode],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    names = [child.stdout.readline().strip() for _ in range(2)]
    assert all(names), "child failed to publish feature/eval segments"
    if mode == "sigterm":
        child.send_signal(signal.SIGTERM)
    child.wait(timeout=30)
    stderr = child.stderr.read()
    child.stdout.close()
    child.stderr.close()
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
    assert "leaked shared_memory" not in stderr
