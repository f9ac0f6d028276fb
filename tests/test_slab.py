"""Flat-slab server θ (repro.fl.slab): bitwise identity everywhere.

The slab is the server's one representation of θ, and every result it
produces must be byte-identical to the per-key dict walk kept as the test
oracle (``dict_oracle``). Pinned here:

1. the flat aggregation kernels against the oracle's walks, including
   the all-``-0.0``-column sign edge, and ``Server.aggregate`` over 256
   simulated clients against the oracle server;
2. full federated runs, slab servers vs the oracle's per-key reference
   server and aggregators, across FedAvg / FedAsync / FedBuff × serial /
   process × telemetry on / off;
3. the synchronous kill-and-resume path: a sync checkpoint restores
   the sampling and client RNG streams, so the resumed run reproduces
   the uninterrupted one byte for byte;
4. the checkpoint wire format: the single-slab θ delta, and each resume
   refusing the other loop's checkpoint;
5. loud refusals: updates and models whose θ cannot be packed raise
   before any state changes;
6. graph evaluation: CNN "moderate" (BatchNorm in θ) has no head plan
   and evaluates on the layer graph; a planned head's count equals it.
"""

import json
import os
import pickle

import numpy as np
import pytest

from dict_oracle import (
    DictFedAsync,
    DictFedBuff,
    DictServer,
    apply_delta,
    mix_states,
    subtract_states,
    weighted_average,
)
from repro.core.fedft_eds import FedFTEDSConfig, run_fedft_eds
from repro.core.partial import prepare_partial_model
from repro.data.dataset import ArrayDataset
from repro.engine.aggregators import FedAsyncAggregator, FedBuffAggregator
from repro.engine.backends import ProcessPoolBackend
from repro.engine.runner import run_async_federated_training
from repro.fl.aggregation import (
    apply_delta_flat,
    mix_flat,
    subtract_flat,
    weighted_average_flat,
)
from repro.fl.checkpoint import (
    load_async_checkpoint,
    resume_async_federated_training,
    resume_sync_federated_training,
)
from repro.fl import fastpath
from repro.fl.fastpath import STATS as FASTPATH_STATS
from repro.fl.features import batched_head_logits, compute_features
from repro.fl.rounds import run_federated_training
from repro.fl.sampling import FractionParticipation
from repro.fl.server import Server
from repro.fl.slab import SlabLayout, SlabState, make_slab_state
from repro.fl.strategies import LocalUpdate
from repro.fl.timing import TimingModel
from repro.nn import functional as F
from repro.nn.cnn import SmallConvNet
from repro.nn.fused import head_ops
from repro.obs.report import TelemetrySession
from repro.testbed import ENGINE_SMOKE, tiny_federation

RNG = np.random.default_rng


def _states_bitwise_equal(a, b):
    return set(a) == set(b) and all(
        a[k].dtype == b[k].dtype
        and a[k].shape == b[k].shape
        and a[k].tobytes() == b[k].tobytes()
        for k in a
    )


def _federation(seed, reference=False):
    """``tiny_federation(seed)``, with the oracle's per-key server in
    place of the slab server when ``reference`` is set."""
    server, clients = tiny_federation(seed=seed)
    if reference:
        server = DictServer(server.model, server.test_set)
    return server, clients


# ---------------------------------------------------------------------------
# Flat kernels vs the per-key oracle
# ---------------------------------------------------------------------------


def _random_state(rng, scale=1.0):
    return {
        "a.weight": scale * rng.normal(size=(4, 3)),
        "a.bias": scale * rng.normal(size=(4,)),
        "b.weight": scale * rng.normal(size=(2, 4)),
    }


def _layout_and_flat(state):
    layout = SlabLayout.for_state(state, list(state))
    return layout, layout.gather(state, np.empty(layout.total))


def test_weighted_average_flat_bitwise_matches_dict():
    rng = RNG(0)
    states = [_random_state(rng) for _ in range(7)]
    weights = [3, 1, 4, 1, 5, 9, 2]
    layout = SlabLayout.for_state(states[0], list(states[0]))
    stack = np.stack(
        [layout.gather(s, np.empty(layout.total)) for s in states]
    )
    ref = weighted_average(states, weights)
    flat = weighted_average_flat(stack, weights)
    assert _states_bitwise_equal(layout.views(flat), ref)


def test_weighted_average_flat_negative_zero_column():
    """A column where every scaled row is -0.0: the dict walk's
    zero-initialised accumulator yields +0.0, and so must the reduction."""
    states = [
        {"w": np.array([-0.0, 1.0]), "v": np.array([[-0.0]])}
        for _ in range(3)
    ]
    layout = SlabLayout.for_state(states[0], ["w", "v"])
    stack = np.stack(
        [layout.gather(s, np.empty(layout.total)) for s in states]
    )
    ref = weighted_average(states, [1.0, 1.0, 1.0])
    flat = weighted_average_flat(stack, [1.0, 1.0, 1.0])
    views = layout.views(flat)
    assert _states_bitwise_equal(views, ref)
    # and the bytes are +0.0, not -0.0
    assert views["w"][0].tobytes() == np.float64(0.0).tobytes()


def test_mix_flat_bitwise_matches_dict():
    rng = RNG(1)
    base, incoming = _random_state(rng), _random_state(rng)
    layout, base_flat = _layout_and_flat(base)
    _, in_flat = _layout_and_flat(incoming)
    for alpha in (0.0, 0.3, 1.0):
        ref = mix_states(base, incoming, alpha)
        out = mix_flat(
            base_flat,
            in_flat,
            alpha,
            np.empty(layout.total),
            np.empty(layout.total),
        )
        assert _states_bitwise_equal(layout.views(out), ref)


def test_apply_delta_flat_bitwise_matches_dict():
    rng = RNG(2)
    base, delta = _random_state(rng), _random_state(rng, scale=0.1)
    layout, base_flat = _layout_and_flat(base)
    _, delta_flat = _layout_and_flat(delta)
    ref = apply_delta(base, delta, lr=0.7)
    out = apply_delta_flat(base_flat, delta_flat, 0.7, np.empty(layout.total))
    assert _states_bitwise_equal(layout.views(out), ref)


def test_subtract_flat_bitwise_matches_dict():
    rng = RNG(3)
    minuend, base = _random_state(rng), _random_state(rng)
    layout, m_flat = _layout_and_flat(minuend)
    _, b_flat = _layout_and_flat(base)
    ref = subtract_states(minuend, base)
    out = subtract_flat(m_flat, b_flat, np.empty(layout.total))
    assert _states_bitwise_equal(layout.views(out), ref)


def test_slab_state_round_trips_and_pickles_to_plain_dict():
    state = _random_state(RNG(4))
    layout = SlabLayout.for_state(state, list(state))
    slab = make_slab_state(state, layout)
    assert _states_bitwise_equal(slab, state)
    clone = pickle.loads(pickle.dumps(slab))
    assert type(clone) is dict  # workers and checkpoints see a plain dict
    assert not hasattr(clone, "theta_slab")
    assert _states_bitwise_equal(clone, state)


def test_slab_layout_declines_non_float64():
    state = {"w": np.ones(3, dtype=np.float32)}
    assert SlabLayout.for_state(state, ["w"]) is None
    layout = SlabLayout.for_state({"w": np.ones(3)}, ["w"])
    scratch = np.full(layout.total, 7.0)
    with pytest.raises(ValueError, match="'w' is not a float64 array"):
        layout.flatten(state, scratch)
    assert np.all(scratch == 7.0)  # refused before anything was written


def _conv_moderate_server(cls=Server):
    """The SmallConvNet "moderate" split: θ is many small tensors (conv
    weight/bias, BatchNorm γ/β and running stats, the classifier)."""
    rng = RNG(1)
    model = SmallConvNet(8, rng, channels=(4, 4, 4))
    prepare_partial_model(model, "moderate")
    x = rng.normal(size=(16, 3, 12, 12))
    return cls(model, ArrayDataset(x, rng.integers(0, 8, size=16)))


def test_server_aggregate_256_clients_matches_oracle():
    """One-ufunc aggregation over 256 simulated clients is byte-identical
    to the per-key walk, including a θ position that is ``-0.0`` in every
    client, which both reduce to ``+0.0``."""
    server = _conv_moderate_server()
    reference = _conv_moderate_server(DictServer)
    layout = server.global_state.layout
    neg_zero_key = layout.keys[0]
    rng = RNG(7)
    slab_updates, dict_updates = [], []
    for i in range(256):
        theta = {key: rng.normal(size=shape) for key, shape in layout.signature}
        theta[neg_zero_key].flat[0] = -0.0
        weight = i % 7 + 1
        slab_updates.append(
            LocalUpdate(make_slab_state(theta, layout), weight, weight)
        )
        dict_updates.append(
            LocalUpdate({k: v.copy() for k, v in theta.items()}, weight, weight)
        )
    server.aggregate(slab_updates)
    reference.aggregate(dict_updates)
    assert _states_bitwise_equal(server.global_state, reference.global_state)
    assert server.global_state[neg_zero_key].flat[0].tobytes() == (
        np.float64(0.0).tobytes()
    )


# ---------------------------------------------------------------------------
# Slab vs the per-key reference: full runs across aggregators, backends,
# telemetry (the reference always runs in-process)
# ---------------------------------------------------------------------------


def _sync_run(reference, backend=None, telemetry=False):
    server, clients = _federation(6, reference)
    kwargs = dict(
        rounds=3,
        seed=1,
        participation=FractionParticipation(0.7),
        timing=TimingModel(),
        backend=backend,
    )
    if telemetry:
        with TelemetrySession(trace=True):
            history = run_federated_training(server, clients, **kwargs)
    else:
        history = run_federated_training(server, clients, **kwargs)
    return server, history


def _async_run(mode, reference, backend=None, telemetry=False):
    server, clients = _federation(6, reference)
    if mode == "fedasync":
        cls = DictFedAsync if reference else FedAsyncAggregator
        aggregator = cls(mixing=0.4, staleness_exponent=0.5)
    else:
        cls = DictFedBuff if reference else FedBuffAggregator
        aggregator = cls(buffer_size=3, staleness_exponent=0.5)
    kwargs = dict(max_events=12, seed=2, timing=TimingModel(), backend=backend)
    if telemetry:
        with TelemetrySession(trace=True):
            log = run_async_federated_training(
                server, clients, aggregator, **kwargs
            )
    else:
        log = run_async_federated_training(server, clients, aggregator, **kwargs)
    return server, log


def _event_fingerprint(log):
    return [
        (r.virtual_time, r.client_id, r.kind, r.staleness, r.model_version)
        for r in log.records
    ]


@pytest.mark.parametrize("telemetry", [False, True])
def test_sync_fedavg_slab_matches_dict_serial(telemetry):
    slab_server, slab_hist = _sync_run(False, telemetry=telemetry)
    dict_server, dict_hist = _sync_run(True, telemetry=telemetry)
    # the fast lane actually engaged
    assert slab_server.global_state.theta_slab is not None
    assert getattr(dict_server.global_state, "theta_slab", None) is None
    assert slab_hist.accuracies.tolist() == dict_hist.accuracies.tolist()
    assert [r.participants for r in slab_hist.records] == [
        r.participants for r in dict_hist.records
    ]
    assert _states_bitwise_equal(
        slab_server.global_state, dict_server.global_state
    )


@pytest.mark.parametrize("mode", ["fedasync", "fedbuff"])
@pytest.mark.parametrize("telemetry", [False, True])
def test_async_slab_matches_dict_serial(mode, telemetry):
    slab_server, slab_log = _async_run(mode, False, telemetry=telemetry)
    dict_server, dict_log = _async_run(mode, True, telemetry=telemetry)
    assert slab_server.global_state.theta_slab is not None
    assert _event_fingerprint(slab_log) == _event_fingerprint(dict_log)
    assert np.array_equal(slab_log.accuracies, dict_log.accuracies)
    assert _states_bitwise_equal(
        slab_server.global_state, dict_server.global_state
    )


def test_sync_fedavg_slab_matches_dict_process():
    dict_server, dict_hist = _sync_run(True)
    with ProcessPoolBackend(max_workers=2) as backend:
        slab_server, slab_hist = _sync_run(False, backend=backend)
        stats = dict(backend.stats)
    assert slab_hist.accuracies.tolist() == dict_hist.accuracies.tolist()
    assert _states_bitwise_equal(
        slab_server.global_state, dict_server.global_state
    )
    # broadcast publishes collapse to a θ memcpy once a slot holds the
    # frozen ϕ and the slab signature (slots alternate, so not every
    # publish — but at least the first slot-reuse one)
    assert stats["state_publishes"] == 3
    assert stats["state_slab_memcpys"] >= 1


def test_async_fedbuff_slab_matches_dict_process():
    dict_server, dict_log = _async_run("fedbuff", True)
    with ProcessPoolBackend(max_workers=2) as backend:
        slab_server, slab_log = _async_run("fedbuff", False, backend=backend)
    assert _event_fingerprint(slab_log) == _event_fingerprint(dict_log)
    assert np.array_equal(slab_log.accuracies, dict_log.accuracies)
    assert _states_bitwise_equal(
        slab_server.global_state, dict_server.global_state
    )


def test_broadcast_feeds_client_plans_by_memcpy():
    """The end-to-end fast lane: a slab broadcast lands in the head plan's
    θ row as one memcpy (counted), bitwise equal results."""
    before = FASTPATH_STATS["theta_slab_loads"]
    result = run_fedft_eds(FedFTEDSConfig(seed=13, **ENGINE_SMOKE))
    assert FASTPATH_STATS["theta_slab_loads"] > before
    assert getattr(result.server.global_state, "theta_slab", None) is not None


# ---------------------------------------------------------------------------
# Synchronous kill-and-resume: bitwise identity
# ---------------------------------------------------------------------------


class _Killed(Exception):
    """Stands in for the process dying between rounds."""


def _sync_resume_cfg():
    return dict(
        rounds=6,
        seed=3,
        participation=FractionParticipation(0.7),
        timing=TimingModel(),
        eval_every=2,
    )


def test_sync_kill_and_resume_bitwise_identical(tmp_path):
    server_a, clients_a = tiny_federation(seed=7)
    full = run_federated_training(server_a, clients_a, **_sync_resume_cfg())

    path = os.path.join(tmp_path, "sync_ckpt")
    server_b, clients_b = tiny_federation(seed=7)

    def bomb(record):
        if record.round_index == 3:
            raise _Killed

    with pytest.raises(_Killed):
        run_federated_training(
            server_b,
            clients_b,
            checkpoint_path=path,
            checkpoint_every=1,
            on_round=bomb,
            **_sync_resume_cfg(),
        )

    server_c, clients_c = tiny_federation(seed=7)
    resumed = resume_sync_federated_training(
        path,
        server_c,
        clients_c,
        participation=FractionParticipation(0.7),
        timing=TimingModel(),
    )
    assert [r.round_index for r in resumed.records] == [1, 2, 3, 4, 5, 6]
    assert resumed.accuracies.tolist() == full.accuracies.tolist()
    assert [r.participants for r in resumed.records] == [
        r.participants for r in full.records
    ]
    assert [r.evaluated for r in resumed.records] == [
        r.evaluated for r in full.records
    ]
    assert [r.cumulative_client_seconds for r in resumed.records] == [
        r.cumulative_client_seconds for r in full.records
    ]
    assert _states_bitwise_equal(
        server_c.global_state, server_a.global_state
    )
    # the RNG streams themselves line up — the next round would too
    for a, c in zip(clients_a, clients_c):
        assert a.rng.bit_generator.state == c.rng.bit_generator.state


def test_sync_resume_noop_when_complete(tmp_path):
    path = os.path.join(tmp_path, "done_ckpt")
    server, clients = tiny_federation(seed=8)
    run_federated_training(
        server,
        clients,
        rounds=2,
        seed=0,
        timing=TimingModel(),
        checkpoint_path=path,
        checkpoint_every=1,
    )
    fresh_server, fresh_clients = tiny_federation(seed=8)
    history = resume_sync_federated_training(path, fresh_server, fresh_clients)
    assert len(history.records) == 2
    assert _states_bitwise_equal(
        fresh_server.global_state, server.global_state
    )


def test_sync_checkpoint_rehomes_state_into_slab(tmp_path):
    path = os.path.join(tmp_path, "slab_ckpt")
    server, clients = tiny_federation(seed=10)
    run_federated_training(
        server, clients, rounds=2, seed=0, timing=TimingModel(),
        checkpoint_path=path, checkpoint_every=2,
    )
    fresh_server, fresh_clients = tiny_federation(seed=11)
    resume_sync_federated_training(path, fresh_server, fresh_clients)
    assert fresh_server.global_state.theta_slab is not None
    assert _states_bitwise_equal(
        fresh_server.global_state, server.global_state
    )


# ---------------------------------------------------------------------------
# Checkpoint wire format: slab delta, loop mismatch
# ---------------------------------------------------------------------------


def _async_checkpointed_run(path):
    server, clients = tiny_federation(seed=12)
    run_async_federated_training(
        server,
        clients,
        FedAsyncAggregator(mixing=0.4, staleness_exponent=0.5),
        max_events=8,
        seed=4,
        timing=TimingModel(),
        checkpoint_path=path,
        checkpoint_every=1,
    )
    return server


def test_async_slab_checkpoint_roundtrip(tmp_path):
    path = os.path.join(tmp_path, "ckpt")
    server = _async_checkpointed_run(path)
    with open(os.path.join(path, "async_state.json")) as handle:
        manifest = json.load(handle)
    assert manifest["format"] == 6
    assert manifest["server_slab"]  # θ packing recorded for the slab entry
    current = manifest["server_round_index"]
    entry = manifest["versions"][str(current)]
    assert entry["stored"] == ["__theta_slab__"]
    with np.load(os.path.join(path, entry["file"])) as payload:
        assert f"{current}::__theta_slab__" in payload.files
    state = load_async_checkpoint(path)
    assert isinstance(state.server_state, SlabState)
    assert _states_bitwise_equal(state.server_state, server.global_state)


def test_resume_refuses_the_other_loops_checkpoint(tmp_path):
    """Both loops share one format, so each resume checks which loop wrote
    the checkpoint and names both loops when it refuses."""
    async_path = os.path.join(tmp_path, "async_ckpt")
    _async_checkpointed_run(async_path)
    sync_path = os.path.join(tmp_path, "sync_ckpt")
    server, clients = tiny_federation(seed=12)
    run_federated_training(
        server, clients, rounds=2, seed=0, checkpoint_path=sync_path,
        checkpoint_every=1,
    )
    server, clients = tiny_federation(seed=12)
    with pytest.raises(ValueError, match="by the async loop.* the sync loop"):
        resume_sync_federated_training(async_path, server, clients)
    with pytest.raises(ValueError, match="by the sync loop.* the async loop"):
        resume_async_federated_training(
            sync_path, server, clients, FedAsyncAggregator(mixing=0.4)
        )


# ---------------------------------------------------------------------------
# Loud refusals: what cannot be packed raises before any state changes
# ---------------------------------------------------------------------------


def _malformed(theta, case):
    """A copy of ``theta`` with one key missing, one extra key, or one
    entry of the wrong shape."""
    theta = {k: v.copy() for k, v in theta.items()}
    first = next(iter(theta))
    if case == "missing":
        del theta[first]
    elif case == "extra":
        theta["bogus.weight"] = np.zeros(3)
    else:
        theta[first] = np.zeros(theta[first].size + 1)
    return theta


@pytest.mark.parametrize("case", ["missing", "extra", "shape"])
@pytest.mark.parametrize(
    "target", ["server", "server_first", "fedasync", "fedbuff"]
)
def test_malformed_update_is_refused_before_any_change(case, target):
    """A malformed update raises wherever it arrives (``server_first``: as
    the first update, which fixes the packing) and changes nothing."""
    server, _ = tiny_federation(seed=3)
    good = LocalUpdate(
        {k: server.global_state[k] + 0.5 for k in server.global_state}, 3, 3
    )
    bad = LocalUpdate(_malformed(good.theta, case), 2, 2)
    error = ValueError if case == "shape" else KeyError
    before = server.global_state
    theta_bytes = before.theta_slab.tobytes()
    if target == "server":
        call = lambda: server.aggregate([good, bad])
    elif target == "server_first":
        call = lambda: server.aggregate([bad, good])
    elif target == "fedasync":
        aggregator = FedAsyncAggregator()
        call = lambda: aggregator.apply(server, bad, 0, before)
    else:
        aggregator = FedBuffAggregator(buffer_size=3)
        aggregator.apply(server, good, 0, before)
        buffered = aggregator._buffer[0]
        call = lambda: aggregator.apply(server, bad, 0, before)
    with pytest.raises(error):
        call()
    assert server.round_index == 0
    assert server.global_state is before
    assert before.theta_slab.tobytes() == theta_bytes
    if target == "fedbuff":
        assert len(aggregator._buffer) == 1
        assert aggregator._buffer[0] is buffered


@pytest.mark.parametrize("defect", ["no_theta", "float32"])
def test_server_refuses_a_theta_that_cannot_be_one_slab(defect):
    server, _ = tiny_federation(seed=3)
    model = server.model
    for _, param in model.named_parameters():
        if defect == "no_theta":
            param.requires_grad = False
        else:
            param.data = param.data.astype(np.float32)
    with pytest.raises(ValueError, match="one float64 slab"):
        Server(model, server.test_set)


# ---------------------------------------------------------------------------
# Graph evaluation: CNN "moderate" (BatchNorm in θ)
# ---------------------------------------------------------------------------


def test_cnn_moderate_eval_plan_bitwise_matches_graph():
    """A head with BatchNorm in θ has no plan, for training or evaluation:
    the server evaluates it on the layer graph."""
    cnn = SmallConvNet(4, RNG(0), channels=(4, 4, 4))
    prepare_partial_model(cnn, "moderate")
    x = RNG(1).normal(size=(40, 3, 8, 8))
    y = RNG(2).integers(0, 4, size=40)
    features = compute_features(cnn, x, 16)
    assert head_ops(cnn) == (None, None)
    assert fastpath.head_lane(cnn, features.shape[1:]) is None
    server = Server(cnn, ArrayDataset(x, y))
    accuracy = server.evaluate(batch_size=16)
    assert server.eval_stats["graph_evals"] == 1
    assert server.eval_stats["fused_evals"] == 0
    logits = batched_head_logits(cnn, features, 16)
    assert accuracy == F.accuracy(logits, y)


def test_server_fused_eval_bitwise_matches_graph():
    """The head plan's count equals the graph's accuracy. θ goes into the
    plan, not the workspace model, so the graph reference runs through
    the graph seam, which loads θ into the model."""
    result = run_fedft_eds(FedFTEDSConfig(seed=13, **ENGINE_SMOKE))
    server = result.server
    fused_before = server.eval_stats["fused_evals"]
    accuracy = server.evaluate()
    assert server.eval_stats["fused_evals"] == fused_before + 1
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fastpath, "head_lane", lambda *args, **kw: None)
        graph_before = server.eval_stats["graph_evals"]
        assert server.evaluate() == accuracy
        assert server.eval_stats["graph_evals"] == graph_before + 1
    features = server._test_features[1]
    logits = batched_head_logits(server.model, features, 512)
    assert accuracy == F.accuracy(logits, server.test_set.labels)
