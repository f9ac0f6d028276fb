"""The event-driven asynchronous engine: scheduler, aggregators, backends."""

import numpy as np
import pytest

from repro.core.fedft_eds import FedFTEDSConfig, run_fedft_eds
from repro.engine.aggregators import (
    FedAsyncAggregator,
    FedBuffAggregator,
    make_aggregator,
)
from repro.engine.backends import make_backend
from repro.engine.clock import EventQueue, VirtualClock
from repro.engine.records import EventLog, EventRecord
from repro.fl.aggregation import apply_delta_flat, staleness_weight
from repro.fl.rounds import RoundRecord, TrainingHistory, run_federated_training
from repro.fl.sampling import ParticipationModel
from repro.fl.slab import SlabLayout, make_slab_state
from repro.fl.timing import TimingModel, straggler_multipliers
from repro.testbed import ENGINE_SMOKE as SMOKE
from repro.testbed import tiny_federation


# -- clock ------------------------------------------------------------------
def test_virtual_clock_is_monotone():
    clock = VirtualClock()
    clock.advance_to(2.5)
    assert clock.now == 2.5
    with pytest.raises(ValueError):
        clock.advance_to(1.0)


def test_event_queue_orders_by_time_then_dispatch_sequence():
    q = EventQueue()
    q.push(3.0, client_id=0, dispatch_version=0, duration=3.0)
    q.push(1.0, client_id=1, dispatch_version=0, duration=1.0)
    q.push(1.0, client_id=2, dispatch_version=0, duration=1.0)
    popped = [q.pop().client_id for _ in range(3)]
    assert popped == [1, 2, 0]  # equal times break ties by dispatch order


# -- aggregation primitives --------------------------------------------------
def test_staleness_weight_decays():
    assert staleness_weight(0) == 1.0
    assert staleness_weight(3, 0.5) == pytest.approx(0.5)
    assert staleness_weight(5, 0.0) == 1.0
    with pytest.raises(ValueError):
        staleness_weight(-1)


def _slab(state, theta=("theta",)):
    """``state`` slab-backed over its ``theta`` keys, as the server holds it."""
    layout = SlabLayout([(key, state[key].shape) for key in theta])
    return make_slab_state(state, layout)


class _FakeServer:
    def __init__(self):
        self.global_state = _slab({"theta": np.zeros(4), "phi": np.ones(4)})
        self.round_index = 0


def test_mix_states_passes_frozen_keys_through():
    """FedAsync mixes θ into a fresh slab and passes ϕ through by
    reference; an update whose keys do not fit is refused."""
    server = _FakeServer()
    base = server.global_state
    agg = FedAsyncAggregator(mixing=0.25, staleness_exponent=0.0)
    update = type("U", (), {"theta": {"theta": np.full(4, 2.0)}})
    agg.apply(server, update, staleness=0, base_state=None)
    out = server.global_state
    assert out["phi"] is base["phi"]
    assert np.allclose(out["theta"], 0.5)
    # fresh slab: older broadcast snapshots must stay valid
    assert out.theta_slab is not base.theta_slab
    assert np.array_equal(base["theta"], np.zeros(4))
    missing = type("U", (), {"theta": {"missing": np.zeros(4)}})
    with pytest.raises(KeyError):
        agg.apply(server, missing, 0, None)
    assert server.global_state is out and server.round_index == 1


def test_apply_delta():
    base = np.ones(3)
    out = apply_delta_flat(base, np.full(3, 0.5), 2.0, np.empty(3))
    assert np.allclose(out, 2.0)
    assert np.array_equal(base, np.ones(3))


def test_fedasync_applies_every_update():
    server = _FakeServer()
    agg = FedAsyncAggregator(mixing=0.5, staleness_exponent=0.0)
    update = type("U", (), {"theta": {"theta": np.full(4, 2.0)}, "num_selected": 4})
    assert agg.apply(server, update, staleness=0, base_state=None)
    assert server.round_index == 1
    assert np.allclose(server.global_state["theta"], 1.0)
    assert np.array_equal(server.global_state["phi"], np.ones(4))


def test_fedbuff_flushes_every_k_updates():
    server = _FakeServer()
    agg = FedBuffAggregator(buffer_size=3, staleness_exponent=0.0)
    base = _slab({"theta": np.zeros(4)})
    update = type("U", (), {"theta": {"theta": np.ones(4)}, "num_selected": 2})
    assert not agg.apply(server, update, 0, base)
    assert not agg.apply(server, update, 1, base)
    assert agg.pending == 2
    assert agg.apply(server, update, 2, base)  # third update flushes
    assert agg.pending == 0
    assert server.round_index == 1
    assert np.allclose(server.global_state["theta"], 1.0)


def test_make_aggregator_variants():
    assert isinstance(make_aggregator("fedasync"), FedAsyncAggregator)
    assert isinstance(make_aggregator("fedbuff", buffer_size=7), FedBuffAggregator)
    with pytest.raises(ValueError):
        make_aggregator("sync")


@pytest.mark.parametrize(
    "mode, kwargs, name",
    [
        ("fedasync", {"staleness_exponent": float("nan")}, "staleness_exponent"),
        ("fedasync", {"staleness_exponent": float("inf")}, "staleness_exponent"),
        ("fedbuff", {"staleness_exponent": float("nan")}, "staleness_exponent"),
        ("fedbuff", {"server_lr": float("nan")}, "server_lr"),
        ("fedbuff", {"server_lr": float("inf")}, "server_lr"),
        ("fedbuff", {"buffer_size": 2.5}, "buffer_size"),
    ],
    ids=["fedasync_staleness_nan", "fedasync_staleness_inf",
         "fedbuff_staleness_nan", "fedbuff_lr_nan", "fedbuff_lr_inf",
         "fedbuff_buffer_fractional"],
)
def test_make_aggregator_refuses_non_finite_and_fractional(mode, kwargs, name):
    with pytest.raises(ValueError, match=name):
        make_aggregator(mode, **kwargs)


# -- dropout -------------------------------------------------------------------
def _run_async(dropout_probability=0.0, backend=None, max_events=12, seed=11):
    """Drive the shared tiny federation through the event engine."""
    from repro.engine.runner import run_async_federated_training

    server, clients = tiny_federation()
    timing = TimingModel(speed_multipliers={0: 4.0})
    log = run_async_federated_training(
        server,
        clients,
        FedAsyncAggregator(mixing=0.4, staleness_exponent=0.0),
        max_events=max_events,
        seed=seed,
        timing=timing,
        backend=backend,
        dropout_probability=dropout_probability,
    )
    return server, log


def test_zero_probability_boundaries():
    """p=0 dropout never drops; p=1 (certain loss) and NaN are refused."""
    _, log = _run_async(dropout_probability=0.0)
    assert not [r for r in log.records if r.kind == "drop"]
    for p in (1.0, -0.1, float("nan")):
        with pytest.raises(ValueError, match="dropout_probability"):
            _run_async(dropout_probability=p)


@pytest.mark.parametrize(
    "knobs",
    [
        {"max_events": 10.5},
        {"max_events": 12, "max_concurrency": 1.5},
        {"max_events": 12, "eval_every": 2.5},
        {"max_events": 12, "checkpoint_every": 1.5},
    ],
    ids=["max_events", "max_concurrency", "eval_every", "checkpoint_every"],
)
def test_async_loop_refuses_fractional_counts(knobs, tmp_path):
    """A fractional budget or cadence is refused before the first event:
    10.5 events used to run 11 while a resume stopped at 10."""
    from repro.engine.runner import run_async_federated_training

    server, clients = tiny_federation()
    with pytest.raises(ValueError, match="an integer"):
        run_async_federated_training(
            server,
            clients,
            FedAsyncAggregator(mixing=0.4, staleness_exponent=0.0),
            seed=11,
            checkpoint_path=str(tmp_path / "ckpt"),
            **knobs,
        )
    assert server.round_index == 0
    assert not (tmp_path / "ckpt").exists()


def test_availability_rng_streams_stable_across_backends():
    """Dropout draws come from the scheduler stream: logs are
    backend-invariant."""
    _, serial_log = _run_async(dropout_probability=0.2)
    assert [r for r in serial_log.records if r.kind == "drop"]
    process = make_backend("process", max_workers=2)
    try:
        _, process_log = _run_async(dropout_probability=0.2, backend=process)
    finally:
        process.close()
    key = lambda log: [  # noqa: E731 - test-local projection
        (r.virtual_time, r.client_id, r.kind, r.staleness, r.test_accuracy)
        for r in log.records
    ]
    assert key(serial_log) == key(process_log)


# -- event log ----------------------------------------------------------------
def _event(i, acc, evaluated, seconds):
    return EventRecord(
        event_index=i,
        kind="update",
        virtual_time=float(i),
        client_id=0,
        staleness=0,
        model_version=i + 1,
        test_accuracy=acc,
        evaluated=evaluated,
        num_selected=1,
        client_seconds=1.0,
        cumulative_client_seconds=seconds,
        mean_local_loss=0.0,
    )


def test_event_log_threshold_queries_skip_carried_accuracy():
    log = EventLog()
    log.append(_event(0, 0.5, True, 1.0))
    log.append(_event(1, 0.5, False, 2.0))  # carried forward, not a real hit
    log.append(_event(2, 0.9, True, 3.0))
    assert log.seconds_to_accuracy(0.5) == 1.0
    assert log.seconds_to_accuracy(0.9) == 3.0
    assert log.best_accuracy == 0.9
    assert log.total_client_seconds == 3.0
    assert log.seconds_to_accuracy(0.95) is None


# -- end-to-end through the one-call API --------------------------------------
def test_fedasync_end_to_end():
    result = run_fedft_eds(FedFTEDSConfig(seed=0, mode="fedasync", **SMOKE))
    log = result.history
    assert isinstance(log, EventLog)
    assert len(log) == SMOKE["rounds"] * SMOKE["num_clients"]
    # every FedAsync completion advances the model version
    assert log.final_version == len(log)
    assert all(r.kind == "update" for r in log.records)
    assert result.efficiency.total_client_seconds > 0


def test_fedbuff_end_to_end_buffers_then_flushes():
    result = run_fedft_eds(
        FedFTEDSConfig(seed=0, mode="fedbuff", buffer_size=2, **SMOKE)
    )
    log = result.history
    kinds = [r.kind for r in log.records]
    assert "buffer" in kinds and "update" in kinds
    # one version per K=2 completions
    assert log.final_version == len(log) // 2


def test_fedbuff_residual_buffer_flushed_at_end_of_run():
    """Work stranded in a partial buffer must still reach the model."""
    result = run_fedft_eds(
        FedFTEDSConfig(seed=0, mode="fedbuff", buffer_size=4, **SMOKE)
    )
    log = result.history
    # 6 completions: one flush at K=4, two stranded → final server-side flush
    assert log.records[-1].client_id == -1
    assert log.records[-1].kind == "update"
    assert log.records[-1].evaluated
    assert log.records[-1].client_seconds == 0.0
    assert log.final_version == 2


def test_async_final_record_is_always_evaluated():
    """Like the sync loop, a run must end on a measured accuracy."""
    result = run_fedft_eds(
        FedFTEDSConfig(seed=0, mode="fedasync", eval_every=4, **SMOKE)
    )
    assert result.history.records[-1].evaluated
    # intermediate cadence still honoured
    flags = [r.evaluated for r in result.history.records]
    assert not all(flags)


def test_async_dispatch_capped_by_event_budget():
    """No client round is trained whose completion can't fit the budget."""
    from repro.engine.backends import SerialBackend
    from repro.engine.runner import run_async_federated_training
    from repro.experiments.common import ExperimentHarness, STANDARD_METHODS

    class CountingBackend(SerialBackend):
        def __init__(self):
            self.submitted = 0

        def submit(self, *args, **kwargs):
            self.submitted += 1
            return super().submit(*args, **kwargs)

    harness = ExperimentHarness("smoke", seed=0)
    server, clients, run_seed = harness.build_federation(
        "cifar10", STANDARD_METHODS["fedft_eds"], 0.1, 4
    )
    backend = CountingBackend()
    log = run_async_federated_training(
        server,
        clients,
        FedAsyncAggregator(),
        max_events=2,
        seed=run_seed,
        timing=harness.timing,
        backend=backend,
    )
    assert len(log) == 2
    assert backend.submitted == 2  # not one per client


def test_async_modes_are_seed_deterministic():
    for mode in ("fedasync", "fedbuff"):
        a = run_fedft_eds(FedFTEDSConfig(seed=11, mode=mode, **SMOKE))
        b = run_fedft_eds(FedFTEDSConfig(seed=11, mode=mode, **SMOKE))
        assert [
            (r.virtual_time, r.client_id, r.kind, r.staleness, r.model_version)
            for r in a.history.records
        ] == [
            (r.virtual_time, r.client_id, r.kind, r.staleness, r.model_version)
            for r in b.history.records
        ]
        assert np.array_equal(a.history.accuracies, b.history.accuracies)


def test_async_straggler_completions_interleave():
    """A 10x straggler must not gate fast clients' completions."""
    result = run_fedft_eds(
        FedFTEDSConfig(
            seed=0,
            mode="fedasync",
            timing=TimingModel(speed_multipliers={0: 10.0}),
            max_events=24,  # enough virtual time for the straggler to finish
            **SMOKE,
        )
    )
    records = result.history.records
    first_straggler = next(i for i, r in enumerate(records) if r.client_id == 0)
    # both fast clients complete (twice) before the straggler's first event
    assert first_straggler >= 4
    # and the straggler's update arrives stale
    assert records[first_straggler].staleness > 0


def test_async_dropout_records_lost_rounds():
    result = run_fedft_eds(
        FedFTEDSConfig(seed=0, mode="fedasync", dropout_probability=0.5, **SMOKE)
    )
    log = result.history
    drops = [r for r in log.records if r.kind == "drop"]
    assert drops, "p=0.5 over 6 events should lose at least one round"
    assert all(r.num_selected == 0 and r.client_seconds > 0 for r in drops)
    # dropped rounds still waste client time
    assert log.total_client_seconds > sum(
        r.client_seconds for r in log.records if r.kind == "update"
    )


def test_unknown_mode_and_backend_rejected():
    with pytest.raises(ValueError):
        run_fedft_eds(FedFTEDSConfig(mode="gossip", **SMOKE))
    with pytest.raises(ValueError):
        make_backend("gpu")


@pytest.mark.parametrize(
    "surface", ["make_backend", "run_fedft_eds", "harness", "cli"]
)
def test_thread_backend_is_rejected_everywhere(monkeypatch, capsys, surface):
    """Every configuration surface refuses ``backend="thread"``
    (run_fedft_eds before any setup) and names the two backends."""
    from repro.data import synthetic
    from repro.experiments.common import ExperimentHarness
    from repro.experiments.run_all import main

    def no_setup(*args, **kwargs):
        raise AssertionError("backend='thread' surfaced after setup began")

    monkeypatch.setattr(synthetic, "make_vision_world", no_setup)
    if surface == "cli":
        with pytest.raises(SystemExit) as exit_info:
            main(["--scale", "smoke", "--backend", "thread"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'thread'" in capsys.readouterr().err
        return
    with pytest.raises(ValueError) as error:
        if surface == "make_backend":
            make_backend("thread")
        elif surface == "run_fedft_eds":
            run_fedft_eds(FedFTEDSConfig(backend="thread", **SMOKE))
        else:
            ExperimentHarness("smoke", backend="thread")
    assert "'serial'" in str(error.value)
    assert "'process'" in str(error.value)


def test_async_only_options_rejected_under_sync_mode():
    """A forgotten mode= must not silently drop the dropout configuration."""
    with pytest.raises(ValueError, match="dropout_probability"):
        run_fedft_eds(
            FedFTEDSConfig(seed=0, dropout_probability=0.3, **SMOKE)
        )


@pytest.mark.parametrize("mode", ["sync", "fedbuff"])
@pytest.mark.parametrize(
    "knobs, message",
    [
        ({"checkpoint_every": 1}, "checkpoint_every requires a checkpoint_path"),
        ({"checkpoint_every": -1, "checkpoint_path": "unused"},
         "checkpoint_every must be non-negative"),
        ({"emergency_checkpoint": True},
         "emergency_checkpoint requires a checkpoint_path"),
        ({"eval_every": 0}, "eval_every must be positive"),
        ({"rounds": 0}, "rounds must be positive"),
    ],
    ids=["every_no_path", "negative_every", "emergency_no_path",
         "eval_every_0", "rounds_0"],
)
def test_run_knobs_refused_before_setup(mode, knobs, message, monkeypatch):
    """Run settings neither loop can honour are refused with the other
    config checks, before the world is even generated."""
    from repro.data import synthetic

    def no_setup(*args, **kwargs):
        raise AssertionError("the invalid setting surfaced after setup began")

    monkeypatch.setattr(synthetic, "make_vision_world", no_setup)
    with pytest.raises(ValueError, match=message):
        run_fedft_eds(FedFTEDSConfig(**{**SMOKE, "mode": mode, **knobs}))


@pytest.mark.parametrize(
    "knobs, message",
    [
        ({"lr": -1.0}, "lr must be positive"),
        ({"lr": 0.0}, "lr must be positive"),
        ({"batch_size": 0}, "batch_size must be at least 1"),
        ({"momentum": -0.5}, "momentum must be non-negative"),
        ({"model": "resnet"}, "unknown model"),
        ({"selection": "top"}, "unknown selection strategy"),
        ({"fine_tune_level": "most"}, "unknown fine-tune level"),
        ({"num_clients": 0}, "num_clients must be positive"),
        ({"local_epochs": 0}, "local_epochs must be positive"),
        ({"selection_fraction": 0.0}, "selection_fraction must be in"),
        ({"selection_fraction": 1.5}, "selection_fraction must be in"),
        ({"temperature": 0.0}, "temperature must be positive"),
    ],
    ids=["lr_negative", "lr_0", "batch_0", "momentum_negative", "model",
         "selection", "level", "clients_0", "epochs_0", "fraction_0",
         "fraction_above_1", "temperature_0"],
)
def test_solver_and_run_settings_refused_before_setup(
    knobs, message, monkeypatch
):
    """Solver, model and selection settings the run would refuse (or, for
    a negative lr, silently run as gradient ascent) are refused before
    the world is generated."""
    from repro.data import synthetic

    def no_setup(*args, **kwargs):
        raise AssertionError("the invalid setting surfaced after setup began")

    monkeypatch.setattr(synthetic, "make_vision_world", no_setup)
    with pytest.raises(ValueError, match=message):
        run_fedft_eds(FedFTEDSConfig(**{**SMOKE, **knobs}))


# -- satellite fixes -----------------------------------------------------------
class _EmptyThenFull(ParticipationModel):
    """No participants in round 1, everyone afterwards."""

    def participants(self, round_index, num_clients, rng):
        if round_index == 1:
            return np.array([], dtype=int)
        return np.arange(num_clients)


def test_empty_participation_round_is_recorded_not_nan():
    from repro.experiments.common import ExperimentHarness, STANDARD_METHODS

    harness = ExperimentHarness("smoke", seed=0)
    server, clients, run_seed = harness.build_federation(
        "cifar10", STANDARD_METHODS["fedft_eds"], 0.1, 3
    )
    history = run_federated_training(
        server,
        clients,
        rounds=2,
        seed=run_seed,
        participation=_EmptyThenFull(),
        timing=harness.timing,
    )
    empty = history.records[0]
    assert empty.participants == ()
    assert empty.selected_samples == 0
    assert empty.client_seconds == 0.0
    assert empty.mean_local_loss == 0.0
    assert np.isfinite(empty.mean_local_loss)
    assert not np.isnan(history.accuracies).any()
    # round 2 aggregated normally
    assert len(history.records[1].participants) == 3


def test_history_threshold_queries_ignore_stale_accuracy():
    history = TrainingHistory()

    def record(i, acc, evaluated, secs):
        return RoundRecord(
            round_index=i,
            test_accuracy=acc,
            participants=(0,),
            selected_samples=1,
            client_seconds=1.0,
            cumulative_client_seconds=secs,
            mean_local_loss=0.0,
            evaluated=evaluated,
        )

    history.append(record(1, 0.6, True, 1.0))
    history.append(record(2, 0.6, False, 2.0))  # carried forward
    history.append(record(3, 0.8, True, 3.0))
    assert history.seconds_to_accuracy(0.6) == 1.0
    assert history.seconds_to_accuracy(0.7) == 3.0  # not round 2's stale 0.6
    assert history.seconds_to_accuracy(0.8) == 3.0


def test_eval_every_marks_between_rounds_as_not_evaluated():
    result = run_fedft_eds(
        FedFTEDSConfig(seed=0, eval_every=2, **{**SMOKE, "rounds": 4})
    )
    flags = [r.evaluated for r in result.history.records]
    assert flags == [False, True, False, True]


def test_straggler_multipliers_helper():
    mult = straggler_multipliers(10, 0.5, 8.0, seed=1)
    assert len(mult) == 5
    assert all(v == 8.0 for v in mult.values())
    assert straggler_multipliers(10, 0.5, 8.0, seed=1) == mult
    with pytest.raises(ValueError):
        straggler_multipliers(10, 0.5, 0.5)


def _fedft_eds_federation():
    """A FedFT-EDS smoke federation: a ``moderate`` MLP, entropy selection,
    shard keys for the feature cache."""
    from repro.core.partial import prepare_partial_model
    from repro.data.dataset import ArrayDataset
    from repro.data.partition import iid_partition
    from repro.fl.client import Client
    from repro.fl.selection import EntropySelector
    from repro.fl.server import Server
    from repro.fl.strategies import LocalSolver
    from repro.nn.mlp import MLP

    rng = np.random.default_rng(0)
    model = MLP(48, (16, 16, 16), 4, rng)
    prepare_partial_model(model, "moderate")
    x = rng.normal(size=(240, 3, 4, 4))
    y = rng.integers(0, 4, size=240)
    train = ArrayDataset(x, y)
    clients = [
        Client(
            i, train.subset(shard), EntropySelector(),
            LocalSolver(lr=0.05, batch_size=8), 0.5, 1,
            np.random.default_rng(10 + i), shard_key=("walks", i),
        )
        for i, shard in enumerate(iid_partition(y, 6, rng))
    ]
    return Server(model, ArrayDataset(x[:40], y[:40])), clients


def test_event_engine_walks_the_model_once_per_structure(monkeypatch):
    """The event engine derives the model's split, ϕ chain and head from
    its structure memo: a FedBuff run walks the module tree (counted as
    ``has_trainable`` and ``named_parameters`` calls) as often over 600
    events as over 300, instead of once more per dispatch."""
    from repro.engine.runner import run_async_federated_training
    from repro.fl.features import FeatureRuntime
    from repro.nn.module import Module

    counts = {"has_trainable": 0, "named_parameters": 0}

    def counted(name):
        original = getattr(Module, name)

        def wrapper(self, *args, **kwargs):
            counts[name] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Module, name, wrapper)

    counted("has_trainable")
    counted("named_parameters")
    walks = []
    for events in (300, 600):
        server, clients = _fedft_eds_federation()
        counts.update(has_trainable=0, named_parameters=0)
        log = run_async_federated_training(
            server, clients, FedBuffAggregator(buffer_size=2),
            max_events=events, max_concurrency=3,
            feature_runtime=FeatureRuntime(),
        )
        assert len(log) >= events
        walks.append(dict(counts))
    assert walks[0] == walks[1]
    assert walks[0]["has_trainable"] > 0
