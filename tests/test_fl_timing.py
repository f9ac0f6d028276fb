"""The analytic timing model, its interaction with partial training, and
where the run loops price a round."""

import pickle
from itertools import accumulate

import numpy as np
import pytest

from repro import nn
from repro.core.fedft_eds import build_model
from repro.core.partial import prepare_partial_model
from repro.data.dataset import ArrayDataset
from repro.engine.aggregators import FedAsyncAggregator, FedBuffAggregator
from repro.engine.backends import ExecutionBackend, SerialBackend, make_backend
from repro.engine.runner import run_async_federated_training
from repro.fl import fastpath
from repro.fl.client import Client
from repro.fl.features import FeatureRuntime
from repro.fl.rounds import run_federated_training
from repro.fl.selection import EntropySelector
from repro.fl.server import Server
from repro.fl.strategies import LocalSolver
from repro.fl.timing import TimingModel
from repro.nn import profiling
from repro.nn.segmented import FINE_TUNE_LEVELS, SEGMENT_ORDER

RNG = np.random.default_rng
SHAPE = (3, 4, 4)


def make_model(level="full"):
    model = nn.MLP(48, (16, 16, 16), 4, RNG(0))
    model.apply_fine_tune_level(level)
    return model


@pytest.mark.parametrize(
    "kwargs",
    [{"flops_per_second": float("nan")}, {"flops_per_second": float("inf")},
     {"speed_multipliers": {0: float("nan")}},
     {"speed_multipliers": {0: float("inf")}}],
    ids=["flops_nan", "flops_inf", "multiplier_nan", "multiplier_inf"],
)
def test_timing_model_refuses_non_finite_settings(kwargs):
    with pytest.raises(ValueError):
        TimingModel(**kwargs)


def test_round_seconds_positive_and_scales_with_data():
    timing = TimingModel(flops_per_second=1e6)
    model = make_model()
    t1 = timing.round_seconds(model, SHAPE, 10, 100, epochs=1, selection_forward=False)
    t2 = timing.round_seconds(model, SHAPE, 20, 100, epochs=1, selection_forward=False)
    assert 0 < t1 < t2
    assert t2 == pytest.approx(2 * t1)


def test_epochs_scale_training_time():
    timing = TimingModel(flops_per_second=1e6)
    model = make_model()
    t1 = timing.round_seconds(model, SHAPE, 10, 100, epochs=1, selection_forward=False)
    t5 = timing.round_seconds(model, SHAPE, 10, 100, epochs=5, selection_forward=False)
    assert t5 == pytest.approx(5 * t1)


def test_selection_overhead_added():
    timing = TimingModel(flops_per_second=1e6)
    model = make_model()
    base = timing.round_seconds(model, SHAPE, 10, 100, epochs=1, selection_forward=False)
    with_sel = timing.round_seconds(
        model, SHAPE, 10, 100, epochs=1, selection_forward=True
    )
    assert with_sel > base


def test_partial_training_cheaper():
    """The workload reduction the paper claims from partial fine-tuning."""
    timing = TimingModel(flops_per_second=1e6)
    full = timing.round_seconds(
        make_model("full"), SHAPE, 10, 100, epochs=1, selection_forward=False
    )
    partial = timing.round_seconds(
        make_model("classifier"), SHAPE, 10, 100, epochs=1, selection_forward=False
    )
    assert partial < full


def test_fedft_eds_beats_fedavg_workload():
    """FedFT-EDS round (10% data + selection pass + partial model) must be
    much cheaper than a FedAvg round (all data, full model)."""
    timing = TimingModel(flops_per_second=1e6)
    n = 200
    fedavg = timing.round_seconds(
        make_model("full"), SHAPE, n, n, epochs=5, selection_forward=False
    )
    fedft_eds = timing.round_seconds(
        make_model("moderate"), SHAPE, n // 10, n, epochs=5, selection_forward=True
    )
    assert fedft_eds < fedavg / 3  # the paper's ≥3x efficiency headroom


def test_speed_multipliers():
    timing = TimingModel(flops_per_second=1e6, speed_multipliers={1: 4.0})
    model = make_model()
    fast = timing.round_seconds(
        model, SHAPE, 10, 10, epochs=1, selection_forward=False, client_id=0
    )
    slow = timing.round_seconds(
        model, SHAPE, 10, 10, epochs=1, selection_forward=False, client_id=1
    )
    assert slow == pytest.approx(4 * fast)


def _two_walk_training_flops(model, in_shape):
    """Reference: the training count from a per-segment walk plus a
    separate trainable-frontier pass, as priced before the single walk."""
    per_segment = {}
    shape = in_shape
    for name, segment in model.segments():
        per_segment[name], shape = segment.flops_per_sample(shape)
    total_forward = sum(per_segment.values())
    trainable = [
        SEGMENT_ORDER.index(name)
        for name, segment in model.segments()
        if segment.has_trainable()
    ]
    if not trainable:
        return total_forward
    backward = sum(
        per_segment[name]
        for i, name in enumerate(SEGMENT_ORDER)
        if i >= min(trainable)
    )
    return int(total_forward + profiling.BACKWARD_FORWARD_RATIO * backward)


@pytest.mark.parametrize("kind", ["mlp", "cnn", "tiny_wrn"])
def test_single_walk_pricing_equals_the_two_walk_formula(kind):
    """One segment walk prices a round to the same float as the training
    and selection counts taken by separate walks, at every fine-tune level
    (and with nothing trainable) and with selection on or off."""
    shape = (3, 8, 8)
    timing = TimingModel(flops_per_second=3e7, speed_multipliers={2: 1.7})
    for level in [*FINE_TUNE_LEVELS, "frozen"]:
        model = build_model(kind, shape, 4, RNG(0))
        if level == "frozen":
            model.freeze()
        else:
            model.apply_fine_tune_level(level)
        training, selection = profiling.round_flops_per_sample(model, shape)
        assert training == _two_walk_training_flops(model, shape)
        assert selection == model.flops_per_sample(shape)[0]
        for selection_forward in (False, True):
            expected = (
                training * 7 * 3 + (selection * 50 if selection_forward else 0)
            ) / 3e7 * 1.7
            got = timing.round_seconds(
                model, shape, 7, 50, epochs=3,
                selection_forward=selection_forward, client_id=2,
            )
            assert got == expected, (level, selection_forward)


def test_validation():
    with pytest.raises(ValueError):
        TimingModel(flops_per_second=0)
    with pytest.raises(ValueError):
        TimingModel(speed_multipliers={0: -1.0})
    timing = TimingModel()
    with pytest.raises(ValueError):
        timing.round_seconds(make_model(), SHAPE, -1, 10, 1, False)
    with pytest.raises(ValueError):
        timing.round_seconds(make_model(), SHAPE, 1, 10, 0, False)


# ---------------------------------------------------------------------------
# Where a round is priced: both run loops, both backends
# ---------------------------------------------------------------------------


class _PerClientSerial(SerialBackend):
    """Ungrouped dispatch: every client through ``submit`` alone."""

    submit_many = ExecutionBackend.submit_many


def _priced_federation():
    """A moderate MLP and six entropy clients. Odd clients lay their 24
    inputs per sample out as ``(2, 12)``, so the run sees two input
    shapes; four shards of 40 select 12 each and cohort, while 26 and 33
    select 8 and 10 and run alone."""
    model = nn.MLP(24, (16, 16, 16), 5, RNG(1))
    prepare_partial_model(model, "moderate")
    clients = []
    for cid, n in enumerate([40, 40, 40, 26, 40, 33]):
        rng = RNG(100 + cid)
        x = rng.normal(size=(n, 24))
        if cid % 2:
            x = x.reshape(n, 2, 12)
        clients.append(Client(
            cid, ArrayDataset(x, rng.integers(0, 5, size=n)),
            EntropySelector(), LocalSolver(), 0.3, 2, RNG(500 + cid),
        ))
    test_set = ArrayDataset(
        RNG(7).normal(size=(64, 24)), RNG(8).integers(0, 5, 64)
    )
    return Server(model, test_set), clients


def _priced_run(loop, backend):
    """Run ``loop`` on ``backend`` over a fresh :func:`_priced_federation`,
    every client at its own speed multiplier."""
    server, clients = _priced_federation()
    timing = TimingModel(
        speed_multipliers={cid: 1 + 0.37 * cid for cid in range(len(clients))}
    )
    with backend:
        if loop == "sync":
            history = run_federated_training(
                server, clients, rounds=3, seed=3, timing=timing,
                backend=backend,
            )
        else:
            aggregator = (
                FedAsyncAggregator() if loop == "fedasync"
                else FedBuffAggregator(buffer_size=3)
            )
            history = run_async_federated_training(
                server, clients, aggregator, max_events=12, seed=5,
                timing=timing, backend=backend, max_concurrency=4,
            )
    outcome = (
        history.records,
        {k: v.tobytes() for k, v in server.global_state.items()},
        [c.rng.bit_generator.state for c in clients],
    )
    return server, clients, timing, history, outcome


@pytest.mark.parametrize("backend_name", ["serial", "process"])
@pytest.mark.parametrize("loop", ["sync", "fedasync", "fedbuff"])
def test_every_record_bills_the_prices_taken_at_dispatch(
    loop, backend_name, monkeypatch
):
    """Each run loop prices a round once, when it dispatches it, on either
    backend: every record bills its clients' ``planned_round_seconds``
    (a sync round their sum in participant order), the model is walked
    once per structure and input shape for the whole run, and no job a
    backend dispatches carries a timing model. The run's records, θ
    bytes and RNG streams equal per-client dispatch's."""
    *_, reference = _priced_run(
        loop, _PerClientSerial(feature_runtime=FeatureRuntime())
    )
    walks = []
    walk = profiling._walk

    def counting(model, shape):
        walks.append((model.structure().flags, shape))
        return walk(model, shape)

    monkeypatch.setattr(profiling, "_walk", counting)
    backend = make_backend(
        backend_name, max_workers=2, feature_runtime=FeatureRuntime()
    )
    jobs = []
    if backend_name == "process":
        dispatch = backend._dispatch

        def spying(entry, job, segments):
            jobs.append(job)
            return dispatch(entry, job, segments)

        backend._dispatch = spying
    before = dict(fastpath.COHORT_STATS)
    server, clients, timing, history, outcome = _priced_run(loop, backend)
    cohorts = {k: v - before[k] for k, v in fastpath.COHORT_STATS.items()}

    # one walk per (structure, input shape) pair, made by the loop
    assert len(set(walks)) == len(walks) == 2
    assert {shape for _, shape in walks} == {(24,), (2, 12)}
    # every record bills its clients' dispatch-time prices
    prices = [c.planned_round_seconds(server.model, timing) for c in clients]
    assert len(set(prices)) == len(clients)
    if loop == "sync":
        assert cohorts["cohort_solves"] == 3 and cohorts["singletons"] == 6
        billed = [
            float(sum(prices[cid] for cid in r.participants))
            for r in history.records
        ]
    else:
        dispatched = [r for r in history.records if r.client_id >= 0]
        assert len(dispatched) == 12
        billed = [
            prices[r.client_id] if r.client_id >= 0 else 0.0
            for r in history.records
        ]
    assert [r.client_seconds for r in history.records] == billed
    assert [r.cumulative_client_seconds for r in history.records] == list(
        accumulate(billed, initial=0.0)
    )[1:]
    # no dispatched job carries a timing model
    if backend_name == "process":
        assert jobs
        if loop == "sync":
            assert len(jobs) == 9  # a cohort and two lone clients a round
    assert not any("timing" in job for job in jobs)
    assert not any(b"TimingModel" in pickle.dumps(job) for job in jobs)
    # the same records, θ bytes and RNG streams as per-client dispatch
    assert outcome == reference
