"""Observability fabric (repro.obs): exactness, identity, zero cost.

Three properties are load-bearing and pinned here:

1. **merge exactness** — counters incremented inside spawn-context worker
   processes must reach the parent registry exactly (work counters sum to
   the serial counts, not approximately);
2. **bitwise identity** — telemetry (and tracing) must never perturb a
   run: same EventLog / accuracies / final weights with it on or off,
   across sync/async modes and serial/process backends;
3. **zero cost when disabled** — the span helpers on the hot paths must
   not allocate while no tracer is installed.
"""

import json
import os
import sys

import numpy as np
import pytest

from repro.core.fedft_eds import FedFTEDSConfig, run_fedft_eds
from repro.engine.records import EventLog, EventRecord
from repro.experiments.run_all import build_parser, run_experiments
from repro.fl.communication import history_communication, round_communication
from repro.obs import metrics, tracing
from repro.obs.metrics import CounterGroup, Histogram, MetricsRegistry
from repro.obs.report import TelemetrySession, write_jsonl
from repro.obs.tracing import Tracer
from repro.testbed import ENGINE_SMOKE


# -- metrics registry -------------------------------------------------------


def test_counter_group_is_a_plain_dict():
    """Compatibility contract: existing tests assert dict equality on the
    runtime stats objects, so the namespaced group must *be* its dict."""
    group = CounterGroup("campaign.pool", {"hits": 0, "publishes": 0})
    group["hits"] += 3
    assert group == {"hits": 3, "publishes": 0}
    assert dict(group) == {"hits": 3, "publishes": 0}
    assert group.flat() == {"campaign.pool.hits": 3, "campaign.pool.publishes": 0}


def test_counter_group_pickle_roundtrip():
    import pickle

    group = CounterGroup("solver.fused", {"fused_solves": 7})
    clone = pickle.loads(pickle.dumps(group))
    assert clone == group
    assert clone.namespace == "solver.fused"


def test_counter_group_add_accumulates():
    a = CounterGroup("x", {"n": 1})
    a.add({"n": 2, "m": 5})
    assert a == {"n": 3, "m": 5}


def test_registry_snapshot_counters_gauges_histograms():
    registry = MetricsRegistry()
    registry.register(CounterGroup("a.b", {"c": 2}))
    registry.gauge("a.gauge", lambda: 1.5)
    registry.gauge("a.broken", lambda: 1 / 0)
    registry.histogram("a.hist").observe(2.0)
    registry.histogram("a.hist").observe(4.0)
    snap = registry.snapshot()
    assert snap["a.b.c"] == 2
    assert snap["a.gauge"] == 1.5
    assert np.isnan(snap["a.broken"])  # a gauge must never take a run down
    assert snap["a.hist.count"] == 2
    assert snap["a.hist.mean"] == 3.0
    # counters() is the baseline-able subset: no gauges, no histograms
    assert set(registry.counters()) == {"a.b.c"}


def test_registry_sources_resolve_lazily():
    registry = MetricsRegistry()
    groups = []
    registry.add_source(lambda: groups)
    assert "late.n" not in registry.snapshot()
    groups.append(CounterGroup("late", {"n": 9}))
    assert registry.snapshot()["late.n"] == 9


def test_registry_merge_folds_dotted_deltas():
    registry = MetricsRegistry()
    registry.register(CounterGroup("solver.fused", {"fused_solves": 1}))
    registry.merge({"solver.fused.fused_solves": 4, "solver.fused.new_key": 2})
    assert registry.snapshot()["solver.fused.fused_solves"] == 5
    assert registry.snapshot()["solver.fused.new_key"] == 2


def test_shard_delta_protocol():
    group = metrics.export_group("test.shard.proto", {"n": 0})
    baseline = metrics.shard_baseline()
    assert metrics.shard_delta(baseline) is None  # idle job: no payload
    group["n"] += 3
    delta = metrics.shard_delta(baseline)
    assert delta == {"test.shard.proto.n": 3}
    group["n"] = 0
    metrics.merge_exported(delta)
    assert group["n"] == 3
    metrics.merge_exported(None)  # no-op
    assert group["n"] == 3


def test_histogram_summary():
    hist = Histogram("h")
    assert hist.summary()["count"] == 0
    for value in (1.0, 5.0, 3.0):
        hist.observe(value)
    summary = hist.summary()
    assert summary == {
        "count": 3, "total": 9.0, "mean": 3.0, "min": 1.0, "max": 5.0,
    }


# -- worker-shard merge exactness -------------------------------------------

#: solver counters incremented once per unit of work — identical totals
#: whether the work ran inline or inside spawn workers. (Cache-shaped
#: counters like ``plans_built`` are per worker *process* by design and
#: are deliberately not compared.)
_WORK_COUNTERS = ("fused_solves", "graph_solves", "theta_fast_loads")


def _fused_work_counters() -> dict[str, int]:
    from repro.fl.fastpath import STATS

    return {key: STATS[key] for key in _WORK_COUNTERS}


def test_worker_shard_merge_is_exact():
    """Work counters from spawn-context workers sum to the serial counts."""
    metrics.reset_exported()
    serial = run_fedft_eds(
        FedFTEDSConfig(seed=13, backend="serial", **ENGINE_SMOKE)
    )
    serial_counts = _fused_work_counters()

    metrics.reset_exported()
    pooled = run_fedft_eds(
        FedFTEDSConfig(seed=13, backend="process", max_workers=2, **ENGINE_SMOKE)
    )
    pooled_counts = _fused_work_counters()

    assert serial_counts == pooled_counts
    assert serial_counts["fused_solves"] + serial_counts["graph_solves"] > 0
    # sanity: counting changed nothing about the runs themselves
    assert np.array_equal(serial.history.accuracies, pooled.history.accuracies)


# -- bitwise identity: telemetry on vs off ----------------------------------


def _final_state(result):
    return {k: v.copy() for k, v in result.server.global_state.items()}


def _states_equal(a, b):
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


def _history_fingerprint(history):
    records = getattr(history, "records", [])
    if records and hasattr(records[0], "participants"):
        return [(r.round_index, r.participants) for r in records]
    return [
        (r.virtual_time, r.client_id, r.kind, r.staleness, r.model_version)
        for r in records
    ]


@pytest.mark.parametrize(
    "mode,backend",
    [
        ("sync", "serial"),
        ("fedbuff", "serial"),
        ("sync", "process"),
        ("fedbuff", "process"),
    ],
)
def test_telemetry_is_bitwise_invisible(tmp_path, mode, backend):
    """Same EventLog/accuracies/weights with telemetry+tracing on or off."""
    kwargs = dict(ENGINE_SMOKE)
    extra = {}
    if mode == "fedbuff":
        extra = dict(mode="fedbuff", buffer_size=2)
    if backend == "process":
        extra["max_workers"] = 2
    plain = run_fedft_eds(
        FedFTEDSConfig(seed=5, backend=backend, **extra, **kwargs)
    )
    observed = run_fedft_eds(
        FedFTEDSConfig(
            seed=5,
            backend=backend,
            telemetry_dir=str(tmp_path / f"{mode}_{backend}"),
            trace=True,
            **extra,
            **kwargs,
        )
    )
    assert _history_fingerprint(plain.history) == _history_fingerprint(
        observed.history
    )
    assert np.array_equal(plain.history.accuracies, observed.history.accuracies)
    assert _states_equal(_final_state(plain), _final_state(observed))
    # and the artifacts exist and parse
    out = tmp_path / f"{mode}_{backend}"
    rows = [
        json.loads(line) for line in (out / "telemetry.jsonl").read_text().splitlines()
    ]
    assert any(r["type"] == "snapshot" for r in rows)
    assert json.load(open(out / "trace.json"))["traceEvents"]


# -- tracing ----------------------------------------------------------------


def test_disabled_spans_allocate_nothing():
    """The hot-path guard: with no tracer installed, span() returns a
    shared singleton and event_span() returns without allocating."""
    tracing.uninstall()
    for _ in range(64):  # warm up any lazy interpreter state
        with tracing.span("warm", 1.0):
            pass
        tracing.event_span("warm", 2.0, 1.0, 0)
    before = sys.getallocatedblocks()
    for _ in range(512):
        with tracing.span("hot", 1.0):
            pass
        tracing.event_span("hot", 2.0, 1.0, 0)
    after = sys.getallocatedblocks()
    assert after - before <= 2
    assert tracing.span("x") is tracing.span("y")


def test_tracer_records_both_clocks():
    tracer = tracing.install(Tracer())
    try:
        with tracing.span("work", virtual_time=3.5):
            pass
        tracing.event_span("update", 4.0, 1.5, 2)
        tracing.virtual_span("flush", 0.0, 0.5, -1)
    finally:
        tracing.uninstall()
    assert tracer.summary_by_name()["work"][0] == 1
    rows = tracer.jsonl_rows()
    kinds = {r["type"] for r in rows}
    assert kinds == {"span", "vspan"}
    vspan = next(r for r in rows if r["name"] == "update")
    assert vspan["virtual_start"] == 2.5  # end_time - duration
    assert vspan["virtual_seconds"] == 1.5
    assert vspan["track"] == 2


def test_chrome_trace_schema():
    tracer = Tracer()
    tracer.add_wall("solve", 0.0, 0.25, 1.0)
    tracer.add_virtual("update", 1.0, 0.5, 3)
    tracer.add_virtual("flush", 2.0, 0.1, -1)
    trace = tracer.chrome_trace()
    json.dumps(trace)  # must be valid JSON
    assert trace["displayTimeUnit"] == "ms"
    events = trace["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    for event in spans:
        assert {"name", "cat", "ph", "ts", "dur", "pid", "tid"} <= set(event)
    assert {e["pid"] for e in spans} == {1, 2}  # dual clock: two tracks
    meta = [e for e in events if e["ph"] == "M"]
    names = {
        (e["pid"], e["tid"]): e["args"]["name"]
        for e in meta
        if e["name"] == "thread_name"
    }
    assert names[(2, -1)] == "server"
    assert names[(2, 3)] == "client 3"


def test_tracer_bounds_memory():
    tracer = Tracer(max_events=2)
    for i in range(5):
        tracer.add_wall("s", float(i), 0.1, None)
    assert len(tracer.wall) == 2
    assert tracer.dropped == 3


# -- event log export -------------------------------------------------------


def test_write_jsonl_append(tmp_path):
    path = str(tmp_path / "x.jsonl")
    write_jsonl(path, [{"a": 1}])
    write_jsonl(path, [{"a": 2}], append=True)
    assert [json.loads(line)["a"] for line in open(path)] == [1, 2]


# -- communication accounting -----------------------------------------------


def _partial_model():
    from repro import nn

    model = nn.SmallConvNet(4, np.random.default_rng(0), channels=(4, 8, 8))
    model.apply_fine_tune_level("moderate")
    return model


def test_history_communication_sync_counts_participants():
    class _Round:
        def __init__(self, participants):
            self.participants = participants

    class _History:
        records = [_Round((0, 1)), _Round((2,))]

    model = _partial_model()
    per_round = round_communication(model)
    totals = history_communication(model, _History(), num_clients=3)
    assert totals.download_parameters == 3 * per_round.download_parameters
    assert totals.upload_parameters == 3 * per_round.upload_parameters
    full = sum(v.size for v in model.state_dict().values())
    assert totals.initial_download_parameters == 3 * (
        full - per_round.download_parameters
    )
    assert totals.bytes(8) == totals.total_parameters * 8


def test_history_communication_async_kinds():
    model = _partial_model()

    def record(kind, client_id=0):
        return EventRecord(
            event_index=0, kind=kind, virtual_time=0.0, client_id=client_id,
            staleness=0, model_version=0, test_accuracy=0.0, evaluated=False,
            num_selected=0, client_seconds=0.0,
            cumulative_client_seconds=0.0, mean_local_loss=0.0,
        )

    log = EventLog()
    log.append(record("update"))
    log.append(record("buffer"))
    log.append(record("drop"))  # downloaded θ, never reported back
    log.append(record("update", client_id=-1))  # server flush: moves nothing
    per_round = round_communication(model)
    totals = history_communication(model, log, num_clients=2)
    assert totals.download_parameters == 3 * per_round.download_parameters
    assert totals.upload_parameters == 2 * per_round.upload_parameters


# -- telemetry session ------------------------------------------------------


def test_session_counters_are_deltas_since_activation(tmp_path):
    group = metrics.export_group("test.session.delta", {"n": 0})
    group["n"] += 100  # pre-session history must not leak into the report
    session = TelemetrySession(directory=str(tmp_path))
    session.activate()
    group["n"] += 7
    assert session.snapshot()["test.session.delta.n"] == 7
    session.close()
    rows = [
        json.loads(line)
        for line in (tmp_path / "telemetry.jsonl").read_text().splitlines()
    ]
    final = [r for r in rows if r["type"] == "snapshot"][-1]
    assert final["label"] == "final"
    assert final["counters"]["test.session.delta.n"] == 7


def test_session_close_is_idempotent(tmp_path):
    session = TelemetrySession(directory=str(tmp_path), trace=True)
    with session:
        with tracing.span("inside"):
            pass
    session.close()  # second close: no error, no duplicate artifacts
    assert tracing.active() is None
    assert (tmp_path / "trace.json").exists()


def test_session_record_run_accumulates_traffic(tmp_path):
    result = run_fedft_eds(FedFTEDSConfig(seed=3, **ENGINE_SMOKE))
    session = TelemetrySession(directory=str(tmp_path))
    session.activate()
    session.record_run(
        "cifar10/fedft_eds",
        server=result.server,
        model=result.model,
        history=result.history,
        num_clients=ENGINE_SMOKE["num_clients"],
    )
    snap = session.snapshot()
    assert snap["comm.runs"] == 1
    assert snap["comm.download_parameters"] > 0
    assert snap["comm.total_bytes"] > 0
    assert snap["server.eval.local_evals"] > 0
    summary = session.summary()
    assert "simulated traffic per method" in summary
    assert "cifar10/fedft_eds" in summary
    session.close()


# -- CLI --------------------------------------------------------------------


def test_cli_parser_telemetry_flags():
    parser = build_parser()
    args = parser.parse_args(
        ["--telemetry", "out/tel", "--trace", "--telemetry-refresh", "2.5"]
    )
    assert args.telemetry == "out/tel"
    assert args.trace is True
    assert args.telemetry_refresh == 2.5
    defaults = parser.parse_args([])
    assert defaults.telemetry is None
    assert defaults.trace is False
    assert defaults.no_telemetry is False


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--trace"], ["--trace"]),
        (["--telemetry-refresh", "2"], ["--telemetry-refresh"]),
        (
            ["--output", "OUT", "--no-telemetry", "--trace",
             "--telemetry-refresh", "2"],
            ["--trace", "--telemetry-refresh"],
        ),
        (["--telemetry", "TEL", "--no-telemetry"],
         ["--telemetry", "--no-telemetry"]),
        ({"trace": True}, ["trace", "telemetry_dir"]),
        ({"telemetry_refresh": 2.0}, ["telemetry_refresh", "telemetry_dir"]),
    ],
    ids=[
        "cli-trace", "cli-refresh", "cli-output-no-telemetry",
        "cli-dir-no-telemetry", "api-trace", "api-refresh",
    ],
)
def test_telemetry_flags_without_telemetry_are_refused(
    argv, named, tmp_path, monkeypatch, capsys
):
    """Flags that act only through a telemetry session, or that contradict
    each other, are refused before any experiment runs: the CLI exits 2
    naming them, ``run_experiments`` raises ValueError."""
    from repro.experiments import run_all

    def no_experiment(*args, **kwargs):
        raise AssertionError("an experiment started despite the refusal")

    monkeypatch.setattr(run_all, "get_experiment", no_experiment)
    if isinstance(argv, dict):
        with pytest.raises(ValueError) as error:
            run_experiments("smoke", only=["fig1"], stream=None, **argv)
        message = str(error.value)
    else:
        argv = [
            str(tmp_path / arg) if arg in ("OUT", "TEL") else arg
            for arg in argv
        ]
        with pytest.raises(SystemExit) as exit_info:
            run_all.main(["--scale", "smoke", "--only", "fig1", *argv])
        assert exit_info.value.code == 2
        message = capsys.readouterr().err
    for name in named:
        assert name in message
    assert not os.listdir(tmp_path)


def test_run_experiments_writes_telemetry_artifacts(tmp_path):
    run_experiments(
        "smoke",
        seed=0,
        only=["fig1"],
        stream=open(os.devnull, "w"),
        telemetry_dir=str(tmp_path / "tel"),
        trace=True,
    )
    out = tmp_path / "tel" / "fig1"
    rows = [
        json.loads(line)
        for line in (out / "telemetry.jsonl").read_text().splitlines()
    ]
    assert any(r["type"] == "snapshot" for r in rows)
    trace = json.load(open(out / "trace.json"))
    assert isinstance(trace["traceEvents"], list)
