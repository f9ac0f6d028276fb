"""One-call FedFT-EDS runner (Algorithm 1, end to end).

``run_fedft_eds`` wires the full pipeline: synthetic source/target domains,
source-domain pretraining, head adaptation, partial freezing, Dirichlet
partitioning, and federated rounds with entropy-based data selection. It is
the public quickstart API; the experiment harness in
:mod:`repro.experiments` builds the same pieces with per-table baselines.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from repro.data import synthetic
from repro.data.partition import dirichlet_partition
from repro.engine.aggregators import make_aggregator
from repro.engine.availability import AlwaysAvailable, AvailabilityModel
from repro.engine.backends import (
    BACKENDS,
    PooledEvaluator,
    ProcessPoolBackend,
    make_backend,
)
from repro.engine.campaign import CampaignSegmentPool
from repro.engine.faults import (
    ChaosPlan,
    FaultPolicy,
    install_chaos,
    reject_worker_only_knobs,
)
from repro.engine.records import EventLog
from repro.engine.runner import run_async_federated_training
from repro.fl.client import Client
from repro.fl.features import FeatureRuntime
from repro.fl.rounds import (
    TrainingHistory,
    check_run_knobs,
    run_federated_training,
)
from repro.fl.selection import EntropySelector, FullSelector, RandomSelector
from repro.fl.server import Server
from repro.fl.strategies import LocalSolver
from repro.fl.timing import TimingModel
from repro.core.partial import adapt_to_task, prepare_partial_model
from repro.metrics.efficiency import LearningEfficiency, learning_efficiency
from repro.nn.mlp import MLP
from repro.nn.cnn import SmallConvNet
from repro.nn.wrn import TinyWRN, WideResNet
from repro.nn.segmented import FINE_TUNE_LEVELS, SegmentedModel
from repro.pretrain.pretrainer import PretrainConfig, pretrain_model
from repro.store import check_store_knobs, resolve_store
from repro.utils import spawn_rngs

#: schema version of the pretrained-backbone store key: bump when anything
#: the key does not pin starts affecting the pretrained bytes
PRETRAIN_KEY_VERSION = 1


@dataclass
class FedFTEDSConfig:
    """Configuration of one FedFT-EDS run on synthetic data.

    Defaults give a minutes-scale run at the `default` reproduction scale
    with the paper's hyperparameters (E=5 local epochs, SGD lr 0.1 momentum
    0.5, hardened softmax ρ=0.1, Pds=10%, Diri(0.1)).
    """

    seed: int = 0
    dataset: str = "cifar10"  # cifar10 | cifar100 | speech_commands
    model: str = "mlp"  # mlp | cnn | tiny_wrn | wrn16
    num_clients: int = 10
    rounds: int = 20
    local_epochs: int = 5
    alpha: float = 0.1  # Dirichlet heterogeneity
    selection_fraction: float = 0.1  # the paper's Pds
    selection: str = "eds"  # eds | rds | all
    temperature: float = 0.1  # hardened softmax ρ
    fine_tune_level: str = "moderate"
    lr: float = 0.1
    momentum: float = 0.5
    prox_mu: float = 0.0
    batch_size: int = 32
    pretrain: bool = True
    pretrain_epochs: int = 8
    image_size: int = 12
    train_size: int = 3000
    test_size: int = 1000
    #: evaluation cadence: every N rounds in sync mode, every N *model
    #: versions* in async modes — FedAsync creates one version per client
    #: completion, so consider a num_clients-scale cadence there
    eval_every: int = 1
    verbose: bool = False
    timing: TimingModel = field(default_factory=TimingModel)
    # -- engine (DESIGN.md): training mode and execution backend ----------
    #: "sync" lock-step rounds | "fedasync" immediate staleness-weighted
    #: mixing | "fedbuff" buffered aggregation of K updates
    mode: str = "sync"
    #: "serial" | "process" — where client rounds execute
    backend: str = "serial"
    #: process workers of a standalone run (a campaign sizes its own)
    max_workers: int | None = None
    #: async only: cap on concurrently training clients (default: all)
    max_concurrency: int | None = None
    #: async only: completion-event budget (default: rounds × num_clients,
    #: i.e. the same total local work as the synchronous run)
    max_events: int | None = None
    async_mixing: float = 0.6  # FedAsync α
    staleness_exponent: float = 0.5
    buffer_size: int = 4  # FedBuff K
    server_lr: float = 1.0  # FedBuff server step
    #: async only: probability a dispatched round is lost mid-way
    dropout_probability: float = 0.0
    #: async only: online/offline churn (overrides dropout_probability)
    availability: AvailabilityModel | None = None
    #: directory for periodic run-state checkpoints (both loops write the
    #: one format); resumable via
    #: :func:`repro.fl.checkpoint.resume_sync_federated_training` or
    #: :func:`repro.fl.checkpoint.resume_async_federated_training`
    checkpoint_path: str | None = None
    #: checkpoint cadence: rounds in sync mode, processed events in the
    #: async modes (0 = disabled)
    checkpoint_every: int = 0
    #: fault layer (repro.engine.faults): per-job wall-clock deadline on
    #: the process backend — a hung job is killed and redispatched
    #: bitwise identically; setting either knob enables the FaultPolicy.
    #: backend="serial" runs no worker jobs and rejects both knobs, as it
    #: does the job-indexed chaos events (kill/delay/corrupt)
    job_timeout: float | None = None
    #: consecutive failures of one job before it degrades to inline
    #: execution (None = FaultPolicy's default budget)
    max_job_retries: int | None = None
    #: deterministic chaos injection: a spec string
    #: (``"kill@3;delay@5:0.2"``) or a prebuilt
    #: :class:`~repro.engine.faults.ChaosPlan`; installed process-wide for
    #: the run so checkpoint writers see tear events — results stay
    #: bitwise identical to the fault-free run
    chaos: object | None = None
    #: snapshot the run after every round (sync) or event (async) and
    #: write it as an emergency checkpoint on the way down if the loop
    #: crashes (requires checkpoint_path); pairs with
    #: repro.engine.faults.run_supervised
    emergency_checkpoint: bool = False
    #: campaign scope for repeated calls: a :class:`FedFTEDSCampaign`
    #: supplies the warm process backend, segment pool, feature runtime
    #: and artifact store shared across runs (standalone calls build
    #: throwaway ones); with it, ``max_workers``, ``cache_dir`` and
    #: ``artifact_store`` are the campaign's and refused per run
    campaign: "FedFTEDSCampaign | None" = None
    #: observability (repro.obs): directory for ``telemetry.jsonl``
    #: counter snapshots and the end-of-run summary; telemetry never
    #: touches an RNG stream, so results are bitwise identical with it
    #: on or off
    telemetry_dir: str | None = None
    #: with ``telemetry_dir``: also record dual-clock spans and export a
    #: Perfetto-loadable ``trace.json``
    trace: bool = False
    #: durable artifact store (repro.store): root directory override for
    #: ``${REPRO_CACHE:-~/.cache/repro}``; setting it enables the store,
    #: and setting it with ``artifact_store=False`` is refused
    cache_dir: str | None = None
    #: force the artifact store on (``True`` — at ``cache_dir`` or the
    #: default root) or off (``False``), or pass a prebuilt
    #: :class:`repro.store.ArtifactStore`; ``None`` enables it exactly
    #: when ``cache_dir`` is set. With a store, pretrained ϕ backbones and
    #: feature segments warm-start across processes — bitwise identical
    #: to a cold run
    artifact_store: object | None = None


@dataclass
class FedFTEDSResult:
    """Run outputs: run history, efficiency, and the final global model.

    ``history`` is a :class:`~repro.fl.rounds.TrainingHistory` for
    ``mode="sync"`` and an :class:`~repro.engine.records.EventLog` for the
    asynchronous modes; both expose the shared summary surface
    (``best_accuracy``, ``total_client_seconds``, ``seconds_to_accuracy``).
    """

    config: FedFTEDSConfig
    history: TrainingHistory | EventLog
    efficiency: LearningEfficiency
    model: SegmentedModel
    server: Server


#: Training modes accepted by :class:`FedFTEDSConfig`.
MODES = ("sync", "fedasync", "fedbuff")


def _fault_setup(
    config: "FedFTEDSConfig",
) -> tuple[FaultPolicy | None, ChaosPlan | None]:
    """Resolve the config's fault knobs into backend-ready objects.

    Mirrors the backend constructors' convention: chaos injection without
    an explicit policy enables a default :class:`FaultPolicy`, since
    injected faults must be survivable to keep results identical.
    """
    policy = None
    if config.job_timeout is not None or config.max_job_retries is not None:
        args = {}
        if config.job_timeout is not None:
            args["job_deadline"] = float(config.job_timeout)
        if config.max_job_retries is not None:
            args["max_retries"] = int(config.max_job_retries)
        policy = FaultPolicy(**args)
    chaos = config.chaos
    if isinstance(chaos, str):
        chaos = ChaosPlan.parse(chaos, seed=config.seed)
    if chaos is not None and policy is None:
        policy = FaultPolicy()
    return policy, chaos


class FedFTEDSCampaign:
    """Campaign scope for repeated :func:`run_fedft_eds` calls.

    A standalone call builds a throwaway backend per run; a campaign owns
    the cross-run runtime instead — one warm persistent
    :class:`~repro.engine.backends.ProcessPoolBackend` (workers survive
    across runs), one :class:`~repro.engine.campaign.CampaignSegmentPool`
    (each distinct shard, feature array and test-set shard published into
    shared memory once per campaign) and one
    :class:`~repro.fl.features.FeatureRuntime` (in-process ϕ(x) reuse for
    the serial backend). Close it (or use it as a context manager)
    when the campaign ends; crash paths fall back to the emergency
    shared-memory cleanup.

    Runs of one campaign share cached state keyed by content (shard
    identity, ϕ fingerprint), so mixing configs with different data or
    models in one campaign is safe — unrelated runs simply miss the cache.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        cache_dir: str | None = None,
        artifact_store: object | None = None,
    ):
        self.max_workers = max_workers
        #: durable cross-process store (repro.store.resolve_store rules):
        #: pool publishes and feature lookups read through it, and runs
        #: warm-start their pretrained ϕ from it
        self.artifact_store = resolve_store(artifact_store, cache_dir)
        self.segment_pool = CampaignSegmentPool(store=self.artifact_store)
        self.feature_runtime = FeatureRuntime(store=self.artifact_store)
        self._process_backend: ProcessPoolBackend | None = None

    def backend_for(self, config: "FedFTEDSConfig"):
        """The execution backend for one run (the run closes it; closing
        the campaign's process backend is the soft per-run ``end_run``)."""
        if config.backend == "process":
            fault_policy, chaos = _fault_setup(config)
            if self._process_backend is None:
                self._process_backend = ProcessPoolBackend(
                    max_workers=self.max_workers,
                    segment_pool=self.segment_pool,
                    persistent=True,
                    feature_runtime=self.feature_runtime,
                    fault_policy=fault_policy,
                    chaos=chaos,
                )
            else:
                # Honour the run's fault settings on the warm backend; the
                # per-run segment registrations were cleared by end_run.
                self._process_backend.fault_policy = fault_policy
                self._process_backend.chaos = chaos
            return self._process_backend
        return make_backend(config.backend, feature_runtime=self.feature_runtime)

    def close(self) -> None:
        """Tear down the campaign runtime (workers + shared memory)."""
        if self._process_backend is not None:
            self._process_backend.shutdown()
            self._process_backend = None
        self.segment_pool.close()
        self.feature_runtime.clear()

    def __enter__(self) -> "FedFTEDSCampaign":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


_DATASETS = {
    "cifar10": synthetic.make_cifar10,
    "cifar100": synthetic.make_cifar100,
    "speech_commands": synthetic.make_speech_commands,
}


#: Model short names accepted by :func:`build_model`.
MODELS = ("mlp", "cnn", "tiny_wrn", "wrn16")

#: Selection strategies accepted by :func:`make_selector`.
SELECTIONS = ("eds", "rds", "all")


def build_model(
    name: str, input_shape: tuple, num_classes: int, rng: np.random.Generator
) -> SegmentedModel:
    """Instantiate a segmented model by short name."""
    channels, height, width = input_shape
    if name == "mlp":
        return MLP(channels * height * width, (64, 64, 64), num_classes, rng)
    if name == "cnn":
        return SmallConvNet(num_classes, rng, in_channels=channels)
    if name == "tiny_wrn":
        return TinyWRN(num_classes, rng, in_channels=channels)
    if name == "wrn16":
        return WideResNet(16, 1, num_classes, rng, in_channels=channels)
    raise ValueError(f"unknown model {name!r}")


def make_selector(name: str, temperature: float):
    """Instantiate a data selector by short name."""
    if name == "eds":
        return EntropySelector(temperature=temperature)
    if name == "rds":
        return RandomSelector()
    if name == "all":
        return FullSelector()
    raise ValueError(f"unknown selection strategy {name!r}")


def run_fedft_eds(config: FedFTEDSConfig) -> FedFTEDSResult:
    """Run the full FedFT-EDS pipeline and return its result."""
    if config.dataset not in _DATASETS:
        raise ValueError(
            f"unknown dataset {config.dataset!r}; expected one of "
            f"{sorted(_DATASETS)}"
        )
    if config.mode not in MODES:
        raise ValueError(
            f"unknown mode {config.mode!r}; expected one of {MODES}"
        )
    if config.backend not in BACKENDS:
        # Fail before pretraining/setup, not at backend construction.
        raise ValueError(
            f"unknown backend {config.backend!r}; expected one of {BACKENDS}"
        )
    if config.backend == "serial":
        reject_worker_only_knobs(
            config.job_timeout, config.max_job_retries, config.chaos
        )
    check_store_knobs(config.artifact_store, config.cache_dir)
    if config.campaign is not None:
        owned = [
            name
            for name in ("max_workers", "cache_dir", "artifact_store")
            if getattr(config, name) is not None
        ]
        if owned:
            # A campaign's runs share its store and its warm backend; a
            # per-run setting would be silently ignored.
            raise ValueError(
                f"option(s) {owned} belong to the FedFTEDSCampaign, whose "
                f"store and warm backend every run of it uses; set them "
                f"on the campaign"
            )
    if config.rounds <= 0:
        raise ValueError("rounds must be positive")
    # What the objects built after setup would refuse, refused first.
    if config.model not in MODELS:
        raise ValueError(
            f"unknown model {config.model!r}; expected one of {MODELS}"
        )
    if config.selection not in SELECTIONS:
        raise ValueError(
            f"unknown selection strategy {config.selection!r}; expected "
            f"one of {SELECTIONS}"
        )
    if config.fine_tune_level not in FINE_TUNE_LEVELS:
        raise ValueError(
            f"unknown fine-tune level {config.fine_tune_level!r}; "
            f"expected one of {sorted(FINE_TUNE_LEVELS)}"
        )
    if config.num_clients <= 0:
        raise ValueError("num_clients must be positive")
    if config.local_epochs <= 0:
        raise ValueError("local_epochs must be positive")
    if config.selection != "all" and not 0.0 < config.selection_fraction <= 1.0:
        raise ValueError(
            f"selection_fraction must be in (0, 1], got "
            f"{config.selection_fraction}"
        )
    if config.selection == "eds" and config.temperature <= 0:
        raise ValueError(
            f"temperature must be positive, got {config.temperature}"
        )
    solver = LocalSolver(
        lr=config.lr,
        momentum=config.momentum,
        prox_mu=config.prox_mu,
        batch_size=config.batch_size,
    )
    check_run_knobs(
        config.eval_every,
        config.checkpoint_path,
        config.checkpoint_every,
        config.emergency_checkpoint,
    )
    if config.mode == "sync":
        # Async-only knobs silently doing nothing would let a forgotten
        # mode= turn a churn/async experiment into a plain sync run.
        async_only = {
            "max_concurrency": None,
            "max_events": None,
            "async_mixing": 0.6,
            "staleness_exponent": 0.5,
            "buffer_size": 4,
            "server_lr": 1.0,
            "dropout_probability": 0.0,
            "availability": None,
        }
        ignored = [
            name
            for name, default in async_only.items()
            if getattr(config, name) != default
        ]
        if ignored:
            raise ValueError(
                f"async-only option(s) {ignored} have no effect with "
                f"mode='sync'; set mode='fedasync' or 'fedbuff'"
            )
    # Build the async pieces up front for the same reason: their
    # constructors validate mixing/buffer_size/server_lr/dropout.
    aggregator = availability = None
    if config.mode != "sync":
        aggregator = make_aggregator(
            config.mode,
            mixing=config.async_mixing,
            staleness_exponent=config.staleness_exponent,
            buffer_size=config.buffer_size,
            server_lr=config.server_lr,
        )
        availability = config.availability
        if availability is None:
            availability = AlwaysAvailable(
                dropout_probability=config.dropout_probability
            )
        if config.max_events is not None and config.max_events <= 0:
            raise ValueError("max_events must be positive")
        if config.max_concurrency is not None and config.max_concurrency <= 0:
            raise ValueError("max_concurrency must be positive")
    (
        model_rng,
        head_rng,
        partition_rng,
        sampling_rng_seed_rng,
        *client_rngs,
    ) = spawn_rngs(config.seed, 4 + config.num_clients)

    world = synthetic.make_vision_world(seed=config.seed, image_size=config.image_size)
    source = synthetic.make_small_imagenet(world, seed=config.seed)
    target = _DATASETS[config.dataset](
        world,
        seed=config.seed,
        train_size=config.train_size,
        test_size=config.test_size,
    )

    # Durable artifact store: the campaign's, else the config's own knobs
    # (None + no cache_dir → disabled).
    if config.campaign is not None:
        store = config.campaign.artifact_store
    else:
        store = resolve_store(config.artifact_store, config.cache_dir)

    model = build_model(
        config.model, target.input_shape, source.num_classes, model_rng
    )
    if config.pretrain:
        pretrain_config = PretrainConfig(
            epochs=config.pretrain_epochs, seed=config.seed
        )
        if store is not None:
            # Warm-start: the pretrained bytes are a pure function of the
            # key below (model init RNG, source domain, pretrain config
            # — all derived from these fields). Loading the stored state
            # is bitwise identical to re-pretraining, and skipping the
            # training consumes no shared RNG stream (pretraining draws
            # from its own seeded stream), so the rest of the run cannot
            # drift.
            pretrain_key = (
                "pretrain", PRETRAIN_KEY_VERSION, "fedft", config.seed,
                config.model, config.dataset, config.image_size,
                config.pretrain_epochs,
            )

            def _pretrain() -> dict:
                pretrain_model(model, source, pretrain_config)
                return model.state_dict()

            state, built = store.get_or_build(pretrain_key, _pretrain)
            if not built:
                model.load_state_dict(state)
                model.eval()  # pretrain_model leaves the model in eval mode
        else:
            pretrain_model(model, source, pretrain_config)
    adapt_to_task(model, target.num_classes, head_rng)
    prepare_partial_model(model, config.fine_tune_level)

    labels = target.train.labels
    shards = dirichlet_partition(
        labels, config.num_clients, config.alpha, partition_rng
    )
    # Shard identity for campaign-scoped segment/feature reuse: these
    # parts pin the partition's bytes (the world, the dataset recipe and
    # the Dirichlet draw are all deterministic in them), so repeated runs
    # of one campaign share published segments per client.
    shard_identity = (
        "fedft", config.seed, config.dataset, config.image_size,
        config.train_size, config.test_size, float(config.alpha),
        config.num_clients,
    )
    clients = [
        Client(
            client_id=i,
            dataset=target.train.subset(shard),
            selector=make_selector(config.selection, config.temperature),
            solver=solver,
            selection_fraction=(
                1.0 if config.selection == "all" else config.selection_fraction
            ),
            epochs=config.local_epochs,
            rng=client_rngs[i],
            shard_key=shard_identity + (i,),
        )
        for i, shard in enumerate(shards)
    ]
    server = Server(model, target.test)
    run_seed = int(sampling_rng_seed_rng.integers(2**31))
    fault_policy, chaos = _fault_setup(config)
    installed_chaos = False
    if chaos is not None:
        # Process-wide install so checkpoint writers see the tear events;
        # uninstalled on the way out.
        install_chaos(chaos)
        installed_chaos = True
    standalone_pool = None
    if config.campaign is not None:
        backend = config.campaign.backend_for(config)
    else:
        if store is not None and config.backend == "process":
            # A store-enabled standalone process run gets its own (run-
            # lifetime) segment pool so feature/eval segments read through
            # the durable store; closed in the finally below.
            standalone_pool = CampaignSegmentPool(store=store)
        backend = make_backend(
            config.backend,
            config.max_workers,
            segment_pool=standalone_pool,
            feature_runtime=FeatureRuntime(store=store),
            fault_policy=fault_policy,
            chaos=chaos,
        )
    if isinstance(backend, ProcessPoolBackend):
        server.evaluator = PooledEvaluator(
            backend,
            target.test,
            test_key=("fedft-test",) + shard_identity[1:-1],
        )
    session = None
    if config.telemetry_dir is not None or config.trace:
        from repro.obs import TelemetrySession

        session = TelemetrySession(
            directory=config.telemetry_dir,
            trace=config.trace,
            stream=sys.stdout if config.verbose else None,
        )

        def _backend_groups():
            # The run's backend runtime (feature cache, warm-worker stats,
            # shm pool) resolved lazily — some of it only exists after the
            # first dispatched job.
            groups = []
            runtime = getattr(backend, "feature_runtime", None)
            if runtime is not None:
                groups.append(runtime.stats)
            stats = getattr(backend, "stats", None)
            if getattr(stats, "namespace", None):
                groups.append(stats)
            pool = getattr(backend, "segment_pool", None)
            if pool is not None:
                groups.append(pool.stats)
                groups.append(pool.publishes_by_kind)
            return groups

        session.add_source(_backend_groups)
        session.activate()
    try:
        if config.mode == "sync":
            history = run_federated_training(
                server,
                clients,
                rounds=config.rounds,
                seed=run_seed,
                timing=config.timing,
                eval_every=config.eval_every,
                backend=backend,
                verbose=config.verbose,
                checkpoint_path=config.checkpoint_path,
                checkpoint_every=config.checkpoint_every,
                emergency_checkpoint=config.emergency_checkpoint,
            )
        else:
            history = run_async_federated_training(
                server,
                clients,
                aggregator,
                max_events=(
                    config.max_events
                    if config.max_events is not None
                    else config.rounds * config.num_clients
                ),
                seed=run_seed,
                timing=config.timing,
                backend=backend,
                availability=availability,
                max_concurrency=config.max_concurrency,
                eval_every=config.eval_every,
                verbose=config.verbose,
                checkpoint_path=config.checkpoint_path,
                checkpoint_every=config.checkpoint_every,
                emergency_checkpoint=config.emergency_checkpoint,
            )
    finally:
        server.evaluator = None
        backend.close()
        if standalone_pool is not None:
            standalone_pool.close()
        if installed_chaos:
            install_chaos(None)
        if session is not None:
            try:
                if "history" in locals():
                    session.record_run(
                        f"{config.dataset}/fedft_{config.selection}",
                        server=server,
                        model=model,
                        history=history,
                        num_clients=config.num_clients,
                    )
            finally:
                session.close()
    return FedFTEDSResult(
        config=config,
        history=history,
        efficiency=learning_efficiency("FedFT-EDS", history),
        model=model,
        server=server,
    )
