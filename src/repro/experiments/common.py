"""Shared experiment harness: worlds, pretraining caches, method matrix.

One :class:`ExperimentHarness` per (scale, seed) builds every dataset and
pretrained model once and shares them across the methods of a table, the
same way the paper's baselines share a common setup. Partitions are cached
per (dataset, alpha, clients) so every method sees identical client shards.

The harness also owns the campaign's *training mode* and *execution
backend*: with ``mode="fedasync"`` or ``"fedbuff"`` every
:meth:`ExperimentHarness.federated` run is driven by the event engine
(:func:`repro.engine.runner.run_async_federated_training`) on an equal
total-work budget (``rounds × num_clients`` completion events), and with
``backend="process"`` client rounds execute in parallel worker processes
— bitwise identical to serial by the engine's determinism contract.
``repro-experiments --mode fedbuff --backend process`` therefore
regenerates any paper table asynchronously at process-parallel speed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from repro.data import synthetic
from repro.data.partition import dirichlet_partition
from repro.data.synthetic import DomainSpec
from repro.engine.aggregators import make_aggregator
from repro.engine.backends import (
    BACKENDS,
    ExecutionBackend,
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
from repro.fl.features import FeatureRuntime
from repro.engine.records import EventLog
from repro.engine.runner import run_async_federated_training
from repro.fl.client import Client
from repro.fl.rounds import TrainingHistory, run_federated_training
from repro.fl.sampling import FractionParticipation, FullParticipation
from repro.fl.server import Server
from repro.fl.strategies import LocalSolver
from repro.fl.timing import TimingModel
from repro.core.fedft_eds import make_selector
from repro.core.partial import adapt_to_task, prepare_partial_model
from repro.metrics.efficiency import LearningEfficiency, learning_efficiency
from repro.nn.cnn import SmallConvNet
from repro.nn.mlp import MLP
from repro.nn.segmented import SegmentedModel
from repro.nn.wrn import WideResNet
from repro.pretrain.centralized import CentralizedConfig, CentralizedResult, train_centralized
from repro.pretrain.pretrainer import PretrainConfig, pretrain_model
from repro.store import resolve_store
from repro.experiments.scales import Scale, get_scale

#: schema version of the harness's pretrained-backbone store keys: bump
#: when anything the key does not pin starts affecting pretrained bytes
_PRETRAIN_KEY_VERSION = 1


@dataclass(frozen=True)
class MethodSpec:
    """One row of the paper's method matrix."""

    key: str
    label: str
    pretrain_source: str | None  # None | "small_imagenet" | "cifar100"
    fine_tune_level: str  # "full" for FedAvg/FedProx, "moderate" for FedFT
    selection: str  # "eds" | "rds" | "all"
    pds: float  # the paper's selection proportion P_ds
    prox_mu: float = 0.0
    temperature: float = 0.1

    def with_pds(self, pds: float) -> "MethodSpec":
        label = self.label.split(" (")[0]
        if pds < 1.0:
            label = f"{label} ({int(round(100 * pds))}%)"
        return replace(self, pds=pds, label=label)


#: The paper's methods (Tables II-IV). ``prox_mu`` is resolved from the
#: scale at run time for the FedProx rows (sentinel -1).
STANDARD_METHODS: dict[str, MethodSpec] = {
    "fedavg_scratch": MethodSpec(
        "fedavg_scratch", "FedAvg w/o pt", None, "full", "all", 1.0
    ),
    "fedavg": MethodSpec(
        "fedavg", "FedAvg", "small_imagenet", "full", "all", 1.0
    ),
    "fedavg_rds": MethodSpec(
        "fedavg_rds", "FedAvg-RDS (10%)", "small_imagenet", "full", "rds", 0.1
    ),
    "fedprox": MethodSpec(
        "fedprox", "FedProx", "small_imagenet", "full", "all", 1.0, prox_mu=-1.0
    ),
    "fedprox_rds": MethodSpec(
        "fedprox_rds", "FedProx-RDS (10%)", "small_imagenet", "full", "rds", 0.1,
        prox_mu=-1.0,
    ),
    "fedft_rds": MethodSpec(
        "fedft_rds", "FedFT-RDS (10%)", "small_imagenet", "moderate", "rds", 0.1
    ),
    "fedft_eds": MethodSpec(
        "fedft_eds", "FedFT-EDS (10%)", "small_imagenet", "moderate", "eds", 0.1
    ),
    "fedft_all": MethodSpec(
        "fedft_all", "FedFT-ALL", "small_imagenet", "moderate", "all", 1.0
    ),
}


@dataclass
class RunResult:
    """A federated run plus derived metrics (and optional client states).

    ``history`` is a :class:`~repro.fl.rounds.TrainingHistory` for
    synchronous runs and an :class:`~repro.engine.records.EventLog` for
    event-engine runs; both expose the shared summary surface the reports
    consume (``accuracies``, ``best_accuracy``, ``seconds_to_accuracy``).
    """

    method: MethodSpec
    dataset: str
    alpha: float
    num_clients: int
    history: TrainingHistory | EventLog
    efficiency: LearningEfficiency
    client_states: list[dict[str, np.ndarray]] = field(default_factory=list)

    @property
    def best_accuracy(self) -> float:
        return self.history.best_accuracy


def _stable_seed(*parts) -> int:
    """Deterministic 31-bit seed from heterogeneous identifying parts."""
    text = "|".join(str(p) for p in parts)
    return zlib.crc32(text.encode()) & 0x7FFFFFFF


#: Training modes a harness (and every registered experiment) accepts.
HARNESS_MODES = ("sync", "fedasync", "fedbuff")


class ExperimentHarness:
    """Builds and caches the shared pieces of one experiment campaign.

    ``mode``/``backend`` select the campaign-wide training loop and
    execution substrate (see the module docstring); the async knobs mirror
    :class:`~repro.core.fedft_eds.FedFTEDSConfig` defaults. Individual
    :meth:`federated` calls may override both.

    Campaign runtime: with the process backend the harness owns one
    :class:`~repro.engine.campaign.CampaignSegmentPool` and one warm
    :class:`~repro.engine.backends.ProcessPoolBackend` for its whole
    lifetime — every run reuses the same worker processes, and each
    client's shard is published into shared memory once per campaign
    (clients carry a stable ``shard_key``), not once per run. Call
    :meth:`close` (or use the harness as a context manager) when done;
    segments are additionally unlinked on interpreter exit / fatal signals
    as a crash-path fallback.

    Frozen-feature cache: one :class:`~repro.fl.features.FeatureRuntime`
    per campaign materialises each distinct shard's ϕ(x) once per ϕ
    fingerprint, so every client round and selector pass runs head-only,
    through the fused head solver and, where participants share a shape,
    block-stacked cohort solves — bitwise identical to the full forward
    through the layer graph (see :mod:`repro.fl.features` and
    :mod:`repro.fl.fastpath`). With the process backend the
    features live in pool segments (published once per campaign) and
    ``Server.evaluate`` runs as pooled, sharded jobs on the warm workers
    through :class:`~repro.engine.backends.PooledEvaluator`; a serial run
    borrows those warm workers for its evaluations when an earlier
    process-backend run of the campaign left them running.
    """

    def __init__(
        self,
        scale: Scale | str = "default",
        seed: int = 0,
        mode: str = "sync",
        backend: str = "serial",
        max_workers: int | None = None,
        async_mixing: float = 0.6,
        staleness_exponent: float = 0.5,
        buffer_size: int = 4,
        server_lr: float = 1.0,
        evals_per_round: int = 8,
        segment_pool: CampaignSegmentPool | None = None,
        telemetry: "TelemetrySession | None" = None,
        job_timeout: float | None = None,
        max_job_retries: int | None = None,
        chaos: "str | ChaosPlan | None" = None,
        cache_dir: str | None = None,
        artifact_store: object | None = None,
    ):
        if mode not in HARNESS_MODES:
            raise ValueError(
                f"unknown mode {mode!r}; expected one of {HARNESS_MODES}"
            )
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        if evals_per_round <= 0:
            raise ValueError("evals_per_round must be positive")
        self.scale = get_scale(scale) if isinstance(scale, str) else scale
        self.seed = seed
        self.mode = mode
        self.backend = backend
        self.max_workers = max_workers
        self.async_mixing = async_mixing
        self.staleness_exponent = staleness_exponent
        self.buffer_size = buffer_size
        self.server_lr = server_lr
        self.evals_per_round = evals_per_round
        self.timing = TimingModel(flops_per_second=1e9)
        self.segment_pool = segment_pool
        self._owns_pool = segment_pool is None
        self._campaign_backend = None
        #: durable cross-process artifact store (repro.store.resolve_store
        #: rules: an instance passes through, True/False forces, None
        #: enables exactly when cache_dir is set). Pretrained backbones
        #: and the pool's feature/eval segments warm-start from it across
        #: harness processes — bitwise identical to a cold campaign.
        self.artifact_store = resolve_store(artifact_store, cache_dir)
        if self.artifact_store is not None and segment_pool is not None and (
            segment_pool.store is None
        ):
            segment_pool.store = self.artifact_store
        self.feature_runtime = FeatureRuntime(store=self.artifact_store)
        self._world = None
        self._source_domain = None
        self._specs: dict[tuple[str, str], DomainSpec] = {}
        self._pretrained: dict[tuple[str, str], dict[str, np.ndarray]] = {}
        self._partitions: dict[tuple, list[np.ndarray]] = {}
        #: fault layer (repro.engine.faults): a per-job deadline and/or a
        #: retry budget build a FaultPolicy threaded to the process
        #: backend; recovery is bitwise invisible, so results match the
        #: policy-free run exactly. Serial runs reject them (no jobs).
        self.job_timeout = job_timeout
        self.max_job_retries = max_job_retries
        self.fault_policy = None
        if job_timeout is not None or max_job_retries is not None:
            policy_args = {}
            if job_timeout is not None:
                policy_args["job_deadline"] = float(job_timeout)
            if max_job_retries is not None:
                policy_args["max_retries"] = int(max_job_retries)
            self.fault_policy = FaultPolicy(**policy_args)
        #: deterministic chaos schedule (``--chaos "kill@3;delay@5:0.2"``);
        #: installed process-wide so checkpoint writers see the tear events
        self.chaos = (
            ChaosPlan.parse(chaos, seed=seed) if isinstance(chaos, str) else chaos
        )
        self._installed_chaos = False
        if self.chaos is not None:
            install_chaos(self.chaos)
            self._installed_chaos = True
        #: optional observability session (repro.obs.report); read-only
        #: with respect to training state — results are bitwise identical
        #: with or without it
        self.telemetry = telemetry
        if telemetry is not None:
            telemetry.attach_harness(self)

    def telemetry_groups(self):
        """The campaign's live counter groups (a telemetry registry source).

        Resolved at snapshot time because the pool and the campaign
        backend are created lazily on first process-backend use.
        """
        groups = [self.feature_runtime.stats]
        if self.segment_pool is not None:
            groups.append(self.segment_pool.stats)
            groups.append(self.segment_pool.publishes_by_kind)
        if self._campaign_backend is not None:
            stats = getattr(self._campaign_backend, "stats", None)
            if stats is not None:
                groups.append(stats)
        return groups

    def make_run_backend(self, backend: str | None = None) -> ExecutionBackend:
        """The execution backend for one run (caller closes it per run).

        The serial backend is fresh per call, and refuses the worker-only
        fault knobs (``job_timeout``, ``max_job_retries``, job-indexed
        chaos events), which would have nothing to act on. The process
        backend is the campaign-wide warm instance: its per-run
        ``close()`` only releases run-scoped state (``persistent=True``),
        so workers and the segment pool survive until :meth:`close` tears
        the campaign down.
        """
        name = backend or self.backend
        if name == "serial":
            reject_worker_only_knobs(
                self.job_timeout, self.max_job_retries, self.chaos
            )
        elif name == "process":
            if self._campaign_backend is None:
                if self.segment_pool is None:
                    self.segment_pool = CampaignSegmentPool(
                        store=self.artifact_store
                    )
                    self._owns_pool = True
                self._campaign_backend = make_backend(
                    "process",
                    self.max_workers,
                    segment_pool=self.segment_pool,
                    persistent=True,
                    feature_runtime=self.feature_runtime,
                    fault_policy=self.fault_policy,
                    chaos=self.chaos,
                )
            return self._campaign_backend
        return make_backend(name, feature_runtime=self.feature_runtime)

    def close(self) -> None:
        """Tear down the campaign runtime (workers, shared-memory segments).

        Idempotent; the harness remains usable for dataset/model caches
        afterwards, and a later process-backend run simply restarts the
        campaign runtime.
        """
        if self._campaign_backend is not None:
            self._campaign_backend.shutdown()
            self._campaign_backend = None
        if self.segment_pool is not None and self._owns_pool:
            self.segment_pool.close()
            self.segment_pool = None
        self.feature_runtime.clear()
        if self._installed_chaos:
            install_chaos(None)
            self._installed_chaos = False

    def __enter__(self) -> "ExperimentHarness":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- world and datasets -------------------------------------------------
    @property
    def world(self):
        if self._world is None:
            self._world = synthetic.make_vision_world(
                seed=self.seed,
                image_size=self.scale.image_size,
                latent_dim=self.scale.latent_dim,
            )
        return self._world

    @property
    def source_domain(self):
        if self._source_domain is None:
            self._source_domain = synthetic._source_domain(
                self.world, self.seed, self.scale.src_classes
            )
        return self._source_domain

    def spec(self, name: str, model_kind: str = "main") -> DomainSpec:
        """Dataset spec; conv experiments use the smaller conv sizes."""
        key = (name, model_kind)
        if key in self._specs:
            return self._specs[key]
        s = self.scale
        train = s.target_train if model_kind == "main" else s.conv_train
        test = s.test_size if model_kind == "main" else s.conv_test
        if name == "small_imagenet":
            # Conv experiments shrink the source set in proportion to the
            # smaller target set, keeping the source/target size ratio.
            src_train = s.src_train
            if model_kind != "main":
                src_train = max(1, s.src_train * s.conv_train // s.target_train)
            spec = synthetic.make_small_imagenet(
                self.world, seed=self.seed, num_classes=s.src_classes,
                train_size=src_train, test_size=test,
            )
        elif name == "cifar10":
            spec = synthetic.make_cifar10(
                self.world, seed=self.seed, num_classes=s.c10_classes,
                train_size=train, test_size=test,
                source_domain=self.source_domain,
            )
        elif name == "cifar100":
            spec = synthetic.make_cifar100(
                self.world, seed=self.seed, num_classes=s.c100_classes,
                train_size=train, test_size=test,
                source_domain=self.source_domain,
            )
        elif name == "speech_commands":
            spec = synthetic.make_speech_commands(
                self.world, seed=self.seed, num_classes=s.gsc_classes,
                train_size=train, test_size=test,
            )
        else:
            raise ValueError(f"unknown dataset {name!r}")
        self._specs[key] = spec
        return spec

    # -- models --------------------------------------------------------------
    def build_model(
        self, model_kind: str, num_classes: int, rng: np.random.Generator
    ) -> SegmentedModel:
        """Fresh model of the scale's architecture for ``model_kind``."""
        s = self.scale
        name = s.model_main if model_kind == "main" else s.model_conv
        shape = (3, s.image_size, s.image_size)
        if name == "mlp":
            return MLP(int(np.prod(shape)), s.mlp_hidden, num_classes, rng)
        if name == "cnn":
            return SmallConvNet(
                num_classes, rng, in_channels=shape[0], channels=s.conv_channels
            )
        if name == "wrn16":
            return WideResNet(16, 1, num_classes, rng, in_channels=shape[0])
        raise ValueError(f"unknown model {name!r}")

    def pretrained_state(
        self, model_kind: str, source_name: str
    ) -> dict[str, np.ndarray]:
        """Pretrain (once) on a source domain; returns the state dict."""
        key = (model_kind, source_name)
        if key in self._pretrained:
            return self._pretrained[key]
        source = self.spec(source_name, model_kind)
        rng = np.random.default_rng(_stable_seed(self.seed, "init", model_kind))
        model = self.build_model(model_kind, source.num_classes, rng)
        epochs = (
            self.scale.pretrain_epochs
            if model_kind == "main"
            else self.scale.conv_pretrain_epochs
        )
        if self.artifact_store is not None:
            # Durable warm-start across harness processes. The key pins
            # everything the pretrained bytes are a function of: the init
            # RNG (seed + model_kind), the source domain recipe (seed +
            # source_name + the full Scale, whose dataclass repr covers
            # every size/architecture knob) and the pretrain config (seed
            # + scale epochs). Loading is bitwise identical to
            # re-pretraining and consumes no shared RNG stream.
            store_key = (
                "pretrain", _PRETRAIN_KEY_VERSION, "harness", self.seed,
                model_kind, source_name, repr(self.scale),
            )

            def _build() -> dict:
                pretrain_model(
                    model, source, PretrainConfig(epochs=epochs, seed=self.seed)
                )
                return model.state_dict()

            state, _ = self.artifact_store.get_or_build(store_key, _build)
            self._pretrained[key] = state
        else:
            pretrain_model(
                model, source, PretrainConfig(epochs=epochs, seed=self.seed)
            )
            self._pretrained[key] = model.state_dict()
        return self._pretrained[key]

    # -- partitions -----------------------------------------------------------
    def partition(
        self, dataset: str, alpha: float, num_clients: int, model_kind: str = "main"
    ) -> list[np.ndarray]:
        """Dirichlet shards, cached so all methods compare on the same split."""
        key = (dataset, alpha, num_clients, model_kind)
        if key not in self._partitions:
            spec = self.spec(dataset, model_kind)
            rng = np.random.default_rng(_stable_seed(self.seed, "part", *key))
            self._partitions[key] = dirichlet_partition(
                spec.train.labels, num_clients, alpha, rng
            )
        return self._partitions[key]

    # -- runs -------------------------------------------------------------------
    def prepare_global_model(
        self, method: MethodSpec, spec: DomainSpec, model_kind: str
    ) -> SegmentedModel:
        """Build (and maybe pretrain-load) the global model for a method."""
        rng = np.random.default_rng(_stable_seed(self.seed, "init", model_kind))
        head_rng = np.random.default_rng(
            _stable_seed(self.seed, "head", model_kind, spec.name)
        )
        if method.pretrain_source is not None:
            source = self.spec(method.pretrain_source, model_kind)
            model = self.build_model(model_kind, source.num_classes, rng)
            model.load_state_dict(self.pretrained_state(model_kind, method.pretrain_source))
        else:
            model = self.build_model(model_kind, spec.num_classes, rng)
        if method.pretrain_source is not None or model.num_classes != spec.num_classes:
            adapt_to_task(model, spec.num_classes, head_rng)
        prepare_partial_model(model, method.fine_tune_level)
        return model

    def build_federation(
        self,
        dataset: str,
        method: MethodSpec,
        alpha: float,
        num_clients: int,
        model_kind: str = "main",
        seed_extra: tuple = (),
    ) -> tuple[Server, list[Client], int]:
        """Server + client pool + run seed for one method under the shared setup.

        The building block behind :meth:`federated`, also used directly by
        the async-engine experiments, which drive the pool through
        :func:`repro.engine.runner.run_async_federated_training` instead of
        the lock-step loop. ``seed_extra`` folds extra identifying parts
        into the run seed (kept order-compatible with historical seeds).
        """
        s = self.scale
        spec = self.spec(dataset, model_kind)
        model = self.prepare_global_model(method, spec, model_kind)
        shards = self.partition(dataset, alpha, num_clients, model_kind)
        prox = s.prox_mu if method.prox_mu == -1.0 else method.prox_mu
        solver = LocalSolver(
            lr=s.lr, momentum=s.momentum, prox_mu=prox, batch_size=s.batch_size
        )
        run_seed = _stable_seed(
            self.seed, "run", dataset, method.key, alpha, num_clients,
            *seed_extra, model_kind,
        )
        client_seq = np.random.SeedSequence(run_seed)
        client_rngs = [np.random.default_rng(c) for c in client_seq.spawn(num_clients)]
        # Shard identity for the campaign segment pool: the world seed plus
        # the exact partition-cache key plus the client index pin down the
        # shard's bytes, so every method of the campaign (same cached
        # partition) shares one published segment per client.
        shard_identity = (
            "shard", self.seed, dataset, float(alpha), num_clients, model_kind,
        )
        clients = [
            Client(
                client_id=i,
                dataset=spec.train.subset(shard),
                selector=make_selector(method.selection, method.temperature),
                solver=solver,
                selection_fraction=method.pds,
                epochs=s.local_epochs,
                rng=client_rngs[i],
                shard_key=shard_identity + (i,),
            )
            for i, shard in enumerate(shards)
        ]
        server = Server(model, spec.test)
        return server, clients, run_seed

    def _test_pool_key(self, dataset: str, model_kind: str) -> tuple:
        """Campaign-stable identity of a run's test set for pooled eval.

        Mirrors the shard identity recipe: the harness caches one spec per
        (dataset, model_kind), so these parts pin the test set's bytes for
        the whole campaign and its segments publish once.
        """
        return ("test", self.seed, dataset, model_kind)

    def _attach_pooled_evaluator(
        self, server: Server, run_backend, dataset: str, model_kind: str
    ) -> None:
        """Route ``server.evaluate`` to warm workers when any exist.

        The run's own process backend serves it; a serial run borrows the
        campaign's warm process backend when an earlier run of this
        campaign left one. Bitwise identical to serial evaluation either
        way (exact pooled reduction).
        """
        if not isinstance(run_backend, ProcessPoolBackend):
            run_backend = self._campaign_backend
            if run_backend is None:
                return
        server.evaluator = PooledEvaluator(
            run_backend,
            server.test_set,
            test_key=self._test_pool_key(dataset, model_kind),
        )

    def federated(
        self,
        dataset: str,
        method: MethodSpec,
        alpha: float,
        num_clients: int,
        rounds: int | None = None,
        participation_fraction: float = 1.0,
        model_kind: str = "main",
        collect_client_states: bool = False,
        verbose: bool = False,
        mode: str | None = None,
        backend: str | None = None,
    ) -> RunResult:
        """Run one federated method under the shared setup.

        ``mode``/``backend`` default to the harness-wide campaign settings.
        Asynchronous modes run the event engine on an equal-work budget of
        ``rounds × num_clients`` completion events; a
        ``participation_fraction`` below 1 maps to the engine's concurrency
        cap (at most that fraction of the pool trains at once — the async
        analogue of per-round partial participation).
        """
        s = self.scale
        mode = mode or self.mode
        if mode not in HARNESS_MODES:
            raise ValueError(
                f"unknown mode {mode!r}; expected one of {HARNESS_MODES}"
            )
        server, clients, run_seed = self.build_federation(
            dataset,
            method,
            alpha,
            num_clients,
            model_kind=model_kind,
            seed_extra=(participation_fraction,),
        )
        participation = (
            FullParticipation()
            if participation_fraction >= 1.0
            else FractionParticipation(participation_fraction)
        )
        rounds = rounds or (
            s.rounds if model_kind == "main" else s.conv_rounds
        )
        if mode != "sync":
            aggregator = make_aggregator(
                mode,
                mixing=self.async_mixing,
                staleness_exponent=self.staleness_exponent,
                buffer_size=self.buffer_size,
                server_lr=self.server_lr,
            )
            max_events = rounds * num_clients
            # Evaluating after every aggregation would dominate wall-clock
            # (FedAsync creates one model version per completion); budget
            # ~evals_per_round full test-set evaluations per round's worth
            # of events.
            expected_versions = max_events
            if mode == "fedbuff":
                expected_versions = max(1, max_events // self.buffer_size)
            eval_every = max(
                1, expected_versions // (self.evals_per_round * rounds)
            )
            max_concurrency = num_clients
            if participation_fraction < 1.0:
                max_concurrency = max(
                    1, int(round(participation_fraction * num_clients))
                )
        with self.make_run_backend(backend) as run_backend:
            try:
                self._attach_pooled_evaluator(
                    server, run_backend, dataset, model_kind
                )
                if mode == "sync":
                    history = run_federated_training(
                        server,
                        clients,
                        rounds=rounds,
                        seed=run_seed + 1,
                        participation=participation,
                        timing=self.timing,
                        backend=run_backend,
                        verbose=verbose,
                    )
                else:
                    history = run_async_federated_training(
                        server,
                        clients,
                        aggregator,
                        max_events=max_events,
                        seed=run_seed + 1,
                        timing=self.timing,
                        backend=run_backend,
                        max_concurrency=max_concurrency,
                        eval_every=eval_every,
                        verbose=verbose,
                    )
            finally:
                server.evaluator = None
        result = RunResult(
            method=method,
            dataset=dataset,
            alpha=alpha,
            num_clients=num_clients,
            history=history,
            efficiency=learning_efficiency(method.label, history),
        )
        if self.telemetry is not None:
            self.telemetry.record_run(
                f"{dataset}/{method.key}",
                server=server,
                model=server.model,
                history=history,
                num_clients=num_clients,
            )
        if collect_client_states:
            broadcast = server.broadcast()
            for client in clients:
                client.run_round(server.model, broadcast, timing=None)
                result.client_states.append(server.model.state_dict())
        return result

    def centralized(
        self, dataset: str, model_kind: str = "main"
    ) -> CentralizedResult:
        """Centralised upper-bound run on the pooled target data."""
        spec = self.spec(dataset, model_kind)
        rng = np.random.default_rng(_stable_seed(self.seed, "central", dataset))
        model = self.build_model(model_kind, spec.num_classes, rng)
        return train_centralized(
            model,
            spec,
            CentralizedConfig(
                epochs=self.scale.centralized_epochs, seed=self.seed
            ),
        )
