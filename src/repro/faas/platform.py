"""FaaSPlatform: the wired-together reference architecture.

The facade a user (or the OpenFaaS layer) talks to: register a
function, build it (baking if it opted into prebaking), and invoke it
through the router. Figure 1's cold-start flow — router → deployer →
registry → resource manager → replica — happens inside ``invoke``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.core.manager import PrebakeManager
from repro.core.policy import AfterReady, SnapshotPolicy
from repro.criu.chunkcache import CACHE_OFF, POLICIES
from repro.criu.restore import RestoreMode
from repro.faas.autoscaler import Autoscaler, AutoscalerConfig
from repro.faas.builder import BuildResult, FunctionBuilder
from repro.faas.deployer import FunctionDeployer
from repro.faas.registry import FunctionMetadata, FunctionRegistry
from repro.faas.resources import ComputeNode, ResourceManager
from repro.faas.router import FunctionRouter
from repro.functions.base import FunctionApp
from repro.osproc.kernel import Kernel
from repro.predict.policy import PrewarmConfig, PrewarmController
from repro.runtime.base import Request, Response


@dataclass
class PlatformConfig:
    """Cluster shape + autoscaler policy + router resilience.

    Nine settings: the compute nodes and their memory, the autoscaler
    config, three router-resilience knobs, the sharded store's node
    count and replication factor, and the optional prewarm layer. The
    store's ring size and circuit-breaker tuning are its own
    ``DEFAULT_*`` constants in :mod:`repro.criu.shardstore`.
    """

    nodes: int = 2
    node_memory_mib: float = 8192.0
    autoscaler: AutoscalerConfig = field(default_factory=AutoscalerConfig)
    # Router resilience: re-queue backoff when capacity is exhausted,
    # dispatch deadline, and how many replica crashes one request rides.
    requeue_backoff_ms: float = 5.0
    request_timeout_ms: float = 30_000.0
    max_crash_retries: int = 3
    # Sharded snapshot store: 0 keeps the flat registry; N >= 1
    # spreads chunk windows over N storage nodes with
    # ``replication_factor`` copies each, quorum restores, and
    # per-node circuit breakers.
    storage_nodes: int = 0
    replication_factor: int = 1
    # Predictive prewarming (ROADMAP item 2): None keeps the purely
    # reactive autoscaler — the default, byte-identical to every
    # committed baseline. A PrewarmConfig installs the forecast-driven
    # prewarm/prefetch layer (repro.predict) on the autoscaler tick.
    prewarm: Optional[PrewarmConfig] = None


class FaaSPlatform:
    """The whole Function Management + Resource Orchestration stack."""

    def __init__(self, kernel: Kernel, config: PlatformConfig = PlatformConfig()) -> None:
        self.kernel = kernel
        self.config = config
        self.registry = FunctionRegistry()
        self.resources = ResourceManager(
            nodes=[
                ComputeNode(name=f"node-{i}", memory_mib=config.node_memory_mib)
                for i in range(config.nodes)
            ]
        )
        self.prebake_manager = PrebakeManager(kernel)
        self.builder = FunctionBuilder(kernel, self.prebake_manager.prebaker)
        self.shard_store = None
        if config.storage_nodes > 0:
            from repro.criu.shardstore import ShardedSnapshotStore
            self.shard_store = ShardedSnapshotStore(
                kernel,
                node_count=config.storage_nodes,
                replication_factor=config.replication_factor,
            )
        self.deployer = FunctionDeployer(
            kernel, self.registry, self.resources, self.prebake_manager,
            shard_store=self.shard_store,
        )
        self.router = FunctionRouter(
            kernel,
            self.deployer,
            requeue_backoff_ms=config.requeue_backoff_ms,
            request_timeout_ms=config.request_timeout_ms,
            max_crash_retries=config.max_crash_retries,
        )
        self.prewarm = (PrewarmController(config.prewarm)
                        if config.prewarm is not None else None)
        self.autoscaler = Autoscaler(
            kernel, self.registry, self.deployer, config.autoscaler,
            prewarm=self.prewarm,
        )

    # -- function lifecycle ---------------------------------------------------------

    def register_function(self, app_factory: Callable[[], FunctionApp],
                          **build_options) -> FunctionMetadata:
        """Build the next version of a function and deploy it.

        The two steps faas-cli runs as ``build`` and ``deploy``;
        ``build_options`` are :meth:`build`'s keyword arguments.
        """
        return self.deploy(self.build(app_factory, **build_options).metadata)

    def build(
        self,
        app_factory: Callable[[], FunctionApp],
        start_technique: str = "vanilla",
        snapshot_policy: Optional[SnapshotPolicy] = None,
        restore_mode: RestoreMode = RestoreMode.EAGER,
        max_replicas: int = 16,
        idle_timeout_ms: float = 60_000.0,
        cache_policy: Optional[str] = None,
        version: Optional[int] = None,
    ) -> BuildResult:
        """Run the Function Builder for a new version of a function.

        ``version`` defaults to one past the registered version. On
        sharded clusters a freshly baked snapshot is placed onto the
        storage nodes right away: every home shard gets the windows,
        a down one too, since a crash keeps its disk.
        """
        if start_technique not in ("vanilla", "prebake"):
            raise ValueError(f"unknown start technique {start_technique!r}")
        if cache_policy not in CACHE_OFF + POLICIES:
            raise ValueError(f"unknown cache policy {cache_policy!r}; "
                             f"known: {POLICIES}")
        if max_replicas < 1:
            raise ValueError("max_replicas must be at least 1, "
                             f"got {max_replicas}")
        sample = app_factory()
        if version is None:
            version = 1
            if self.registry.contains(sample.name):
                version = self.registry.lookup(sample.name).version + 1
        metadata = FunctionMetadata(
            name=sample.name,
            runtime_kind=sample.runtime_kind,
            version=version,
            app_factory=app_factory,
            start_technique=start_technique,
            snapshot_policy=snapshot_policy or AfterReady(),
            restore_mode=restore_mode,
            max_replicas=max_replicas,
            idle_timeout_ms=idle_timeout_ms,
            cache_policy=cache_policy,
        )
        result = self.builder.build(metadata)
        if self.shard_store is not None and result.bake_report is not None:
            layered = self.prebake_manager.store.layered(result.bake_report.key)
            if layered is not None:
                self.shard_store.register_image(layered)
        return result

    def deploy(self, metadata: FunctionMetadata) -> FunctionMetadata:
        """Register a built version; replicas of older versions retire.

        Every live replica was provisioned from an older version (the
        registry only accepts a newer one), so none serves a request
        routed after this returns.
        """
        self.registry.register(metadata)
        # Keep the PrebakeManager's version counter in sync so the
        # deployer restores the snapshot this build produced.
        self.prebake_manager.sync_version(metadata.name, metadata.version)
        self.deployer.retire(self.deployer.replicas(metadata.name))
        return metadata

    # -- data path ----------------------------------------------------------------------

    def invoke(self, function: str, request: Optional[Request] = None) -> Response:
        """Route one request (cold-starting a replica if needed)."""
        # Feed the prewarm forecaster (a no-op, not even a clock read,
        # when prediction is off — the default).
        self.autoscaler.note_arrival(function)
        return self.router.route(function, request)

    def scale(self, function: str, replicas: int) -> int:
        """Imperatively scale a function's pool up to ``replicas``;
        returns how many were added."""
        return self.autoscaler.ensure_capacity(function, replicas)

    def gc_tick(self) -> None:
        """Run one autoscaler reconciliation pass (reap → heal → GC)."""
        self.autoscaler.tick()

    def health_check(self) -> int:
        """Reap every crashed replica across all functions; return count."""
        return len(self.deployer.health_check())

    def install_faults(self, plan) -> "object":
        """Arm a :class:`repro.faults.FaultPlan` on this platform's world."""
        from repro import faults
        return faults.install(self.kernel, plan)

    # -- observability --------------------------------------------------------------------

    def replica_count(self, function: str) -> int:
        return len(self.deployer.replicas(function))

    def cold_start_latencies(self, function: Optional[str] = None) -> List[float]:
        records = self.router.stats.records
        return [
            r.queued_ms for r in records
            if r.cold_start and (function is None or r.function == function)
        ]
