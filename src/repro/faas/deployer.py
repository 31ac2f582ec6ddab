"""Function Deployer: provisions new Function Replicas (paper §2).

"The Function Deployer drives the actual deploy mechanisms,
implemented by the Resource Orchestration layer, to deploy new function
replicas into computing resources."
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.core.manager import PrebakeManager
from repro.core.store import SnapshotKey
from repro.criu.chunkcache import HotChunkCache
from repro.criu.pagestore import LayeredImage
from repro.faas.registry import FunctionMetadata, FunctionRegistry
from repro.faas.replica import FunctionReplica, ReplicaState
from repro.faas.resources import ResourceManager
from repro.faults.errors import CapacityExhausted
from repro.obs.fleet import SpaceSavingSketch
from repro.osproc.cgroups import CgroupManager
from repro.osproc.kernel import Kernel

#: Live replicas one function may hold; a provision past it raises
#: :class:`CapacityExhausted`.
MAX_REPLICAS = 16


class FunctionDeployer:
    """Creates and tracks replicas per function."""

    def __init__(
        self,
        kernel: Kernel,
        registry: FunctionRegistry,
        resources: ResourceManager,
        prebake_manager: PrebakeManager,
        shard_store=None,
    ) -> None:
        self.kernel = kernel
        self.registry = registry
        self.resources = resources
        self.prebake_manager = prebake_manager
        # Optional sharded snapshot store: restores fetch chunk
        # windows through quorum reads over its storage nodes, and
        # placement gains a chunk-locality hint (None = flat registry).
        self.shard_store = shard_store
        self.cgroups = CgroupManager(kernel)
        self._replicas: Dict[str, List[FunctionReplica]] = {}
        # Per-node hot-chunk cache: a replica landing on a node that
        # has the function's (or a sibling's) layers pulls only the
        # missing chunks, like any OCI runtime — but bounded, with a
        # real admission/eviction policy instead of an unbounded set.
        self._node_chunk_cache: Dict[str, HotChunkCache] = {}
        # Eviction count already exported per node, so the counter
        # below emits deltas rather than re-counting the total.
        self._evictions_exported: Dict[str, int] = {}
        # Cross-function chunk-heat ranking (Space-Saving heavy
        # hitters over every layer pull): predictive prefetch pushes
        # a function's hottest chunks first, so a tight budget still
        # lands the bytes most likely to be re-read.
        self.chunk_sketch = SpaceSavingSketch(capacity=512)
        # (node, snapshot key) -> (layered image, node-cache evictions)
        # when a prefetch last found every chunk of that image resident.
        # Only an eviction makes a resident chunk non-resident, so while
        # the image and the eviction count are unchanged it still is.
        self._resident_images: Dict[Tuple[str, SnapshotKey],
                                    Tuple[LayeredImage, int]] = {}

    # -- provisioning --------------------------------------------------------------

    def provision(self, function: str) -> FunctionReplica:
        """Create one new replica of ``function`` (the cold-start path)."""
        metadata = self.registry.lookup(function)
        live = self.replicas(function)
        if len(live) >= MAX_REPLICAS:
            raise CapacityExhausted(
                f"function {function!r} at max_replicas={MAX_REPLICAS}",
                function=function, max_replicas=MAX_REPLICAS,
            )
        app = metadata.make_app()
        # Reserve node memory for the container hosting the replica.
        memory_mib = max(64.0, app.profile.snapshot_warm_mib * 2)
        privileged = metadata.start_technique == "prebake"
        with obs.span(self.kernel, "deployer.provision", function=function,
                      technique=metadata.start_technique,
                      memory_mib=memory_mib) as provision_span:
            allocation = self.resources.place(
                function, memory_mib, privileged=privileged,
                prefer=self._locality_hint(metadata))
            # Fleet stitching: the provision span carries the compute
            # node's identity, so a cross-node trace names every hop.
            provision_span.set(node_id=allocation.node.name)
            self._account_placement_locality(metadata, allocation.node.name)

            # Container/VM provisioning cost — zero in the paper's §4
            # experiments, configurable for the §5 integration demos.
            provision_ms = self.kernel.costs.container_provision_ms
            if provision_ms:
                self.kernel.clock.advance(
                    self.kernel.costs.jitter(provision_ms, self.kernel.streams,
                                             "deployer.provision")
                )
            if metadata.start_technique == "prebake" \
                    and self.shard_store is not None:
                self._ensure_sharded(metadata)
            try:
                starter = self.prebake_manager.starter(
                    metadata.start_technique,
                    policy=metadata.snapshot_policy,
                    version=metadata.version,
                    chunk_cache=self._restore_cache(allocation.node.name,
                                                    metadata),
                    shard_store=self.shard_store,
                )
                handle = starter.start(app)
            except Exception:
                allocation.release()
                raise
            if metadata.start_technique == "prebake":
                self._account_layer_pull(metadata, allocation.node.name)
            # Confine the replica to a memory cgroup sized like its
            # container reservation (the OOM boundary in production).
            cgroup = self.cgroups.create(
                f"{function}/alloc-{allocation.allocation_id}",
                limit_mib=memory_mib,
            )
            cgroup.attach(handle.process)
            # Through a weak proxy: a replica must not keep its deployer
            # (and with it the whole world) alive in a reference cycle.
            deployer = weakref.proxy(self)
            replica = FunctionReplica(
                function, handle, allocation=allocation, cgroup=cgroup,
                on_terminate=lambda: deployer._publish_replicas(function))
            provision_span.set(replica_id=replica.replica_id)
        self._replicas.setdefault(function, []).append(replica)
        obs.record(self.kernel, obs.flight.REPLICA_PROVISIONED,
                   function=function, replica_id=replica.replica_id,
                   technique=metadata.start_technique,
                   node=allocation.node.name)
        obs.count(self.kernel, "deployer_provision_total",
                  labels={"function": function,
                          "technique": metadata.start_technique})
        self._publish_replicas(function)
        return replica

    def _publish_replicas(self, function: str) -> None:
        """Set the live-replica gauge: on provision and on every end."""
        obs.gauge(self.kernel, "deployer_replicas",
                  float(len(self.replicas(function))),
                  labels={"function": function})

    def node_cache(self, node_name: str) -> HotChunkCache:
        """The node's hot-chunk cache (created on first use)."""
        cache = self._node_chunk_cache.get(node_name)
        if cache is None:
            cache = HotChunkCache()
            self._node_chunk_cache[node_name] = cache
        return cache

    def _restore_cache(self, node_name: str,
                       metadata: FunctionMetadata) -> Optional[HotChunkCache]:
        """The cache the restore engine should consult, or None.

        Functions opt in per-deployment via ``metadata.cache_policy``;
        opted-in replicas share the node's cache, so a restore landing
        where a sibling recently restored skips the warm chunks. The
        first opt-in on a node fixes the node's policy.
        """
        if metadata.start_technique != "prebake" \
                or metadata.cache_policy is None:
            return None
        cache = self._node_chunk_cache.get(node_name)
        if cache is None:
            cache = HotChunkCache(policy=metadata.cache_policy)
            self._node_chunk_cache[node_name] = cache
        return cache

    def _snapshot_key(self, metadata: FunctionMetadata) -> SnapshotKey:
        return SnapshotKey(
            function=metadata.name,
            runtime_kind=metadata.runtime_kind,
            policy=metadata.snapshot_policy.key,
            version=metadata.version,
        )

    def _ensure_sharded(self, metadata: FunctionMetadata) -> None:
        """Place the function's snapshot on the sharded store's nodes.

        Normally done at build time by the platform; this lazy check
        covers rebakes and externally baked versions, and is a cheap
        no-op once the image is registered.
        """
        layered = self.prebake_manager.store.layered(
            self._snapshot_key(metadata))
        if layered is None or self.shard_store.has_image(layered.image_id):
            return
        self.shard_store.register_image(layered)

    def _locality_hint(self, metadata: FunctionMetadata) -> Optional[str]:
        """Preferred node for chunk locality (sharded clusters only).

        The node whose hot-chunk cache holds the most bytes of the
        function's layer manifest — a restore landing there pulls the
        fewest cold windows. None (worst-fit unchanged) outside
        shard-store clusters, so legacy placement stays byte-identical.
        """
        if self.shard_store is None \
                or metadata.start_technique != "prebake" \
                or not self._node_chunk_cache:
            return None
        layered = self.prebake_manager.store.layered(
            self._snapshot_key(metadata))
        if layered is None:
            return None
        best_name: Optional[str] = None
        best_bytes = 0
        runs = layered.chunk_runs
        for node_name in sorted(self._node_chunk_cache):
            contains = self._node_chunk_cache[node_name].contains
            cached = sum(size * count for cid, size, count in runs
                         if contains(cid))
            if cached > best_bytes:
                best_name, best_bytes = node_name, cached
        if best_name is not None:
            obs.count(self.kernel, "deployer_locality_hint_total",
                      labels={"function": metadata.name, "node": best_name})
        return best_name

    def _account_placement_locality(self, metadata: FunctionMetadata,
                                    node_name: str) -> None:
        """Score the placement the deployer just committed to.

        Measured against the chosen node's hot-chunk cache *before*
        the restore admits this image's chunks: a cold start landing
        on a node whose cache holds a minority (<50%) of the image's
        manifest bytes is a locality miss — the hint either lost to
        capacity pressure or had nothing warm to offer. Feeds the
        fleet report.
        Sharded prebake clusters only; legacy worlds emit nothing.
        """
        if self.shard_store is None or metadata.start_technique != "prebake":
            return
        layered = self.prebake_manager.store.layered(
            self._snapshot_key(metadata))
        if layered is None:
            return
        cache = self._node_chunk_cache.get(node_name)
        total = cached = 0
        for cid, size, count in layered.chunk_runs:
            total += size * count
            if cache is not None and cache.contains(cid):
                cached += size * count
        labels = {"function": metadata.name, "node": node_name}
        obs.count(self.kernel, "deployer_cold_placement_total",
                  labels=labels)
        if total and cached * 2 < total:
            obs.count(self.kernel, "deployer_locality_miss_total",
                      labels=labels)

    def _account_layer_pull(self, metadata: FunctionMetadata,
                            node_name: str) -> None:
        """Account the snapshot layer bytes this provision moved.

        Pure byte accounting (transfer time is part of the container
        provision cost): chunks the node's hot-chunk cache already
        holds — from a previous replica of this function or any
        function sharing its runtime base — are not re-pulled.
        """
        layered = self.prebake_manager.store.layered(
            self._snapshot_key(metadata))
        if layered is None:
            return
        cache = self.node_cache(node_name)
        pulled = cached = 0
        # One sketch offer and one cache run lookup per run of equal
        # windows: both leave what one call per window would.
        for cid, size, count in layered.chunk_runs:
            self.chunk_sketch.offer(cid, float(count))
            hits = cache.lookup_run(cid, size, count)
            cached += hits * size
            pulled += (count - hits) * size
        labels = {"function": metadata.name}
        obs.count(self.kernel, "deployer_layer_bytes_pulled_total",
                  value=float(pulled), labels=labels)
        obs.count(self.kernel, "deployer_layer_bytes_cached_total",
                  value=float(cached), labels=labels)
        obs.gauge(self.kernel, "deployer_node_cache_used_bytes",
                  float(cache.used_bytes), labels={"node": node_name})
        obs.gauge(self.kernel, "deployer_node_cache_hit_ratio",
                  cache.stats.hit_ratio, labels={"node": node_name})
        # Counters are cumulative, the cache's eviction stat is too —
        # export only the evictions since the last pull on this node.
        evictions = cache.stats.evictions
        delta = evictions - self._evictions_exported.get(node_name, 0)
        if delta > 0:
            obs.count(self.kernel, "deployer_node_cache_eviction_total",
                      value=float(delta), labels={"node": node_name})
        self._evictions_exported[node_name] = evictions

    def prefetch_function(self, function: str,
                          budget_bytes: Optional[int] = None) -> int:
        """Push a function's hot working-set chunks into the cache of the
        node placement would pick.

        The predictive prewarm path: when the forecaster expects a
        burst, pre-placing the image's chunks means even a mispredicted
        replica count still lands on a warm cache — the restore pays
        node-local reads instead of registry fetches. Chunks are
        ranked by the deployer-wide Space-Saving heat sketch (hottest
        first, chunk id as the deterministic tie-break) and admitted
        through the cache's normal policy under ``budget_bytes``.

        When the node cache already holds every chunk of the image
        there is nothing to admit, so the call returns 0 before ranking
        and leaves the cache untouched. A repeat of that finding costs
        O(1): it holds while the image and the cache's eviction count
        are the ones the last full check saw.

        Returns the number of bytes newly admitted. No-op (0) for
        non-prebake functions, functions without a cache policy, and
        clusters with no nodes.
        """
        metadata = self.registry.lookup(function)
        if metadata.start_technique != "prebake":
            return 0
        key = self._snapshot_key(metadata)
        layered = self.prebake_manager.store.layered(key)
        if layered is None:
            return 0
        runs = layered.chunk_runs
        if not runs:
            return 0
        node_name = self._locality_hint(metadata)
        if node_name is None:
            if not self.resources.nodes:
                return 0
            node_name = self.resources.nodes[0].name
        cache = self._restore_cache(node_name, metadata)
        if cache is None:
            return 0
        evictions = cache.stats.evictions
        seen = self._resident_images.get((node_name, key))
        if seen is not None and seen[0] is layered and seen[1] == evictions:
            return 0
        if all(cache.contains(cid) for cid, _size, _count in runs):
            self._resident_images[node_name, key] = (layered, evictions)
            return 0
        heat = {cid: count
                for cid, count, _ in self.chunk_sketch.top(512)}
        ranked = sorted(
            runs, key=lambda run: (-heat.get(run[0], 0.0), run[0]))
        budget = (budget_bytes if budget_bytes is not None
                  else cache.capacity_bytes)
        admitted_bytes = 0
        admitted_chunks = 0
        for cid, size, count in ranked:
            # One attempt per window until the chunk is resident or over
            # budget; nothing else touches the cache in between, so the
            # run's remaining windows would all be skipped.
            for _ in range(count):
                if cache.contains(cid) or admitted_bytes + size > budget:
                    break
                if cache.prefetch(cid, size):
                    admitted_bytes += size
                    admitted_chunks += 1
        if admitted_chunks:
            obs.record(self.kernel, obs.flight.PREWARM_PREFETCH,
                       function=function, node=node_name,
                       chunks=admitted_chunks, bytes=admitted_bytes)
            obs.count(self.kernel, "deployer_prefetch_bytes_total",
                      value=float(admitted_bytes),
                      labels={"function": function})
            obs.count(self.kernel, "deployer_prefetch_chunks_total",
                      value=float(admitted_chunks),
                      labels={"function": function})
        return admitted_bytes

    # -- bookkeeping -----------------------------------------------------------------

    def replicas(self, function: str) -> List[FunctionReplica]:
        live = [r for r in self._replicas.get(function, [])
                if r.state is not ReplicaState.TERMINATED]
        self._replicas[function] = live
        return live

    def idle_replica(self, function: str) -> Optional[FunctionReplica]:
        for replica in self.replicas(function):
            if replica.state is ReplicaState.IDLE:
                return replica
        return None

    def health_check(self, function: Optional[str] = None) -> List[FunctionReplica]:
        """Reap replicas whose backing process died under the platform.

        Crashed replicas (injected ``replica.crash``/``oom.kill``
        faults, or anything else that killed the process without going
        through :meth:`FunctionReplica.terminate`) are detected by
        liveness, terminated for bookkeeping — releasing their node
        memory — and returned so callers can re-provision.
        """
        reaped: List[FunctionReplica] = []
        names = [function] if function is not None else list(self._replicas)
        for name in names:
            dead = [r for r in self._replicas.get(name, [])
                    if r.state is not ReplicaState.TERMINATED
                    and not r.handle.process.alive]
            for replica in dead:
                replica.terminate()
                reaped.append(replica)
                obs.record(self.kernel, obs.flight.REPLICA_REAPED,
                           function=name, replica_id=replica.replica_id)
                obs.count(self.kernel, "deployer_reaped_total",
                          labels={"function": name})
        return reaped

    def retire(self, replicas: List[FunctionReplica]) -> None:
        """Take replicas out of service: an idle one terminates now, a
        busy one when its request releases it. A version bump, a
        scale-down and a service removal all retire through here."""
        for replica in replicas:
            replica.retire()
