"""One request-level fleet model: the platform's rules without its kernel.

The X12 and X13 studies replay their traces through :class:`FleetModel`.
A study supplies an image catalog (chunk ids per function), a fleet
shape and a trace; every rule between an arrival and its outcome is
the live :class:`~repro.faas.platform.FaaSPlatform`'s:

* **Pools.** A request takes the first idle replica in creation order
  (``FunctionDeployer.idle_replica``). A replica is idle from the end
  of its service (``FunctionReplica.last_active_ms``) and expires at
  :func:`~repro.predict.policy.idle_expiry_ms`, as
  ``Autoscaler._gc_idle`` expires it. At ``max_replicas`` a request
  queues on the earliest-free replica.
* **Caches and stores.** One LRU
  :class:`~repro.criu.chunkcache.HotChunkCache` per compute node; chunk
  homes from the shard store's :class:`~repro.criu.shardstore.HashRing`.
  During the one optional outage window a down primary's fetch goes to
  the next home, one retry hop each.
* **Placement**: the fraction of the image a node's cache covers,
  minus a penalty for its share of live replicas; first best wins.
* **Price**: clone + spawn + restore, restore being the engine's
  :meth:`~repro.sim.costmodel.CostModel.restore_price` for one worker
  at the cached byte fraction + ``shard_fetch_overhead_ms(hops)``. One
  log-normal factor scales every phase and the phases sum to the
  total, so :class:`~repro.obs.fleet.ColdStartAttribution` is exact.
* **Prewarming** (optional, as ``PlatformConfig(prewarm=...)``): a
  :class:`~repro.predict.policy.PrewarmController` hears every arrival
  and, once per forecast window, after the idle GC, plans placements
  and one image prefetch per action; keep-alives and timer holds are
  re-read after each plan.

Expiry is lazy (at the function's arrivals, at each window, at
:meth:`FleetModel.close`) but exact: idle time is always charged up to
``idle_expiry_ms``, or to the end of the pass.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.criu.chunkcache import LRU, HotChunkCache
from repro.criu.shardstore import HashRing
from repro.obs.fleet import (
    NODE_LABEL,
    OUTCOME_DEGRADED,
    OUTCOME_LOCAL_HIT,
    OUTCOME_REMOTE_FETCH,
    ColdStartAttribution,
    SpaceSavingSketch,
)
from repro.obs.metrics import MetricsRegistry
from repro.predict.policy import PrewarmController, idle_expiry_ms
from repro.sim.costmodel import DEFAULT_COST_MODEL

MIB = 1024 * 1024

#: Counts kept per compute node and per store; :meth:`FleetModel.close`
#: writes them into the registry under a ``node=`` label.
NODE_COUNTERS = (
    "fleet_requests_total", "fleet_warm_total", "fleet_queued_total",
    "fleet_cold_total", "chunk_cache_hit_bytes_total",
    "chunk_cache_miss_bytes_total", "deployer_cold_placement_total",
    "deployer_locality_miss_total", "prewarm_placements_total",
    "prewarm_fetch_bytes_total")
STORE_COUNTERS = ("shard_served_bytes_total", "shard_retry_hops_total")

_idle_from = itemgetter(0)


class FleetModel:
    """One pass of a trace over a fleet; see the module docstring.

    ``image_chunks[f]`` lists function ``f``'s chunk ids (dense ints;
    a shared id is a shared chunk), each ``chunk_bytes[f]`` bytes.
    ``outage`` is ``(store index, start_ms, end_ms)``. Feed the trace
    to :meth:`run`, in one or more slices, then call :meth:`close`
    once; ``registry`` holds the pass from then on.
    """

    def __init__(self, image_chunks: Sequence[Sequence[int]],
                 chunk_bytes: Sequence[int], *, compute_nodes: int,
                 node_cache_bytes: int, storage_nodes: int,
                 replication_factor: int, keepalive_ms: float,
                 max_replicas: int, service_ms: float, seed: int,
                 prewarm: Optional[PrewarmController] = None,
                 outage: Optional[Tuple[int, float, float]] = None
                 ) -> None:
        functions = len(image_chunks)
        self.image_chunks = [list(chunks) for chunks in image_chunks]
        self.chunk_bytes = [int(size) for size in chunk_bytes]
        self.image_bytes = [len(chunks) * size for chunks, size
                            in zip(self.image_chunks, self.chunk_bytes)]
        self.names = [f"fn-{fid:03d}" for fid in range(functions)]
        self.keepalive_ms = keepalive_ms
        self.max_replicas = max_replicas
        self.service_ms = service_ms
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.prewarm = prewarm
        self.outage = outage if outage is not None else (-1, 0.0, 0.0)

        self.node_names = [f"node-{i}" for i in range(compute_nodes)]
        self.store_names = [f"store-{i}" for i in range(storage_nodes)]
        ring = HashRing(self.store_names)
        store_index = {name: i for i, name in enumerate(self.store_names)}
        chunk_count = 1 + max(max(chunks, default=-1)
                              for chunks in self.image_chunks)
        self.chunk_keys = [f"chunk-{cid:08d}" for cid in range(chunk_count)]
        self.chunk_homes = [
            tuple(store_index[name]
                  for name in ring.nodes_for(key, replication_factor))
            for key in self.chunk_keys]
        self.caches = [HotChunkCache(capacity_bytes=node_cache_bytes,
                                     policy=LRU)
                       for _ in range(compute_nodes)]

        # Replicas are [idle_from_ms, node] rows: busy until idle_from.
        self.pools: List[List[list]] = [[] for _ in range(functions)]
        self.node_load = [0.0] * compute_nodes   # live replicas per node
        # Per-function keep-alive and timer-hold end, as of the last plan.
        self.ka = [keepalive_ms] * functions
        self.hold_end = [-math.inf] * functions
        self.wasted_ms = [0.0] * functions
        self.cold_ms: List[float] = []           # every request cold start
        self.cold_nodes: List[int] = []          # ... and where it ran
        self._restore_memo: Dict[Tuple[int, int, int], float] = {}
        self._boundary = (prewarm.config.window_ms if prewarm is not None
                          else math.inf)

        self.registry = MetricsRegistry()
        self.counts = {name: [0] * compute_nodes for name in NODE_COUNTERS}
        self.counts.update(
            {name: [0] * storage_nodes for name in STORE_COUNTERS})
        self.attribution = ColdStartAttribution()
        self.hot_chunks = SpaceSavingSketch(capacity=256)

    # -- the pass --------------------------------------------------------------

    def run(self, times: np.ndarray, fids: np.ndarray) -> None:
        """Replay sorted arrivals; a trace may come in several slices,
        and :meth:`close` ends the pass."""
        pools = self.pools
        ka = self.ka
        hold_end = self.hold_end
        wasted = self.wasted_ms
        service_ms = self.service_ms
        cap = self.max_replicas
        note = self.prewarm.note_arrival if self.prewarm is not None else None
        requests = self.counts["fleet_requests_total"]
        warm = self.counts["fleet_warm_total"]
        queued = self.counts["fleet_queued_total"]
        boundary = self._boundary
        for t, fid in zip(times.tolist(), fids.tolist()):
            if t >= boundary:
                boundary = self._tick_until(t)
            pool = pools[fid]
            if pool and hold_end[fid] <= t:
                keepalive = ka[fid]
                for replica in pool:
                    if replica[0] + keepalive <= t:
                        self._expire(fid, t)
                        break
            for replica in pool:
                if replica[0] <= t:                 # first idle replica
                    wasted[fid] += t - replica[0]
                    replica[0] = t + service_ms
                    node = replica[1]
                    warm[node] += 1
                    break
            else:
                if len(pool) < cap:
                    node, latency = self._provision(t, fid)
                    pool.append([t + latency + service_ms, node])
                else:
                    replica = min(pool, key=_idle_from)
                    replica[0] += service_ms
                    node = replica[1]
                    queued[node] += 1
            requests[node] += 1
            if note is not None:
                note(fid, t)
                hold_end[fid] = -math.inf           # an arrival ends the hold

    def close(self, end_ms: float) -> None:
        """End the pass: run the windows left, charge the idle time still
        accruing at ``end_ms``, and write the pass into the registry."""
        self._tick_until(end_ms)
        for fid, pool in enumerate(self.pools):
            for idle_from, _node in pool:
                if idle_from < end_ms:
                    expire_at = idle_expiry_ms(idle_from, self.ka[fid],
                                               self.hold_end[fid])
                    self.wasted_ms[fid] += min(expire_at, end_ms) - idle_from
        # observe_many leaves exactly the state of one-at-a-time observes.
        for node, name in enumerate(self.node_names):
            self.registry.histogram_series(
                "fleet_cold_start_ms", {NODE_LABEL: name}).observe_many(
                    [ms for n, ms in zip(self.cold_nodes, self.cold_ms)
                     if n == node])
        for metric, counts in self.counts.items():
            names = (self.store_names if metric in STORE_COUNTERS
                     else self.node_names)
            for name, count in zip(names, counts):
                if count:
                    self.registry.counter(
                        metric, {NODE_LABEL: name}).inc(float(count))

    # -- replica lifecycle -----------------------------------------------------

    def _expire(self, fid: int, now: float) -> None:
        """Drop ``fid``'s replicas whose ``idle_expiry_ms`` is <= ``now``,
        charging each its idle time up to that expiry."""
        pool = self.pools[fid]
        hold_end = self.hold_end[fid]
        if not pool or hold_end > now:
            return                    # idle_expiry_ms never precedes the hold
        keepalive = self.ka[fid]
        keep = []
        for replica in pool:
            idle_from = replica[0]
            # With the hold over, idle_expiry_ms(...) <= now exactly
            # when idle_from + keepalive <= now.
            if idle_from + keepalive <= now:
                self.wasted_ms[fid] += idle_expiry_ms(
                    idle_from, keepalive, hold_end) - idle_from
                self.node_load[replica[1]] -= 1.0
            else:
                keep.append(replica)              # busy or kept warm
        pool[:] = keep

    def _tick_until(self, now: float) -> float:
        """Run every forecast window that ended by ``now``; returns the
        next boundary (infinite without a controller)."""
        while self._boundary <= now:
            self._tick(self._boundary)
            self._boundary += self.prewarm.config.window_ms  # type: ignore[union-attr]
        return self._boundary

    def _tick(self, now: float) -> None:
        controller = self.prewarm
        assert controller is not None
        for fid in range(len(self.pools)):
            self._expire(fid, now)
        live = {fid: len(pool) for fid, pool in enumerate(self.pools)}
        for action in controller.plan(now, live):
            fid = action.function
            pool = self.pools[fid]
            for _ in range(action.add_replicas):
                if len(pool) >= self.max_replicas:
                    break
                node, latency = self._provision(now, fid, prewarm=True)
                pool.append([now + latency, node])
            node, _ = self._place(fid)       # prefetch where it would land
            size = self.chunk_bytes[fid]
            for cid in self.image_chunks[fid]:
                self.caches[node].prefetch(cid, size)
        for fid in range(len(self.pools)):
            self.ka[fid] = controller.keepalive_ms(fid, self.keepalive_ms)
            self.hold_end[fid] = controller.hold_end_ms(fid)

    # -- the cold-start path ---------------------------------------------------

    def _place(self, fid: int) -> Tuple[int, int]:
        """The best node for ``fid`` and the image bytes its cache covers."""
        chunks = self.image_chunks[fid]
        size = self.chunk_bytes[fid]
        image = self.image_bytes[fid]
        loads = self.node_load
        load_total = sum(loads)          # exact: whole replica counts
        penalty = 0.5 * len(loads) / load_total if load_total > 0.0 else 0.0
        best, best_score, best_covered = 0, -math.inf, 0
        for node, cache in enumerate(self.caches):
            covered = size * sum(map(cache.contains, chunks))
            score = covered / image - penalty * loads[node]
            if score > best_score:
                best, best_score, best_covered = node, score, covered
        return best, best_covered

    def _restore_ms(self, image: int, local: int, hops: int) -> float:
        """Restore latency of an ``image``-byte snapshot with ``local``
        bytes cached and ``hops`` retry hops (memoized per model)."""
        key = (image, local, hops)
        restore_ms = self._restore_memo.get(key)
        if restore_ms is None:
            costs = DEFAULT_COST_MODEL
            base, plan, _ = costs.restore_price(
                image / MIB, cached_fraction=local / image)
            restore_ms = (base + plan.total_ms
                          + costs.shard_fetch_overhead_ms(hops))
            self._restore_memo[key] = restore_ms
        return restore_ms

    def _provision(self, t: float, fid: int,
                   prewarm: bool = False) -> Tuple[int, float]:
        """Place and restore one replica of ``fid`` at ``t``; returns
        (node, ready latency ms). A request's cold start is attributed,
        a prewarm placement only counted."""
        counts = self.counts
        node, covered = self._place(fid)
        image = self.image_bytes[fid]
        self.node_load[node] += 1.0
        counts["deployer_cold_placement_total"][node] += 1
        if covered * 2 < image:
            counts["deployer_locality_miss_total"][node] += 1

        chunks = self.image_chunks[fid]
        size = self.chunk_bytes[fid]
        lookup = self.caches[node].lookup
        served = counts["shard_served_bytes_total"]
        down, lo, hi = self.outage
        outage = lo <= t < hi
        local = remote = hops = 0
        for cid in chunks:
            if lookup(cid, size):       # a miss is fetched, then admitted
                local += size
                continue
            homes = self.chunk_homes[cid]
            serving = homes[0]
            if outage and serving == down:
                hops += 1               # ring homes are distinct stores
                if len(homes) > 1:
                    serving = homes[1]
            remote += size
            served[serving] += size
            self.hot_chunks.offer(self.chunk_keys[cid], float(size))
        if hops:
            counts["shard_retry_hops_total"][
                self.chunk_homes[chunks[0]][0]] += hops
        counts["chunk_cache_hit_bytes_total"][node] += local
        counts["chunk_cache_miss_bytes_total"][node] += remote

        costs = DEFAULT_COST_MODEL
        factor = math.exp(costs.noise_sigma * self.rng.standard_normal())
        phases = {
            "clone": costs.clone_ms * factor,
            "spawn": costs.criu_spawn_ms * factor,
            "restore": self._restore_ms(image, local, hops) * factor,
        }
        total_ms = 0.0
        for value in phases.values():
            total_ms += value
        if prewarm:
            counts["prewarm_placements_total"][node] += 1
            counts["prewarm_fetch_bytes_total"][node] += remote
            return node, total_ms

        if hops:
            outcome = OUTCOME_DEGRADED
        elif local * 2 >= image:
            outcome = OUTCOME_LOCAL_HIT
        else:
            outcome = OUTCOME_REMOTE_FETCH
        self.attribution.record(self.names[fid], self.node_names[node],
                                outcome, phases, total_ms)
        counts["fleet_cold_total"][node] += 1
        self.cold_ms.append(total_ms)
        self.cold_nodes.append(node)
        return node, total_ms
