"""X12 — trace-driven fleet study on the fleet observability plane.

The paper's numbers are per-function; ROADMAP item 1's open remainder
is the *fleet* question: with the PR7 sharded store and chunk-locality
routing in place, what do cold-start p99, chunk-cache hit rates, and
cross-node traffic look like under production-shaped traces — Zipf
popularity over hundreds of functions, diurnal + bursty arrivals,
millions of requests?

The study is a discrete-event pass over a synthesized fleet trace
(:func:`repro.bench.traces.synthesize_fleet_workload`): one
chronological sweep across C compute nodes and S storage nodes whose
chunk placement comes from the real :class:`~repro.criu.shardstore`
consistent-hash ring and whose latency decomposition comes from the
calibrated :class:`~repro.sim.costmodel.CostModel` constants — the
same clone/spawn/restore/fetch/hop prices the request-level simulator
charges. Every counter and histogram lives in one
:class:`~repro.obs.metrics.MetricsRegistry` with a ``node=`` label on
each series: fleet totals are unlabelled ``value`` reads, per-node
values filter on the label, and the fleet quantiles come from
:func:`~repro.obs.slo.merged_histogram` over the node series. Hot
functions/chunks come from Space-Saving sketches and the blame table
from the exact per-request cold-start attribution of
:mod:`repro.obs.fleet` — **no per-request sample list is ever
retained**, which is what lets one rep stream ≥1M requests in bounded
memory.

A deterministic mid-trace storage-node outage produces the degraded
slice of the attribution table, and one *real* platform cold start
(2 compute nodes, 4 storage nodes, RF=2, fully observed) rides along
as the trace exemplar: its stitched span tree — deployer provision on
a ``node-*`` identity, shard fetches on ``store-*`` identities, one
connected trace — is embedded in the artifact and asserted by CI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import make_world
from repro.bench.report import format_table
from repro.bench.traces import synthesize_fleet_workload
from repro.criu.chunkcache import LRU, HotChunkCache
from repro.criu.shardstore import HashRing
from repro.faas.platform import FaaSPlatform, PlatformConfig
from repro.functions.base import make_app
from repro.obs.fleet import (
    NODE_LABEL,
    OUTCOME_DEGRADED,
    OUTCOME_LOCAL_HIT,
    OUTCOME_REMOTE_FETCH,
    ColdStartAttribution,
    SpaceSavingSketch,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import merged_histogram
from repro.sim.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.sim.rng import _derive_seed

MIB = 1024 * 1024
CHUNK_BYTES = 256 * 1024          # one pagestore window (64 pages x 4 KiB)
CHUNKS_PER_MIB = MIB // CHUNK_BYTES

# Shared runtime bases: functions of the same runtime share these
# chunks, which is what gives cross-function locality its teeth.
RUNTIME_BASE_MIB = (6, 8, 12)


@dataclass(frozen=True)
class FleetStudyConfig:
    """Shape of one X12 run (defaults = the sealed baseline)."""

    functions: int = 200
    requests: int = 1_000_000
    duration_ms: float = 7_200_000.0      # 2 simulated hours
    compute_nodes: int = 8
    storage_nodes: int = 6
    replication_factor: int = 2
    # Deliberately smaller than the ~425 MiB/node working set so the
    # steady state keeps churning remote fetches instead of converging
    # to an all-local fleet.
    node_cache_mib: int = 256
    keepalive_ms: float = 60_000.0
    max_replicas: int = 8
    # Deterministic storage outage: one store is down for the middle
    # [40%, 60%) slice of the trace, producing the degraded bucket.
    outage_start_frac: float = 0.40
    outage_end_frac: float = 0.60


@dataclass
class FleetRepResult:
    """Aggregates of one repetition (already fleet-merged)."""

    rep: int
    seed: int
    requests: int = 0
    cold_starts: int = 0
    degraded_cold_starts: int = 0
    cold_p50_ms: float = 0.0
    cold_p99_ms: float = 0.0
    cache_hit_rate: float = 0.0            # fleet chunk-bytes hit rate
    locality_hit_rate: float = 0.0         # placements covering >=50%
    cross_node_bytes: int = 0
    per_node_rows: List[Dict[str, object]] = field(default_factory=list)
    hot_functions: List[Tuple[str, float, float]] = field(default_factory=list)
    hot_chunks: List[Tuple[str, float, float]] = field(default_factory=list)
    attribution: Optional[ColdStartAttribution] = None

    @property
    def cross_node_kib_per_restore(self) -> float:
        if not self.cold_starts:
            return 0.0
        return self.cross_node_bytes / 1024.0 / self.cold_starts


@dataclass
class FleetStudyResult:
    """The X12 report: per-rep aggregates + the stitched exemplar."""

    config: FleetStudyConfig
    seed: int
    reps: List[FleetRepResult] = field(default_factory=list)
    exemplar_spans: List[Dict[str, object]] = field(default_factory=list)

    @property
    def headline(self) -> FleetRepResult:
        return self.reps[0]

    def stitched_nodes(self) -> List[str]:
        return stitched_trace_nodes(self.exemplar_spans)

    def as_dict(self) -> Dict[str, object]:
        return {
            "experiment": "fleet-study",
            "seed": self.seed,
            "config": {
                "functions": self.config.functions,
                "requests": self.config.requests,
                "duration_ms": self.config.duration_ms,
                "compute_nodes": self.config.compute_nodes,
                "storage_nodes": self.config.storage_nodes,
                "replication_factor": self.config.replication_factor,
                "node_cache_mib": self.config.node_cache_mib,
            },
            "reps": [
                {
                    "rep": r.rep,
                    "seed": r.seed,
                    "requests": r.requests,
                    "cold_starts": r.cold_starts,
                    "degraded_cold_starts": r.degraded_cold_starts,
                    "cold_p50_ms": r.cold_p50_ms,
                    "cold_p99_ms": r.cold_p99_ms,
                    "cache_hit_rate": r.cache_hit_rate,
                    "locality_hit_rate": r.locality_hit_rate,
                    "cross_node_bytes": r.cross_node_bytes,
                    "cross_node_kib_per_restore": r.cross_node_kib_per_restore,
                    "per_node": r.per_node_rows,
                    "hot_functions": [
                        {"key": k, "count": c, "error": e}
                        for k, c, e in r.hot_functions],
                    "hot_chunks": [
                        {"key": k, "count": c, "error": e}
                        for k, c, e in r.hot_chunks],
                    "attribution": (r.attribution.as_dict()
                                    if r.attribution else []),
                    "folded": (r.attribution.folded_lines()
                               if r.attribution else []),
                }
                for r in self.reps
            ],
            "exemplar_spans": self.exemplar_spans,
            "stitched_nodes": self.stitched_nodes(),
        }

    def render(self) -> str:
        return render_fleet_report(self.as_dict())


# ---------------------------------------------------------------------------
# Stitching check (shared by tests, the report, and the CI assertion)
# ---------------------------------------------------------------------------


def stitched_trace_nodes(spans: Sequence[Dict[str, object]]) -> List[str]:
    """Node identities of the best stitched trace in ``spans``.

    Looks for a single connected span tree (every non-root span's
    parent is inside the same trace) that carries ``node_id``
    attributes from at least two distinct identities — a provision on
    a compute node plus shard fetches on storage nodes. Returns the
    sorted node ids of the best such trace, or ``[]`` if none
    qualifies (the CI gate greps for >= 2).
    """
    by_trace: Dict[str, List[Dict[str, object]]] = {}
    for span in spans:
        by_trace.setdefault(str(span.get("trace")), []).append(span)
    best: List[str] = []
    for members in by_trace.values():
        ids = {span.get("span") for span in members}
        connected = all(
            span.get("parent") is None or span.get("parent") in ids
            for span in members)
        if not connected:
            continue
        nodes: Set[str] = set()
        for span in members:
            attrs = span.get("attrs") or {}
            node_id = attrs.get("node_id") if isinstance(attrs, dict) else None
            if node_id and node_id != "unavailable":
                nodes.add(str(node_id))
        if len(nodes) > len(best):
            best = sorted(nodes)
    return best


def _trace_exemplar(seed: int) -> List[Dict[str, object]]:
    """One fully observed platform cold start through the sharded store.

    A 2-compute-node, 4-storage-node RF=2 cluster serving a single
    prebake invoke: the restore's quorum fetches are all remote (the
    node chunk cache starts cold), so the resulting trace is exactly
    the multi-node stitched tree the acceptance criteria describe.
    """
    world = make_world(seed=_derive_seed(seed, "fleet-exemplar"),
                       observe=True)
    kernel = world.kernel
    platform = FaaSPlatform(kernel, PlatformConfig(
        nodes=2, storage_nodes=4, replication_factor=2))
    platform.register_function(lambda: make_app("markdown"),
                               start_technique="prebake")
    platform.invoke("markdown")
    return [span.as_dict() for span in kernel.obs.tracer.spans]


# ---------------------------------------------------------------------------
# The fleet simulator
# ---------------------------------------------------------------------------


class _Fleet:
    """One repetition's fleet state: placement, caches, pools, plane."""

    def __init__(self, config: FleetStudyConfig, seed: int,
                 costs: CostModel) -> None:
        self.config = config
        self.costs = costs
        self.rng = np.random.Generator(np.random.PCG64(seed))
        c = config

        # -- image catalog ------------------------------------------------
        # Chunk ids are dense ints; placement comes from the real
        # consistent-hash ring over their digest-like string form.
        setup = np.random.Generator(np.random.PCG64(
            _derive_seed(seed, "fleet-images")))
        base_chunks: List[np.ndarray] = []
        next_cid = 0
        for mib in RUNTIME_BASE_MIB:
            count = mib * CHUNKS_PER_MIB
            base_chunks.append(np.arange(next_cid, next_cid + count,
                                         dtype=np.int64))
            next_cid += count
        self.function_names = [f"fn-{fid:03d}" for fid in range(c.functions)]
        self.func_chunks: List[List[int]] = []
        priv_mib = setup.integers(4, 25, size=c.functions)
        for fid in range(c.functions):
            count = int(priv_mib[fid]) * CHUNKS_PER_MIB
            priv = np.arange(next_cid, next_cid + count, dtype=np.int64)
            next_cid += count
            base = base_chunks[fid % len(RUNTIME_BASE_MIB)]
            self.func_chunks.append(np.concatenate([base, priv]).tolist())
        self.image_bytes = np.array(
            [len(chunks) * CHUNK_BYTES for chunks in self.func_chunks],
            dtype=np.float64)

        # Storage placement via the real shardstore ring.
        ring = HashRing([f"store-{i}" for i in range(c.storage_nodes)])
        store_index = {f"store-{i}": i for i in range(c.storage_nodes)}
        self.chunk_homes = np.empty(
            (next_cid, c.replication_factor), dtype=np.int8)
        for cid in range(next_cid):
            homes = ring.nodes_for(f"chunk-{cid:08d}", c.replication_factor)
            for slot, name in enumerate(homes):
                self.chunk_homes[cid, slot] = store_index[name]

        # -- per-node state -----------------------------------------------
        self.caches = [
            HotChunkCache(capacity_bytes=c.node_cache_mib * MIB, policy=LRU)
            for _ in range(c.compute_nodes)]
        # Warm pools: per function, [node, busy_until, last_used].
        self.pools: List[List[List[float]]] = [
            [] for _ in range(c.functions)]
        # Live replicas per compute node — the load term of placement.
        self.node_load = np.zeros(c.compute_nodes)

        # -- observability plane ------------------------------------------
        # One registry; every series carries its node's ``node=`` label.
        self.registry = MetricsRegistry()
        self.attribution = ColdStartAttribution()
        self.hot_functions = SpaceSavingSketch(capacity=64)
        self.hot_chunks = SpaceSavingSketch(capacity=256)

        # Pre-resolved per-node handles: a write is one dict update.
        compute = [{NODE_LABEL: f"node-{i}"} for i in range(c.compute_nodes)]
        stores = [{NODE_LABEL: f"store-{i}"} for i in range(c.storage_nodes)]
        counter = self.registry.counter
        self.h_requests = [counter("fleet_requests_total", n) for n in compute]
        self.h_warm = [counter("fleet_warm_total", n) for n in compute]
        self.h_cold = [counter("fleet_cold_total", n) for n in compute]
        self.h_hit_bytes = [counter("chunk_cache_hit_bytes_total", n)
                            for n in compute]
        self.h_miss_bytes = [counter("chunk_cache_miss_bytes_total", n)
                             for n in compute]
        self.h_placement = [counter("deployer_cold_placement_total", n)
                            for n in compute]
        self.h_loc_miss = [counter("deployer_locality_miss_total", n)
                           for n in compute]
        self.h_served = [counter("shard_served_bytes_total", n)
                         for n in stores]
        self.h_hops = [counter("shard_retry_hops_total", n) for n in stores]
        self.cold_hists = [
            self.registry.histogram_series("fleet_cold_start_ms", n)
            for n in compute]

        self.outage_node = -1
        self.outage_window = (c.duration_ms * c.outage_start_frac,
                              c.duration_ms * c.outage_end_frac)
        self.cross_node_bytes = 0
        self.degraded_cold_starts = 0

    def _storage_down(self, store: int, t: float) -> bool:
        lo, hi = self.outage_window
        return store == self.outage_node and lo <= t < hi

    # -- the cold-start path -------------------------------------------------

    def cold_start(self, t: float, fid: int) -> Tuple[int, float]:
        """Provision one replica; returns (node, ready latency ms)."""
        c = self.config
        # Locality-aware, load-balanced placement: score each node by
        # the fraction of this image its chunk cache already covers,
        # minus a penalty for its share of live replicas (0.5 at a
        # perfectly balanced fleet). Full local coverage beats an empty
        # node unless the covering node already runs well over its fair
        # share; deterministic argmax, first max wins.
        chunks = self.func_chunks[fid]
        total_bytes = self.image_bytes[fid]
        coverage = np.array([
            float(CHUNK_BYTES * sum(map(cache.contains, chunks)))
            for cache in self.caches])
        load_total = self.node_load.sum()
        score = coverage / total_bytes
        if load_total > 0.0:
            score = score - (0.5 * c.compute_nodes / load_total) \
                * self.node_load
        node = int(np.argmax(score))
        covered = coverage[node]
        self.node_load[node] += 1.0
        self.h_placement[node].inc()
        if covered * 2 < total_bytes:
            self.h_loc_miss[node].inc()

        local_bytes = 0
        remote_bytes = 0
        hops = 0
        cache = self.caches[node]
        for cid in chunks:
            # A miss is fetched from the store and admitted (LRU).
            if cache.lookup(cid, CHUNK_BYTES):
                local_bytes += CHUNK_BYTES
                continue
            homes = self.chunk_homes[cid]
            serving = int(homes[0])
            if self._storage_down(serving, t):
                hops += 1
                if len(homes) > 1:
                    serving = int(homes[1])
                    if self._storage_down(serving, t):
                        hops += 1
            remote_bytes += CHUNK_BYTES
            self.h_served[serving].inc(float(CHUNK_BYTES))
            self.hot_chunks.offer(f"chunk-{cid:08d}", float(CHUNK_BYTES))
        if hops:
            self.h_hops[int(self.chunk_homes[chunks[0]][0])].inc(float(hops))
        self.cross_node_bytes += remote_bytes
        self.h_hit_bytes[node].inc(float(local_bytes))
        self.h_miss_bytes[node].inc(float(remote_bytes))

        # -- latency decomposition (the engine's one-worker restore plan) -
        costs = self.costs
        cf = local_bytes / total_bytes if total_bytes else 0.0
        full = costs.restore_cost(total_bytes / MIB)
        base = min(costs.restore_base_ms, full)
        plan = costs.plan_restore_pipeline(full - base, cached_fraction=cf)
        restore_ms = (base + plan.total_ms
                      + costs.shard_fetch_overhead_ms(hops))
        # One multiplicative log-normal jitter per cold start, applied
        # to every phase, so the phase sums reproduce the total exactly.
        factor = math.exp(costs.noise_sigma * self.rng.standard_normal())
        phases = {
            "clone": costs.clone_ms * factor,
            "spawn": costs.criu_spawn_ms * factor,
            "restore": restore_ms * factor,
        }
        total_ms = 0.0
        for value in phases.values():
            total_ms += value

        if hops:
            outcome = OUTCOME_DEGRADED
            self.degraded_cold_starts += 1
        elif cf >= 0.5:
            outcome = OUTCOME_LOCAL_HIT
        else:
            outcome = OUTCOME_REMOTE_FETCH
        self.attribution.record(self.function_names[fid], f"node-{node}",
                                outcome, phases, total_ms)
        self.h_cold[node].inc()
        self.cold_hists[node].observe(total_ms)
        return node, total_ms

    # -- the request loop ----------------------------------------------------

    def run(self, times: np.ndarray, fids: np.ndarray) -> None:
        c = self.config
        costs = self.costs
        keepalive = c.keepalive_ms
        service_ms = costs.exec_ms
        pools = self.pools
        names = self.function_names
        offer = self.hot_functions.offer
        h_requests = self.h_requests
        h_warm = self.h_warm
        for t, fid in zip(times.tolist(), fids.tolist()):
            pool = pools[fid]
            offer(names[fid])
            if pool:
                live = [r for r in pool if r[2] + keepalive >= t]
                if len(live) != len(pool):
                    for r in pool:
                        if r[2] + keepalive < t:
                            self.node_load[int(r[0])] -= 1.0
                    pool[:] = live
            replica = None
            for r in pool:
                if r[1] <= t:
                    replica = r
                    break
            if replica is not None:
                replica[1] = t + service_ms
                replica[2] = t
                node = int(replica[0])
                h_warm[node].inc()
            elif len(pool) < c.max_replicas:
                node, latency = self.cold_start(t, fid)
                pool.append([float(node), t + latency + service_ms, t])
            else:
                # Pool at capacity and every replica busy: queue on the
                # earliest-free replica (still a warm service).
                replica = min(pool, key=lambda r: r[1])
                replica[1] += service_ms
                replica[2] = t
                node = int(replica[0])
                h_warm[node].inc()
            h_requests[node].inc()


def _run_repetition(config: FleetStudyConfig, seed: int,
                    rep: int) -> FleetRepResult:
    rep_seed = _derive_seed(seed, f"fleet-{rep}")
    costs = DEFAULT_COST_MODEL
    fleet = _Fleet(config, rep_seed, costs)
    fleet.outage_node = rep % config.storage_nodes
    times, fids = synthesize_fleet_workload(
        function_count=config.functions,
        duration_ms=config.duration_ms,
        requests=config.requests,
        seed=_derive_seed(rep_seed, "fleet-trace"),
    )
    fleet.run(times, fids)

    reg = fleet.registry
    hit_bytes = reg.value("chunk_cache_hit_bytes_total")
    miss_bytes = reg.value("chunk_cache_miss_bytes_total")
    placements = reg.value("deployer_cold_placement_total")
    loc_misses = reg.value("deployer_locality_miss_total")
    cold_hist = merged_histogram(reg, "fleet_cold_start_ms")

    result = FleetRepResult(rep=rep, seed=rep_seed)
    result.requests = int(reg.value("fleet_requests_total"))
    result.cold_starts = int(reg.value("fleet_cold_total"))
    result.degraded_cold_starts = fleet.degraded_cold_starts
    if cold_hist is not None:
        result.cold_p50_ms = cold_hist.quantile(0.5)
        result.cold_p99_ms = cold_hist.quantile(0.99)
    denominator = hit_bytes + miss_bytes
    result.cache_hit_rate = hit_bytes / denominator if denominator else 0.0
    result.locality_hit_rate = (
        1.0 - loc_misses / placements if placements else 0.0)
    result.cross_node_bytes = fleet.cross_node_bytes

    for i in range(config.compute_nodes):
        node = {NODE_LABEL: f"node-{i}"}
        node_hit = reg.value("chunk_cache_hit_bytes_total", node)
        node_miss = reg.value("chunk_cache_miss_bytes_total", node)
        node_total = node_hit + node_miss
        result.per_node_rows.append({
            "node": node[NODE_LABEL],
            "requests": int(reg.value("fleet_requests_total", node)),
            "cold": int(reg.value("fleet_cold_total", node)),
            "cache_hit_rate": (node_hit / node_total) if node_total else 0.0,
            "cold_p99_ms": reg.quantile("fleet_cold_start_ms", 0.99, node),
        })
    for i in range(config.storage_nodes):
        store = {NODE_LABEL: f"store-{i}"}
        result.per_node_rows.append({
            "node": store[NODE_LABEL],
            "requests": 0,
            "cold": 0,
            "served_mib": reg.value("shard_served_bytes_total", store) / MIB,
        })
    result.hot_functions = fleet.hot_functions.top(10)
    result.hot_chunks = fleet.hot_chunks.top(10)
    result.attribution = fleet.attribution
    return result


def fleet_study(repetitions: int = 1, seed: int = 42,
                requests: int = 1_000_000, functions: int = 200,
                compute_nodes: int = 8, storage_nodes: int = 6,
                replication_factor: int = 2,
                duration_ms: float = 7_200_000.0) -> FleetStudyResult:
    """Run X12: ``repetitions`` independent fleet passes + the exemplar."""
    config = FleetStudyConfig(
        functions=functions, requests=requests, duration_ms=duration_ms,
        compute_nodes=compute_nodes, storage_nodes=storage_nodes,
        replication_factor=replication_factor)
    result = FleetStudyResult(config=config, seed=seed)
    for rep in range(repetitions):
        result.reps.append(_run_repetition(config, seed, rep))
    result.exemplar_spans = _trace_exemplar(seed)
    return result


# ---------------------------------------------------------------------------
# Rendering (shared with prebake-bench fleet-report)
# ---------------------------------------------------------------------------


def render_fleet_report(artifact: Dict[str, object]) -> str:
    """Human-readable fleet report from a ``--fleet-out`` artifact."""
    lines: List[str] = []
    config = artifact.get("config", {})
    lines.append("X12 — trace-driven fleet study")
    lines.append(
        f"functions: {config.get('functions')}  "
        f"compute nodes: {config.get('compute_nodes')}  "
        f"storage nodes: {config.get('storage_nodes')} "
        f"(RF={config.get('replication_factor')})")
    for rep in artifact.get("reps", []):  # type: ignore[union-attr]
        lines.append("")
        lines.append(
            f"rep {rep['rep']}: requests {rep['requests']}  "
            f"cold starts {rep['cold_starts']} "
            f"({rep['degraded_cold_starts']} degraded)")
        lines.append(
            f"  fleet cold-start p50 {rep['cold_p50_ms']:.2f} ms  "
            f"p99 {rep['cold_p99_ms']:.2f} ms")
        lines.append(
            f"  chunk-cache hit rate {rep['cache_hit_rate']:.3f}  "
            f"locality hit rate {rep['locality_hit_rate']:.3f}  "
            f"cross-node {rep['cross_node_kib_per_restore']:.1f} KiB/restore")
        rows = []
        for row in rep.get("per_node", []):
            if str(row["node"]).startswith("node-"):
                rows.append([
                    row["node"], row["requests"], row["cold"],
                    f"{row['cache_hit_rate']:.3f}",
                    f"{row['cold_p99_ms']:.2f}"])
        if rows:
            lines.append("")
            lines.append(format_table(
                ["node", "requests", "cold", "cache-hit", "p99(ms)"], rows))
        store_rows = [
            [row["node"], f"{row['served_mib']:.1f}"]
            for row in rep.get("per_node", [])
            if str(row["node"]).startswith("store-")]
        if store_rows:
            lines.append("")
            lines.append(format_table(["store", "served(MiB)"], store_rows))
        hot = rep.get("hot_functions", [])
        if hot:
            lines.append("")
            lines.append("hot functions (Space-Saving top-k):")
            for entry in hot[:5]:
                lines.append(
                    f"  {entry['key']}: {entry['count']:.0f} "
                    f"(+/- {entry['error']:.0f})")
        attribution = rep.get("attribution", [])
        if attribution:
            lines.append("")
            lines.append("cold-start blame table (top cells by total ms):")
            lines.append(
                ColdStartAttribution.from_dict(attribution).blame_table())
    stitched = artifact.get("stitched_nodes", [])
    lines.append("")
    if len(stitched) >= 2:  # type: ignore[arg-type]
        lines.append("stitched multi-node trace: yes "
                     f"({','.join(stitched)})")  # type: ignore[arg-type]
    else:
        lines.append("stitched multi-node trace: NO")
    return "\n".join(lines)
