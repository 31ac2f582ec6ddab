"""X12 — trace-driven fleet study on the fleet observability plane.

The paper's numbers are per function. X12 asks the fleet question:
with a sharded store and chunk-locality placement, what do cold-start
p99, chunk-cache hit rates and cross-node traffic look like under a
production-shaped trace (Zipf popularity over hundreds of functions,
diurnal and bursty arrivals, millions of requests)?

Each repetition replays a synthesized trace
(:func:`repro.bench.traces.synthesize_fleet_workload`) through the
fleet model (:mod:`repro.bench.fleet_model`): C compute nodes, S
storage nodes, functions sharing per-runtime base layers, and a
mid-trace storage outage that produces the degraded slice of the
blame table. The model's one ``node=``-labelled registry gives the
fleet totals and, through :func:`~repro.obs.slo.merged_histogram`, the
fleet quantiles; no per-request sample list is kept, so one repetition
streams ≥1M requests in bounded memory. One *real* platform cold start
(2 compute, 4 storage nodes, RF=2, fully observed) rides along: its
stitched span tree, a provision on a ``node-*`` identity with shard
fetches on ``store-*`` identities, is embedded in the artifact and
asserted by CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro import make_world
from repro.bench.fleet_model import MIB, FleetModel
from repro.bench.report import format_table
from repro.bench.traces import synthesize_fleet_workload
from repro.faas.platform import FaaSPlatform, PlatformConfig
from repro.functions.base import make_app
from repro.obs.fleet import (
    NODE_LABEL,
    OUTCOME_DEGRADED,
    ColdStartAttribution,
    SpaceSavingSketch,
)
from repro.obs.slo import merged_histogram
from repro.sim.costmodel import DEFAULT_COST_MODEL
from repro.sim.rng import _derive_seed

CHUNK_BYTES = 256 * 1024          # one pagestore window (64 pages x 4 KiB)
CHUNKS_PER_MIB = MIB // CHUNK_BYTES

# Shared runtime bases: functions of the same runtime share these
# chunks, which is what gives cross-function locality its teeth.
RUNTIME_BASE_MIB = (6, 8, 12)


@dataclass(frozen=True)
class FleetStudyConfig:
    """Shape of one X12 run (defaults = the sealed baseline).

    The fields are what a run or a test changes; the class constants
    below them are the same in every run.
    """

    functions: int = 200
    requests: int = 1_000_000
    compute_nodes: int = 8
    storage_nodes: int = 6
    # Deliberately smaller than the ~425 MiB/node working set so the
    # steady state keeps churning remote fetches instead of converging
    # to an all-local fleet.
    node_cache_mib: int = 256

    duration_ms = 7_200_000.0      # 2 simulated hours
    replication_factor = 2
    keepalive_ms = 60_000.0
    max_replicas = 8
    # Deterministic storage outage: one store is down for the middle
    # [40%, 60%) slice of the trace, producing the degraded bucket.
    outage_start_frac = 0.40
    outage_end_frac = 0.60


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
# One repetition: the image catalog, the trace, the fleet model
# ---------------------------------------------------------------------------


def _image_catalog(functions: int, seed: int) -> List[List[int]]:
    """Chunk ids per function: its runtime's shared base layer, then
    4-24 MiB of private chunks. Ids are dense ints."""
    setup = np.random.Generator(np.random.PCG64(
        _derive_seed(seed, "fleet-images")))
    base_chunks: List[List[int]] = []
    next_cid = 0
    for mib in RUNTIME_BASE_MIB:
        count = mib * CHUNKS_PER_MIB
        base_chunks.append(list(range(next_cid, next_cid + count)))
        next_cid += count
    catalog: List[List[int]] = []
    priv_mib = setup.integers(4, 25, size=functions)
    for fid in range(functions):
        count = int(priv_mib[fid]) * CHUNKS_PER_MIB
        catalog.append(base_chunks[fid % len(RUNTIME_BASE_MIB)]
                       + list(range(next_cid, next_cid + count)))
        next_cid += count
    return catalog


def _run_repetition(config: FleetStudyConfig, seed: int,
                    rep: int) -> FleetRepResult:
    rep_seed = _derive_seed(seed, f"fleet-{rep}")
    c = config
    model = FleetModel(
        _image_catalog(c.functions, rep_seed),
        [CHUNK_BYTES] * c.functions,
        compute_nodes=c.compute_nodes,
        node_cache_bytes=c.node_cache_mib * MIB,
        storage_nodes=c.storage_nodes,
        replication_factor=c.replication_factor,
        keepalive_ms=c.keepalive_ms, max_replicas=c.max_replicas,
        service_ms=DEFAULT_COST_MODEL.exec_ms, seed=rep_seed,
        outage=(rep % c.storage_nodes,
                c.duration_ms * c.outage_start_frac,
                c.duration_ms * c.outage_end_frac))
    times, fids = synthesize_fleet_workload(
        function_count=c.functions,
        duration_ms=c.duration_ms,
        requests=c.requests,
        seed=_derive_seed(rep_seed, "fleet-trace"),
    )
    model.run(times, fids)
    model.close(c.duration_ms)
    hot_functions = SpaceSavingSketch(capacity=64)
    for fid in fids.tolist():
        hot_functions.offer(model.names[fid])

    reg = model.registry
    hit_bytes = reg.value("chunk_cache_hit_bytes_total")
    miss_bytes = reg.value("chunk_cache_miss_bytes_total")
    placements = reg.value("deployer_cold_placement_total")
    loc_misses = reg.value("deployer_locality_miss_total")
    cold_hist = merged_histogram(reg, "fleet_cold_start_ms")

    result = FleetRepResult(rep=rep, seed=rep_seed)
    result.requests = int(reg.value("fleet_requests_total"))
    result.cold_starts = int(reg.value("fleet_cold_total"))
    result.degraded_cold_starts = sum(
        cell.count for cell in model.attribution.cells()
        if cell.outcome == OUTCOME_DEGRADED)
    if cold_hist is not None:
        result.cold_p50_ms = cold_hist.quantile(0.5)
        result.cold_p99_ms = cold_hist.quantile(0.99)
    denominator = hit_bytes + miss_bytes
    result.cache_hit_rate = hit_bytes / denominator if denominator else 0.0
    result.locality_hit_rate = (
        1.0 - loc_misses / placements if placements else 0.0)
    result.cross_node_bytes = int(miss_bytes)

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
    result.hot_functions = hot_functions.top(10)
    result.hot_chunks = model.hot_chunks.top(10)
    result.attribution = model.attribution
    return result


def fleet_study(repetitions: int = 1, seed: int = 42,
                requests: int = 1_000_000, functions: int = 200,
                compute_nodes: int = 8,
                storage_nodes: int = 6) -> FleetStudyResult:
    """Run X12: ``repetitions`` independent fleet passes + the exemplar."""
    config = FleetStudyConfig(
        functions=functions, requests=requests,
        compute_nodes=compute_nodes, storage_nodes=storage_nodes)
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
