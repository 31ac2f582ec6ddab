"""Figure-4 extension: restore modes × image size, plus registry dedup.

The paper's Figure 4 shows restore time growing with snapshot size
(NOOP 13 MB → Image Resizer 99.2 MB) under a fully eager restore.
This experiment extends that axis with the two optimizations the
refactored pipeline adds:

* a *restore-mode sweep*: EAGER vs LAZY vs WORKING_SET restore latency
  per real function, where the first WORKING_SET restore records the
  pages touched before first response and later restores prefetch only
  that set (REAP);
* *registry dedup accounting*: all snapshots live in one
  content-addressed store, so the report shows logical vs physical
  bytes, the cross-snapshot dedup ratio, per-function ready→warm image
  diffs (:mod:`repro.criu.imgdiff`), and the sublinear growth of the
  physical registry as functions accumulate.

Unlike the fig3/fig4 harness (fresh world per repetition), restores
here repeat inside one world: working-set records and the chunk store
must persist across restores for either mechanism to show.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro import make_world
from repro.bench.report import format_table
from repro.bench.stats import ks_distance, mann_whitney_u, median
from repro.core.bakery import registry_growth_curve
from repro.core.manager import PrebakeManager
from repro.core.policy import AfterReady, AfterWarmup
from repro.core.store import SnapshotKey
from repro.criu.imgdiff import diff_images
from repro.criu.restore import RestoreMode
from repro.functions import make_app
from repro.sim.rng import _derive_seed

REAL_FUNCTIONS = ("noop", "markdown", "image-resizer")
GROWTH_FUNCTIONS = REAL_FUNCTIONS + ("synthetic-small", "synthetic-medium")


@dataclass
class ModeRow:
    """Restore-latency medians for one function across modes."""

    function: str
    image_mib: float
    eager_ms: float
    lazy_ms: float
    lazy_first_response_ms: float   # includes the deferred paging debt
    ws_record_ms: float             # first (recording) WORKING_SET restore
    ws_ms: float                    # steady-state prefetching restores
    ws_fraction: float              # recorded working set / resident set
    ks_vs_eager: float              # service-time ECDF distance WS vs EAGER
    mwu_p_vs_eager: float

    @property
    def ws_speedup_pct(self) -> float:
        if self.eager_ms <= 0:
            return 0.0
        return 100.0 * (1 - self.ws_ms / self.eager_ms)


@dataclass
class RestoreSweepResult:
    rows: List[ModeRow] = field(default_factory=list)
    logical_mib: float = 0.0
    physical_mib: float = 0.0
    dedup_ratio: float = 0.0
    chunk_count: int = 0
    dedup_hits: int = 0
    imgdiff_summaries: List[str] = field(default_factory=list)
    growth: List[Dict[str, float]] = field(default_factory=list)

    def render(self) -> str:
        table_rows = [
            [
                row.function,
                f"{row.image_mib:.1f}",
                f"{row.eager_ms:.2f}",
                f"{row.lazy_ms:.2f}",
                f"{row.lazy_first_response_ms:.2f}",
                f"{row.ws_record_ms:.2f}",
                f"{row.ws_ms:.2f}",
                f"{row.ws_fraction:.1%}",
                f"{row.ws_speedup_pct:.1f}%",
                f"{row.ks_vs_eager:.3f}",
                f"{row.mwu_p_vs_eager:.2f}",
            ]
            for row in self.rows
        ]
        lines = [
            "Figure 4 extension — restore latency vs image size across "
            "restore modes (medians)",
            format_table(
                ["function", "image(MiB)", "eager(ms)", "lazy(ms)",
                 "lazy 1st-resp", "ws record", "ws(ms)", "ws set",
                 "ws speedup", "KS", "MWU p"],
                table_rows,
            ),
            "(lazy defers paging debt to the first request; ws = "
            "WORKING_SET prefetch of the recorded first-response set. "
            "KS/MWU compare post-restore service-time ECDFs, ws vs eager.)",
            "",
            "Registry dedup — one content-addressed store, ready+warm "
            "snapshots of all functions:",
            f"  logical {self.logical_mib:.1f} MiB  physical "
            f"{self.physical_mib:.1f} MiB  dedup ratio "
            f"{self.dedup_ratio:.2f}x  ({self.chunk_count} chunks, "
            f"{self.dedup_hits} dedup hits)",
            "",
            "Image diffs, ready -> warm (repro.criu.imgdiff):",
        ]
        lines += [f"  {s}" for s in self.imgdiff_summaries]
        lines += ["", "Registry growth (cumulative, shared runtime base):"]
        for point in self.growth:
            lines.append(
                f"  {int(point['functions'])} function(s): logical "
                f"{point['logical_mib']:7.1f} MiB  physical "
                f"{point['physical_mib']:7.1f} MiB  ratio "
                f"{point['dedup_ratio']:.2f}x"
            )
        return "\n".join(lines)


def _measure_mode(manager: PrebakeManager, name: str, mode: RestoreMode,
                  repetitions: int):
    """Restore ``repetitions`` replicas; return per-restore timings."""
    from repro.runtime.base import Request
    startups: List[float] = []
    first_responses: List[float] = []
    services: List[float] = []
    starter = manager.starter("prebake", policy=AfterWarmup(1),
                              restore_mode=mode, version=1)
    for _ in range(repetitions):
        app = make_app(name)
        handle = starter.start(app)
        startups.append(handle.startup_ms("ready"))
        response = handle.invoke(Request())
        services.append(response.service_ms)
        first_responses.append(handle.startup_ms("first_response"))
        handle.kill()
    return startups, first_responses, services


def restore_sweep(repetitions: int = 40, seed: int = 42) -> RestoreSweepResult:
    """Run the dedup + restore-mode experiment."""
    world = make_world(seed=_derive_seed(seed, "restore-sweep"))
    manager = PrebakeManager(world.kernel)
    result = RestoreSweepResult()

    # Bake ready + warm snapshots of every function into ONE store so
    # cross-snapshot dedup is visible; the warm image's delta layer
    # diffs against its ready sibling.
    for name in REAL_FUNCTIONS:
        ready = manager.prebaker.bake(make_app(name), policy=AfterReady())
        warm = manager.prebaker.bake(make_app(name), policy=AfterWarmup(1))
        manager.sync_version(name, 1)
        result.imgdiff_summaries.append(
            diff_images(ready.image, warm.image).summary().splitlines()[0]
        )

    store = manager.store
    result.logical_mib = store.logical_bytes / (1024 * 1024)
    result.physical_mib = store.physical_bytes / (1024 * 1024)
    result.dedup_ratio = store.dedup_ratio
    result.chunk_count = store.pages.chunk_count
    result.dedup_hits = store.pages.dedup_hits

    for name in REAL_FUNCTIONS:
        app = make_app(name)
        image = store.peek(
            SnapshotKey(name, app.runtime_kind, AfterWarmup(1).key, 1))
        eager, _, eager_services = _measure_mode(
            manager, name, RestoreMode.EAGER, repetitions)
        lazy, lazy_first, _ = _measure_mode(
            manager, name, RestoreMode.LAZY, repetitions)
        # The first WORKING_SET restore records; the rest prefetch.
        ws_record, _, _ = _measure_mode(
            manager, name, RestoreMode.WORKING_SET, 1)
        ws, _, ws_services = _measure_mode(
            manager, name, RestoreMode.WORKING_SET, repetitions)
        tracker = world.kernel.working_sets
        record = tracker.record_for(image) if tracker is not None else None
        test = mann_whitney_u(eager_services, ws_services)
        result.rows.append(ModeRow(
            function=name,
            image_mib=image.total_mib,
            eager_ms=median(eager),
            lazy_ms=median(lazy),
            lazy_first_response_ms=median(lazy_first),
            ws_record_ms=ws_record[0],
            ws_ms=median(ws),
            ws_fraction=record.fraction if record is not None else 1.0,
            ks_vs_eager=ks_distance(eager_services, ws_services),
            mwu_p_vs_eager=test.p_value,
        ))

    result.growth = registry_growth_curve(list(GROWTH_FUNCTIONS), seed=seed)
    return result


# ---------------------------------------------------------------------------
# Experiment X8 — restore-pipeline sweep (workers × cache policy × function)
# ---------------------------------------------------------------------------

NO_CACHE = "none"
DEFAULT_WORKERS_GRID = (1, 2, 4)
DEFAULT_CACHE_POLICIES = (NO_CACHE, "freq-over-size", "lru")


@dataclass
class PipelineCell:
    """One (function, workers, cache policy) treatment."""

    function: str
    image_mib: float
    workers: int
    cache_policy: str
    p50_ms: float                   # median restore-path start-up
    cold_ms: float                  # first restore (cache still cold)
    hit_ratio: float                # chunk-cache lookup hit ratio
    improvement_pct: float          # vs the function's serial/no-cache cell


@dataclass
class RestorePipelineResult:
    rows: List[PipelineCell] = field(default_factory=list)

    def cell(self, function: str, workers: int,
             cache_policy: str) -> PipelineCell:
        for row in self.rows:
            if (row.function == function and row.workers == workers
                    and row.cache_policy == cache_policy):
                return row
        raise KeyError((function, workers, cache_policy))

    def render(self) -> str:
        table_rows = [
            [
                row.function,
                f"{row.image_mib:.1f}",
                str(row.workers),
                row.cache_policy,
                f"{row.p50_ms:.2f}",
                f"{row.cold_ms:.2f}",
                f"{row.hit_ratio:.1%}",
                f"{row.improvement_pct:+.1f}%",
            ]
            for row in self.rows
        ]
        return "\n".join([
            "Experiment X8 — pipelined restore: workers × cache policy "
            "(median start-up, EAGER restores in one world)",
            format_table(
                ["function", "image(MiB)", "workers", "cache", "p50(ms)",
                 "cold(ms)", "hit ratio", "vs serial"],
                table_rows,
            ),
            "(cold = first restore on the node, cache empty; later "
            "restores hit the node-local hot-chunk cache. 'vs serial' "
            "compares each cell's p50 to the workers=1/no-cache cell.)",
        ])


def _measure_pipeline_cell(name: str, workers: int, cache_policy: str,
                           repetitions: int, seed: int):
    """One hermetic world per cell: bake once, restore ``repetitions``
    replicas through a pipeline/cache-configured starter."""
    from repro.criu.chunkcache import make_cache

    world = make_world(
        seed=_derive_seed(seed, f"pipeline/{name}/w{workers}/{cache_policy}"))
    manager = PrebakeManager(world.kernel)
    manager.prebaker.bake(make_app(name), policy=AfterWarmup(1))
    manager.sync_version(name, 1)
    cache = make_cache(None if cache_policy == NO_CACHE else cache_policy)
    starter = manager.starter(
        "prebake", policy=AfterWarmup(1), restore_mode=RestoreMode.EAGER,
        version=1, pipeline_workers=workers, chunk_cache=cache)
    app = make_app(name)
    image = manager.store.peek(
        SnapshotKey(name, app.runtime_kind, AfterWarmup(1).key, 1))
    latencies: List[float] = []
    for _ in range(repetitions):
        handle = starter.start(make_app(name))
        latencies.append(handle.startup_ms("ready"))
        handle.kill()
    hit_ratio = cache.stats.hit_ratio if cache is not None else 0.0
    return image.total_mib, latencies, hit_ratio


def restore_pipeline_sweep(
    repetitions: int = 12,
    seed: int = 42,
    workers_grid=DEFAULT_WORKERS_GRID,
    cache_policies=DEFAULT_CACHE_POLICIES,
) -> RestorePipelineResult:
    """Sweep the restore-pipeline knobs over the paper's function set.

    Each cell runs in its own seeded world so cache state never bleeds
    between treatments; within a cell restores share one world so the
    node-local cache can warm up, exactly like repeated cold starts
    landing on one node.
    """
    result = RestorePipelineResult()
    for name in REAL_FUNCTIONS:
        baseline_p50 = None
        for workers in workers_grid:
            for policy in cache_policies:
                image_mib, latencies, hit_ratio = _measure_pipeline_cell(
                    name, workers, policy, repetitions, seed)
                p50 = median(latencies)
                if (baseline_p50 is None and workers == 1
                        and policy == NO_CACHE):
                    baseline_p50 = p50
                improvement = (
                    100.0 * (1 - p50 / baseline_p50)
                    if baseline_p50 else 0.0)
                result.rows.append(PipelineCell(
                    function=name,
                    image_mib=image_mib,
                    workers=workers,
                    cache_policy=policy,
                    p50_ms=p50,
                    cold_ms=latencies[0],
                    hit_ratio=hit_ratio,
                    improvement_pct=improvement,
                ))
    return result
