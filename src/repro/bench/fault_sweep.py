"""One fault sweep: prebake-with-fallback cold starts under injected faults.

X5 chaos, X9 incident and X10 shard chaos are presets of one experiment
(see EXPERIMENTS.md). A :class:`Cell` is plain data: function, start
technique, platform shape, world seed label, the per-request cold-start
rule (the idle timeout) and a list of :class:`Phase` s, each a request
count under one fault plan, optionally opening with a storage-node
kill. :func:`sweep` is the one repetition loop. Postmortems are an
output of any cell; every bundle's recipe names its preset, parameters,
world and repetition, which :func:`replay_recipe` re-runs. Sealing reads
live state without advancing the clock or drawing randomness, so every
report is a pure function of ``(seed, parameters)``, collection or not.
"""

from __future__ import annotations

import hashlib
import pathlib
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from repro import faults, make_world, obs
from repro.bench.report import format_table
from repro.bench.stats import quantile
from repro.faas.platform import FaaSPlatform, PlatformConfig
from repro.faults import FaultPlan, FaultSpec, PlatformError
from repro.functions.base import make_app
from repro.obs.log import bound_trace_provider, get_logger
from repro.obs.postmortem import PostmortemBundle, PostmortemCollector
from repro.obs.slo import SLOBreach
from repro.sim.rng import _derive_seed

_log = get_logger("bench")

# X5: restore-path faults get the full knob rate — they are what the
# prebake retry/fallback machinery exists to absorb. Serve-path faults
# run at a fraction so a request (which survives at most
# ``max_crash_retries`` consecutive crashes) still completes at 1.0.
CHAOS_SCALE = {
    faults.RESTORE_FAIL: 1.0,
    faults.RESTORE_HANG: 0.25,
    faults.IMAGE_CORRUPT: 0.25,
    faults.IO_SLOW: 0.5,
    faults.REPLICA_CRASH: 0.1,
    faults.OOM_KILL: 0.1,
}

# Shorter hang than the model default: the point is that hangs are
# detected and retried, not to dominate the latency table.
CHAOS_HANG_MS = 200.0

# X10: partition is evaluated per replica hop, node_down per restore
# and slow_shard per window, so all run at a fraction: a restore fails
# only when *every* replica of a window is unreachable, and the
# deterministic mid-window kill should dominate — RF>=2 mostly
# *degrades* (survivor hops) rather than falling back.
SHARD_SCALE = {
    faults.STORE_NODE_DOWN: 0.1,
    faults.STORE_PARTITION: 0.1,
    faults.STORE_SLOW_SHARD: 0.25,
}

# Bundles one world may seal (a 100%-fault world would bundle each one).
MAX_BUNDLES_PER_WORLD = 4

# Report column -> the per-world counters summed into it.
COUNTERS = {
    "fallback": ("prebake_fallback_total",),
    "retry": ("prebake_restore_retries_total",),
    "quarantine": ("prebake_snapshot_quarantined_total",),
    "crash-retry": ("router_crash_retries_total",),
    "reaped": ("deployer_reaped_total", "pool_reaped_total"),
    "degraded": ("restore_degraded_total",),
    "hops": ("shard_fetch_retry_hops_total",),
    "breaker": ("shard_breaker_open_total",),
}


def knob_plan(rate: float, scales: Dict[str, float],
              delays: Optional[Dict[str, float]] = None) -> FaultPlan:
    """Fan one fault-rate knob out over sites: each site is armed at
    ``rate x scale`` (capped at 1); sites at probability 0 are left out."""
    delays = delays or {}
    return FaultPlan(specs={
        site: FaultSpec(site, min(1.0, rate * scale),
                        delay_ms=delays.get(site))
        for site, scale in scales.items() if rate * scale > 0.0
    })


@dataclass(frozen=True)
class Phase:
    """``requests`` sequential requests under ``plan``; ``kill_ms``, when
    set, first crashes storage node ``store-(rep mod storage_nodes)``
    for that long."""

    requests: int
    plan: FaultPlan
    kill_ms: Optional[float] = None


@dataclass(frozen=True)
class Cell:
    """One treatment (fault plan x RF x technique). ``world`` is the
    seed label of each repetition's world, ``{rep}`` standing for the
    repetition; ``rate`` is the sweep point the plans were built from;
    ``slo_window_ms`` runs the per-window SLO burn check."""

    function: str
    technique: str
    rate: float
    world: str
    phases: Tuple[Phase, ...]
    nodes: int = 2
    storage_nodes: int = 0
    replication_factor: int = 1
    idle_timeout_ms: float = 60_000.0
    think_ms: float = 100.0
    slo_window_ms: Optional[float] = None


@dataclass
class CellResult:
    """One cell, summed over its repetitions (times in world clocks)."""

    cell: Cell
    requests: int = 0
    successes: int = 0
    faults_fired: int = 0
    cold_waits_ms: List[float] = field(default_factory=list)
    counts: Dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(COUNTERS, 0))
    schedule_digests: List[str] = field(default_factory=list)
    phase_bounds_ms: List[Tuple[float, float]] = field(default_factory=list)
    breaches: List[SLOBreach] = field(default_factory=list)
    bundles: List[PostmortemBundle] = field(default_factory=list)
    bundle_paths: List[pathlib.Path] = field(default_factory=list)
    flight_events: List[Dict[str, object]] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.requests - self.successes

    @property
    def success_rate(self) -> float:
        return self.successes / self.requests if self.requests else 0.0

    def cold_p50(self) -> float:
        return quantile(self.cold_waits_ms, 0.5) if self.cold_waits_ms else 0.0

    def cold_p99(self) -> float:
        return quantile(self.cold_waits_ms, 0.99) if self.cold_waits_ms else 0.0


@dataclass
class SweepResult:
    """A run of one preset: its parameters and one result per cell."""

    experiment: str
    params: Dict[str, Any]
    cells: List[CellResult]

    def cell(self, **attrs: object) -> CellResult:
        """The first cell whose :class:`Cell` fields match ``attrs``."""
        for result in self.cells:
            if all(getattr(result.cell, k) == v for k, v in attrs.items()):
                return result
        raise KeyError(f"no cell with {attrs}")

    def sweep_digest(self) -> str:
        """Digest over every fault decision of the whole sweep."""
        hasher = hashlib.sha256()
        for result in self.cells:
            for digest in result.schedule_digests:
                hasher.update(digest.encode("ascii"))
        return hasher.hexdigest()

    def render(self) -> str:
        preset = PRESETS[self.experiment]
        return preset.title.format(**self.params) + "\n" + preset.body(self)


def _last_route_trace(kernel) -> Optional[str]:
    """The last router.route span's trace (it closed as the error unwound)."""
    for span in reversed(kernel.obs.tracer.spans):
        if span.name == "router.route":
            return span.trace_id
    return None


def _run_world(out: CellResult, rep: int, seed: int,
               recipe: Optional[Dict[str, Any]],
               postmortem_dir: Optional[pathlib.Path]) -> None:
    """One repetition of ``out.cell`` in a fresh world; a ``recipe``
    turns postmortem collection on."""
    cell = out.cell
    label = cell.world.format(rep=rep)
    kernel = make_world(seed=_derive_seed(seed, label), observe=True).kernel
    collector = burn = None
    if recipe is not None:
        obs.install_flight(kernel)
        collector = PostmortemCollector(
            kernel, seed=seed, label=label,
            recipe={**recipe, "world": label, "rep": rep},
            out_dir=postmortem_dir, max_bundles=MAX_BUNDLES_PER_WORLD)
    if cell.slo_window_ms is not None:
        obs.enable_timeseries(kernel, window_ms=cell.slo_window_ms)
        burn = obs.enable_burn_check(kernel, window_ms=cell.slo_window_ms)
        if collector is not None:
            burn.subscribe(collector.on_breach)
    platform = FaaSPlatform(kernel, PlatformConfig(
        nodes=cell.nodes, storage_nodes=cell.storage_nodes,
        replication_factor=cell.replication_factor))
    platform.register_function(lambda: make_app(cell.function),
                               start_technique=cell.technique,
                               idle_timeout_ms=cell.idle_timeout_ms)
    # One injector lives across all phases, so the schedule digest
    # covers the whole world; a phase boundary swaps the plan.
    injector = platform.install_faults(cell.phases[0].plan)
    with bound_trace_provider(kernel.obs.tracer.current_trace_id):
        try:
            for index, phase in enumerate(cell.phases):
                start_ms = kernel.clock.now
                injector.plan = phase.plan
                victim = None
                if phase.kill_ms is not None:
                    victim = f"store-{rep % cell.storage_nodes}"
                    platform.shard_store.fail_node(victim, phase.kill_ms)
                if index:
                    _log.info("fault_sweep.phase", world=label, phase=index,
                              plan=phase.plan.describe(),
                              kill=victim or "none", at_ms=round(start_ms, 3))
                for _ in range(phase.requests):
                    out.requests += 1
                    try:
                        platform.invoke(cell.function)
                        out.successes += 1
                    except PlatformError as exc:
                        if collector is not None:
                            collector.on_error(
                                exc, trace_id=_last_route_trace(kernel))
                    kernel.clock.advance(cell.think_ms)
                    platform.gc_tick()
                out.phase_bounds_ms.append((start_ms, kernel.clock.now))
        finally:
            if burn is not None:
                burn.flush()
            faults.uninstall(kernel)
    # Tracer self-check: every request — including those whose error
    # unwound through the fault machinery — must leave no span open.
    leaked = kernel.obs.tracer.open_spans()
    if leaked:
        raise obs.SpanError(f"span leak in world {label}: "
                            + ", ".join(s.name for s in leaked))
    metrics = kernel.obs.metrics
    out.cold_waits_ms.extend(platform.cold_start_latencies(cell.function))
    out.faults_fired += injector.fired_count()
    for column, names in COUNTERS.items():
        out.counts[column] += int(sum(metrics.value(n) for n in names))
    out.schedule_digests.append(injector.schedule_digest())
    if burn is not None:
        out.breaches.extend(burn.breaches)
    if collector is not None:
        out.bundles.extend(collector.bundles)
        out.bundle_paths.extend(collector.paths)
        out.flight_events.extend(
            e.as_dict() for e in kernel.obs.flight.events())


def sweep(experiment: str, params: Dict[str, Any], cells: Sequence[Cell],
          reps: Iterable[int], postmortem_dir: Optional[pathlib.Path] = None,
          collect: bool = False) -> SweepResult:
    """The one repetition loop: a fresh world per cell x repetition.
    ``params`` go into each bundle's replay recipe; ``collect`` or a
    ``postmortem_dir`` turns postmortem collection on."""
    reps = list(reps)
    out_dir = pathlib.Path(postmortem_dir) if postmortem_dir else None
    recipe = None
    if collect or out_dir is not None:
        recipe = {"experiment": experiment, **params}
    results = []
    for cell in cells:
        result = CellResult(cell)
        for rep in reps:
            _run_world(result, rep, params["seed"], recipe, out_dir)
        results.append(result)
    return SweepResult(experiment, dict(params), results)


# -- presets ------------------------------------------------------------------


def _chaos_cells(function, fault_rates, requests_per_rep, think_ms,
                 **_) -> List[Cell]:
    return [
        Cell(function, technique, rate,
             world=f"chaos-{technique}-{rate}-{{rep}}",
             phases=(Phase(requests_per_rep, knob_plan(
                 rate, CHAOS_SCALE, {faults.RESTORE_HANG: CHAOS_HANG_MS})),),
             think_ms=think_ms)
        for rate in fault_rates for technique in ("vanilla", "prebake")
    ]


def _shard_chaos_cells(function, replication_factors, fault_rates,
                       storage_nodes, requests_per_rep, think_ms,
                       node_down_ms, **_) -> List[Cell]:
    cells = []
    for rf in replication_factors:
        if rf > storage_nodes:
            continue  # cannot place more replicas than nodes
        for rate in fault_rates:
            plan = knob_plan(rate, SHARD_SCALE,
                             {faults.STORE_NODE_DOWN: node_down_ms})
            half = requests_per_rep // 2
            # At pressure > 0 one storage node dies mid-window.
            phases = ((Phase(half, plan),
                       Phase(requests_per_rep - half, plan,
                             kill_ms=node_down_ms))
                      if rate > 0.0 else (Phase(requests_per_rep, plan),))
            cells.append(Cell(
                function, "prebake", rate,
                world=f"shard-chaos-rf{rf}-{rate}-{{rep}}", phases=phases,
                storage_nodes=storage_nodes, replication_factor=rf,
                # Idle out before the next request: every one cold-starts.
                idle_timeout_ms=think_ms / 2, think_ms=think_ms))
    return cells


def _incident_cells(function, technique, warmup_requests, fault_requests,
                    cooldown_requests, fault_site, fault_rate, think_ms,
                    idle_timeout_ms, window_ms, **_) -> List[Cell]:
    clean = FaultPlan()
    armed = knob_plan(fault_rate, {fault_site: 1.0})
    return [Cell(function, technique, fault_rate, world="incident",
                 phases=(Phase(warmup_requests, clean),
                         Phase(fault_requests, armed),
                         Phase(cooldown_requests, clean)),
                 idle_timeout_ms=idle_timeout_ms, think_ms=think_ms,
                 slo_window_ms=window_ms)]


def _success(r: CellResult) -> str:
    return f"{100.0 * r.success_rate:.1f}%"


def _chaos_body(result: SweepResult) -> str:
    counters = ["fallback", "retry", "quarantine", "crash-retry", "reaped"]
    rows = [[f"{r.cell.rate:.2f}", r.cell.technique, f"{r.cold_p50():.2f}",
             f"{r.cold_p99():.2f}", _success(r), r.faults_fired,
             *(r.counts[c] for c in counters)] for r in result.cells]
    return (format_table(["rate", "technique", "cold p50 ms", "cold p99 ms",
                          "success", "faults", *counters], rows)
            + f"\nfault schedule digest: {result.sweep_digest()}")


def _shard_chaos_body(result: SweepResult) -> str:
    counters = ["degraded", "fallback", "hops", "breaker"]

    def clean_p99(rf: int) -> float:  # the RF's lowest-pressure cell
        return min((r for r in result.cells
                    if r.cell.replication_factor == rf),
                   key=lambda r: r.cell.rate).cold_p99()

    rows = []
    for r in result.cells:
        clean = clean_p99(r.cell.replication_factor)
        rows.append([r.cell.replication_factor, f"{r.cell.rate:.2f}",
                     r.requests, _success(r), f"{r.cold_p50():.2f}",
                     f"{r.cold_p99():.2f}",
                     f"{(r.cold_p99() / clean) if clean else 0.0:.2f}x",
                     *(r.counts[c] for c in counters)])
    failed = sum(r.failed for r in result.cells
                 if r.cell.replication_factor >= 2)
    return (format_table(["rf", "rate", "req", "success", "cold p50 ms",
                          "cold p99 ms", "p99 vs clean", *counters], rows)
            + f"\nRF>=2 failed requests: {failed}"
            + f"\nfault schedule digest: {result.sweep_digest()}")


def _incident_body(result: SweepResult) -> str:
    run = result.cells[0]
    start, end = run.phase_bounds_ms[1]  # the armed phase
    lines = [f"requests={run.requests} errors={run.failed} "
             f"faults_fired={run.faults_fired} "
             f"fault_window=[{start:.1f}, {end:.1f}) ms"]
    if run.breaches:
        lines.append(format_table(
            ["slo breached", "window", "bad fraction", "burn"],
            [[b.slo, f"[{b.window_start_ms:.0f}, {b.window_end_ms:.0f})",
              f"{b.bad_fraction:.3f}", f"{b.burn_rate:.2f}"]
             for b in run.breaches]))
    else:
        lines.append("no SLO breached")
    lines.append(f"postmortem bundles sealed: {len(run.bundles)}")
    lines.append(f"fault schedule digest: {run.schedule_digests[0]}")
    return "\n".join(lines)


@dataclass(frozen=True)
class Preset:
    """A named sweep: default parameters, the cells they expand to, and
    the report (``title`` is formatted with the parameters). ``collect``
    keeps postmortem collection always on."""

    defaults: Dict[str, Any]
    cells: Callable[..., List[Cell]]
    title: str
    body: Callable[[SweepResult], str]
    collect: bool = False


PRESETS: Dict[str, Preset] = {
    "chaos": Preset(
        dict(function="markdown", fault_rates=(0.0, 0.25, 1.0),
             repetitions=20, requests_per_rep=4, seed=42, think_ms=100.0),
        _chaos_cells,
        "Chaos recovery — {function}, {repetitions} reps x "
        "{requests_per_rep} requests, seed {seed}",
        _chaos_body),
    "shard-chaos": Preset(
        dict(function="markdown", replication_factors=(1, 2, 3),
             fault_rates=(0.0, 0.5), storage_nodes=5, repetitions=6,
             requests_per_rep=6, seed=42, think_ms=100.0,
             node_down_ms=1_500.0),
        _shard_chaos_cells,
        "Shard chaos — {function}, {storage_nodes} storage nodes, "
        "{repetitions} reps x {requests_per_rep} requests, seed {seed}",
        _shard_chaos_body),
    # One long-lived world (no ``repetitions``: each would be the same).
    "incident": Preset(
        dict(function="markdown", technique="prebake", seed=42,
             warmup_requests=12, fault_requests=4,
             cooldown_requests=2, fault_site=faults.RESTORE_FAIL,
             fault_rate=1.0, think_ms=100.0,
             idle_timeout_ms=50.0, window_ms=500.0),
        _incident_cells,
        "Incident run — {function} ({technique}), seed {seed}: "
        "{warmup_requests} warmup + {fault_requests} faulted "
        "({fault_site}@{fault_rate:g}) + {cooldown_requests} cooldown",
        _incident_body, collect=True),
}


def _preset(experiment: Any) -> Preset:
    if experiment not in PRESETS:
        raise ValueError(f"unknown fault-sweep experiment {experiment!r}; "
                         f"known: {sorted(PRESETS)}")
    return PRESETS[experiment]


def run(experiment: str, postmortem_dir: Optional[pathlib.Path] = None,
        **overrides: object) -> SweepResult:
    """Run a preset with ``overrides`` applied to its defaults, sealing
    postmortem bundles into ``postmortem_dir`` when given."""
    preset = _preset(experiment)
    unknown = set(overrides) - set(preset.defaults)
    if unknown:
        raise TypeError(f"{experiment} takes no parameter(s) "
                        f"{sorted(unknown)}")
    params = {**preset.defaults, **overrides}
    return sweep(experiment, params, preset.cells(**params),
                 range(params.get("repetitions", 1)),
                 postmortem_dir=postmortem_dir, collect=preset.collect)


def replay_recipe(recipe: Dict[str, Any]) -> CellResult:
    """Re-run the one world a bundle's recipe names (its preset,
    parameters, world and repetition; provenance keys such as
    ``fault_schedule_digest`` are ignored) and return that world alone,
    not a sweep report. Determinism makes the rerun's digest, breaches
    and bundles the original world's."""
    experiment = recipe.get("experiment")
    preset = _preset(experiment)
    params = {**preset.defaults,
              **{k: recipe[k] for k in preset.defaults if k in recipe}}
    rep = int(recipe["rep"])
    cells = [c for c in preset.cells(**params)
             if c.world.format(rep=rep) == recipe["world"]]
    if not cells:
        raise ValueError(f"no {experiment} cell runs world "
                         f"{recipe['world']!r}")
    return sweep(str(experiment), params, cells, [rep],
                 collect=True).cells[0]
