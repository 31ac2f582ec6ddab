"""X13 — predictive prewarming study: the keep-alive policy ladder.

The paper removes cold-start *cost* (prebaking makes a cold start
cheap); ROADMAP item 2's open remainder is removing cold-start
*frequency*: decide ahead of demand which functions to keep or make
warm. This study sweeps the policy ladder from
:mod:`repro.predict` over one production-shaped trace and reports the
two axes every policy trades between — cold starts suffered and
wasted warm-seconds held:

* **reactive** — no keep-alive at all: the zero-waste / max-cold
  corner;
* **fixed** — the classic fixed idle timeout (the platform status
  quo, and the baseline the acceptance criteria compare against);
* **histogram** — the platform's own planner,
  :class:`~repro.predict.policy.PrewarmController` running the
  Serverless-in-the-Wild-style hybrid: a per-function inter-arrival
  histogram chooses the keep-alive, an EWMA of window counts sizes
  the warm set, and long *predictable* gaps get a just-in-time timer
  placement instead of an unaffordable timeout;
* **oracle** — the same controller with a policy that reads
  next-window counts straight off the trace: the clairvoyant bound on
  what any forecast could achieve.

Reactive and fixed run without a controller, as a platform with
``PlatformConfig(prewarm=None)`` does. The study keeps only the
trace, the replica pools and the pricing; every prewarm decision is
the controller's, one ``plan`` per forecast window.

Every rung replays the same trace of a repetition, so the reps are
paired seeds. The verdict "histogram beats fixed" is read from the
per-seed differences (histogram minus fixed) of cold starts, cold p99
and wasted warm-seconds: each axis's bootstrap CI of the median
difference must lie below zero (waste may touch it).

The trace composes the X12 fleet synthesizer (Zipf popularity,
interrupted-Poisson bursts, diurnal thinning) with a class of
**timer/cron functions**: strictly periodic triggers (with jitter)
whose periods dwarf any keep-alive — the dominant cold-start class in
production FaaS traces, and the one a histogram turns from "cold
every single time" into "warm for a few seconds of idle cost".
Timer functions deliberately carry the largest images, so covering
them moves the cold-start *tail*, not just the rate.

Cold-start latency uses the calibrated CostModel decomposition (the
same clone/spawn/restore prices as X12) against the platform's
:class:`~repro.criu.chunkcache.HotChunkCache` (LRU, one entry per
image) that predictive policies *prefetch* into, so a
predicted-then-realized cold start fetches from local cache instead
of the registry.

One *real* platform episode (FaaSPlatform with ``PrewarmConfig``
installed) rides along as the exemplar: its controller stats prove
the live wiring (forecast → autoscaler prewarm → deployer prefetch)
fires outside the simulator too.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import make_world
from repro.bench.report import format_table
from repro.bench.stats import bootstrap_median_ci
from repro.bench.traces import synthesize_fleet_workload
from repro.criu.chunkcache import LRU, HotChunkCache
from repro.faas.platform import FaaSPlatform, PlatformConfig
from repro.functions.base import make_app
from repro.predict.policy import (
    OraclePolicy,
    PrewarmConfig,
    PrewarmController,
    idle_expiry_ms,
)
from repro.sim.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.sim.rng import _derive_seed

MIB = 1024 * 1024

POLICY_LADDER = ("reactive", "fixed", "histogram", "oracle")

#: Paired seeds behind the sealed verdict (the baseline's repetitions).
PAIRED_SEEDS = 10

#: The verdict's axes: outcome field, and whether a CI ending exactly
#: at zero still passes (wasted warm-seconds may tie; cold starts and
#: cold p99 must drop).
VERDICT_AXES = (("cold_starts", False), ("cold_p99_ms", False),
                ("wasted_warm_s", True))


#: The planner the histogram and oracle rungs run: the platform's
#: :class:`PrewarmController` with X13's window, service time,
#: keep-alive range, per-window placement budget and replica cap.
#: Per-function keep-alives may exceed the fixed status quo where the
#: histogram says the coverage pays (Serverless-in-the-Wild caps at
#: several multiples of the default for the same reason).
STUDY_PREWARM = PrewarmConfig(
    window_ms=10_000.0, service_ms_hint=150.0,
    keepalive_floor_ms=1_000.0, keepalive_cap_ms=120_000.0,
    max_prewarm_per_tick=16, max_warm_per_function=8)

#: The fixed rung's idle timeout: the platform's status quo, and the
#: keep-alive of a function the planner has not seen arrive yet.
FIXED_KEEPALIVE_MS = 60_000.0

#: Image-prefetch cache per node.
NODE_CACHE_MIB = 768


@dataclass(frozen=True)
class PrewarmStudyConfig:
    """Shape of one X13 run (defaults = the sealed baseline)."""

    functions: int = 36               # Zipf/bursty/Poisson population
    timer_functions: int = 12         # periodic cron-style triggers
    requests: int = 200_000
    duration_ms: float = 7_200_000.0  # 2 simulated hours

    @property
    def total_functions(self) -> int:
        return self.functions + self.timer_functions


@dataclass
class PolicyOutcome:
    """One policy's two-axis score on one trace repetition."""

    policy: str
    requests: int = 0
    cold_starts: int = 0
    warm_starts: int = 0
    queued: int = 0
    cold_p50_ms: float = 0.0
    cold_p99_ms: float = 0.0
    cold_mean_ms: float = 0.0
    wasted_warm_s: float = 0.0
    timer_cold_starts: int = 0
    timer_wasted_warm_s: float = 0.0
    prewarm_placements: int = 0
    prefetch_mib: float = 0.0
    cold_cache_hits: int = 0

    @property
    def cold_start_rate(self) -> float:
        return self.cold_starts / self.requests if self.requests else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {**asdict(self), "cold_start_rate": self.cold_start_rate}


@dataclass
class PrewarmRepResult:
    """The policy ladder's outcomes on one repetition's trace."""

    rep: int
    seed: int
    outcomes: Dict[str, PolicyOutcome] = field(default_factory=dict)

    @property
    def oracle_bounds_gap(self) -> bool:
        """The oracle never does worse than the histogram policy."""
        return (self.outcomes["oracle"].cold_start_rate
                <= self.outcomes["histogram"].cold_start_rate)


def paired_verdict(reps: List[PrewarmRepResult]) -> Dict[str, object]:
    """Does the histogram policy beat fixed keep-alive across the reps'
    paired seeds?

    Per :data:`VERDICT_AXES`, the per-seed differences histogram −
    fixed get a 95 % bootstrap CI of their median. ``beats`` holds
    when every axis's CI lies below zero (or ends at zero where the
    axis allows a tie). One seed forms no CI, so it never beats.
    """
    verdict: Dict[str, object] = {"seeds": len(reps)}
    beats = len(reps) >= 2
    for axis, tie_ok in VERDICT_AXES:
        if len(reps) < 2:
            verdict[axis] = None
            continue
        diffs = [float(getattr(r.outcomes["histogram"], axis)
                       - getattr(r.outcomes["fixed"], axis)) for r in reps]
        ci = bootstrap_median_ci(diffs, seed=0)
        verdict[axis] = {"median": ci.point, "ci_low": ci.low,
                         "ci_high": ci.high}
        beats = beats and (ci.high <= 0.0 if tie_ok else ci.high < 0.0)
    verdict["beats"] = beats
    return verdict


@dataclass
class PrewarmStudyResult:
    """The X13 report: the ladder per rep + the live-platform exemplar."""

    config: PrewarmStudyConfig
    seed: int
    reps: List[PrewarmRepResult] = field(default_factory=list)
    exemplar: Dict[str, object] = field(default_factory=dict)

    @property
    def headline(self) -> PrewarmRepResult:
        return self.reps[0]

    def as_dict(self) -> Dict[str, object]:
        return {
            "experiment": "prewarm-study",
            "seed": self.seed,
            "config": {
                "functions": self.config.functions,
                "timer_functions": self.config.timer_functions,
                "requests": self.config.requests,
                "duration_ms": self.config.duration_ms,
                "window_ms": STUDY_PREWARM.window_ms,
                "fixed_keepalive_ms": FIXED_KEEPALIVE_MS,
                "node_cache_mib": NODE_CACHE_MIB,
            },
            "reps": [
                {
                    "rep": r.rep,
                    "seed": r.seed,
                    "oracle_bounds_gap": r.oracle_bounds_gap,
                    "policies": {name: o.as_dict()
                                 for name, o in r.outcomes.items()},
                }
                for r in self.reps
            ],
            "verdict": paired_verdict(self.reps),
            "exemplar": self.exemplar,
        }

    def render(self) -> str:
        return render_prewarm_report(self.as_dict())


# ---------------------------------------------------------------------------
# Trace synthesis: fleet workload + the timer/cron overlay
# ---------------------------------------------------------------------------


def _synthesize_prewarm_trace(config: PrewarmStudyConfig,
                              seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Merged (times, fids): fleet trace + periodic timer arrivals.

    Each main function is interrupted-Poisson bursty with probability 0.3
    (30 s on, 120 s off on average). Timer periods (150–420 s, 3 %
    jitter) are far beyond any keep-alive.
    """
    times, fids = synthesize_fleet_workload(
        function_count=config.functions,
        duration_ms=config.duration_ms,
        requests=config.requests,
        bursty_fraction=0.3,
        mean_on_ms=30_000.0,
        mean_off_ms=120_000.0,
        seed=_derive_seed(seed, "prewarm-trace"))
    rng = np.random.Generator(np.random.PCG64(
        _derive_seed(seed, "prewarm-timers")))
    timer_times: List[float] = []
    timer_fids: List[int] = []
    for i in range(config.timer_functions):
        fid = config.functions + i
        period = rng.uniform(150_000.0, 420_000.0)
        t = rng.uniform(0.0, period)
        while t < config.duration_ms:
            timer_times.append(t)
            timer_fids.append(fid)
            gap = period * (1.0 + 0.03 * rng.standard_normal())
            t += max(gap, 0.5 * period)
    all_times = np.concatenate([
        times, np.asarray(timer_times, dtype=np.float64)])
    all_fids = np.concatenate([
        fids.astype(np.int64),
        np.asarray(timer_fids, dtype=np.int64)])
    order = np.argsort(all_times, kind="stable")
    return all_times[order], all_fids[order]


def _image_sizes(config: PrewarmStudyConfig, seed: int) -> np.ndarray:
    """Image MiB per function: 16–64 for the main population, 96–160
    for timers, which carry the big batch images, so covering their
    cold starts moves the tail of the cold-latency distribution."""
    setup = np.random.Generator(np.random.PCG64(
        _derive_seed(seed, "prewarm-images")))
    sizes = np.empty(config.total_functions, dtype=np.float64)
    sizes[:config.functions] = setup.integers(16, 64, size=config.functions)
    sizes[config.functions:] = setup.integers(
        96, 160, size=config.timer_functions)
    return sizes


# ---------------------------------------------------------------------------
# The per-policy simulator
# ---------------------------------------------------------------------------


class _PolicySim:
    """One chronological sweep of the trace under one rung.

    Without a ``controller`` (reactive, fixed) every idle replica is
    kept ``idle_timeout_ms``. With one, arrivals feed ``note_arrival``,
    and each window tick runs the GC, ``plan``, the placements and one
    image prefetch per action, then re-reads the keep-alives
    (``idle_timeout_ms`` for a function the controller has not seen).

    Replicas are ``[ready_ms, busy_until_ms, idle_from_ms]`` rows in
    per-function pools. Expiry is lazy (evaluated at arrivals, window
    ticks, and the final flush) but exact: an idle replica expires at
    :func:`~repro.predict.policy.idle_expiry_ms` of when it went idle,
    so wasted warm-time never depends on when the sweep notices it.
    """

    def __init__(self, name: str, config: PrewarmStudyConfig,
                 controller: Optional[PrewarmController],
                 idle_timeout_ms: float, image_mib: np.ndarray,
                 costs: CostModel, seed: int) -> None:
        self.c = config
        self.controller = controller
        self.idle_timeout_ms = idle_timeout_ms
        self.costs = costs
        self.image_mib = image_mib
        self.rng = np.random.Generator(np.random.PCG64(seed))
        # The service-time hint is exact in the study.
        self.service_ms = STUDY_PREWARM.service_ms_hint
        self.max_replicas = STUDY_PREWARM.max_warm_per_function
        n = config.total_functions
        self.pools: List[List[List[float]]] = [[] for _ in range(n)]
        self.ka: List[float] = [idle_timeout_ms] * n
        self.hold_end_ms: Callable[[int], float] = (
            controller.hold_end_ms if controller is not None
            else lambda fid: -math.inf)
        self.boundary = (STUDY_PREWARM.window_ms if controller is not None
                         else math.inf)
        self.wasted_ms = np.zeros(n, dtype=np.float64)
        self.cache = HotChunkCache(
            capacity_bytes=NODE_CACHE_MIB * MIB, policy=LRU)
        self.cold_lats: List[float] = []
        self.outcome = PolicyOutcome(policy=name)

    # -- replica lifecycle ---------------------------------------------------

    def _expire(self, fid: int, t: float) -> None:
        pool = self.pools[fid]
        if not pool:
            return
        hold_end = self.hold_end_ms(fid)
        if hold_end > t:
            return  # idle_expiry_ms is never before the hold ends
        # With the hold over, idle_expiry_ms(idle, ka, hold_end) <= t
        # exactly when idle + ka <= t: only the expired pay for the call.
        ka = self.ka[fid]
        keep: List[List[float]] = []
        for r in pool:
            if r[1] <= t and r[2] + ka <= t:
                expire_at = idle_expiry_ms(r[2], ka, hold_end)
                self.wasted_ms[fid] += max(0.0, expire_at - r[2])
            else:
                keep.append(r)                # busy, provisioning or kept
        pool[:] = keep

    def _cold_latency(self, fid: int, prefetch: bool = False) -> float:
        """Calibrated provision latency against the node image cache."""
        costs = self.costs
        mib = float(self.image_mib[fid])
        hit = self.cache.lookup(str(fid), int(mib) * MIB)
        if prefetch and not hit:
            self.outcome.prefetch_mib += mib
        full = costs.restore_cost(mib)
        base = min(costs.restore_base_ms, full)
        plan = costs.plan_restore_pipeline(
            full - base, cached_fraction=1.0 if hit else 0.0)
        restore_ms = base + plan.total_ms
        factor = math.exp(costs.noise_sigma * self.rng.standard_normal())
        return (costs.clone_ms + costs.criu_spawn_ms + restore_ms) * factor, hit

    def _place(self, fid: int, t: float) -> None:
        """Pre-provision one replica (prefetching its image first)."""
        latency, _ = self._cold_latency(fid, prefetch=True)
        ready = t + latency
        self.pools[fid].append([ready, ready, ready])
        self.outcome.prewarm_placements += 1

    # -- forecast-window tick ------------------------------------------------

    def _tick(self, boundary: float) -> None:
        controller = self.controller
        assert controller is not None
        n = self.c.total_functions
        for fid in range(n):
            self._expire(fid, boundary)
        if isinstance(controller.policy, OraclePolicy):
            controller.policy.now_ms = boundary
        live = {fid: len(pool) for fid, pool in enumerate(self.pools)}
        for action in controller.plan(boundary, live):
            fid = action.function
            for _ in range(action.add_replicas):
                self._place(fid, boundary)
            self.cache.prefetch(str(fid), int(self.image_mib[fid]) * MIB)
        self.ka = [controller.keepalive_ms(fid, self.idle_timeout_ms)
                   for fid in range(n)]

    # -- arrivals ------------------------------------------------------------

    def _tick_until(self, t: float) -> None:
        while self.boundary <= t:
            self._tick(self.boundary)
            self.boundary += STUDY_PREWARM.window_ms

    def _arrival(self, t: float, fid: int) -> None:
        self._tick_until(t)
        self._expire(fid, t)
        pool = self.pools[fid]
        best: Optional[List[float]] = None
        for r in pool:
            if r[1] <= t and (best is None or r[2] > best[2]):
                best = r                      # LIFO: most recently idle
        if best is not None:
            self.wasted_ms[fid] += max(0.0, t - best[2])
            best[1] = t + self.service_ms
            best[2] = best[1]
            self.outcome.warm_starts += 1
        elif len(pool) < self.max_replicas:
            latency, cached = self._cold_latency(fid)
            self.cold_lats.append(latency)
            busy = t + latency + self.service_ms
            pool.append([t, busy, busy])
            self.outcome.cold_starts += 1
            if cached:
                self.outcome.cold_cache_hits += 1
            if fid >= self.c.functions:
                self.outcome.timer_cold_starts += 1
        else:
            replica = min(pool, key=lambda r: r[1])
            replica[1] += self.service_ms
            replica[2] = replica[1]
            self.outcome.queued += 1
        if self.controller is not None:
            self.controller.note_arrival(fid, t)

    # -- the sweep -----------------------------------------------------------

    def run(self, times: np.ndarray, fids: np.ndarray) -> PolicyOutcome:
        c = self.c
        for t, fid in zip(times.tolist(), fids.tolist()):
            self._arrival(t, fid)
        self._tick_until(c.duration_ms)
        self._flush(c.duration_ms)

        out = self.outcome
        out.requests = int(times.size)
        if self.cold_lats:
            lats = np.asarray(self.cold_lats)
            out.cold_p50_ms = float(np.quantile(lats, 0.5))
            out.cold_p99_ms = float(np.quantile(lats, 0.99))
            out.cold_mean_ms = float(lats.mean())
        out.wasted_warm_s = float(self.wasted_ms.sum()) / 1000.0
        out.timer_wasted_warm_s = \
            float(self.wasted_ms[c.functions:].sum()) / 1000.0
        return out

    def _flush(self, end_ms: float) -> None:
        """Close out idle time still accruing when the trace ends."""
        for fid, pool in enumerate(self.pools):
            ka = self.ka[fid]
            hold_end = self.hold_end_ms(fid)
            for r in pool:
                idle_from = r[2]
                if idle_from >= end_ms:
                    continue
                expire_at = idle_expiry_ms(idle_from, ka, hold_end)
                self.wasted_ms[fid] += max(
                    0.0, min(expire_at, end_ms) - idle_from)


# ---------------------------------------------------------------------------
# The study
# ---------------------------------------------------------------------------


def _window_counts(config: PrewarmStudyConfig, times: np.ndarray,
                   fids: np.ndarray) -> Dict[int, List[float]]:
    """Per-function window count vectors for the oracle."""
    window_ms = STUDY_PREWARM.window_ms
    nwin = int(math.ceil(config.duration_ms / window_ms))
    windows = np.minimum((times / window_ms).astype(np.int64), nwin - 1)
    flat = np.bincount(fids * nwin + windows,
                       minlength=config.total_functions * nwin)
    matrix = flat.reshape(config.total_functions, nwin)
    return {fid: matrix[fid].astype(float).tolist()
            for fid in range(config.total_functions)}


def _run_repetition(config: PrewarmStudyConfig, seed: int,
                    rep: int) -> PrewarmRepResult:
    rep_seed = _derive_seed(seed, f"prewarm-{rep}")
    times, fids = _synthesize_prewarm_trace(config, rep_seed)
    image_mib = _image_sizes(config, rep_seed)
    # The clairvoyant bound staffs generously: it knows the next
    # window's exact count and never pays for a wrong forecast, so a
    # wide overlap margin only tightens the bound.
    oracle = OraclePolicy(_window_counts(config, times, fids),
                          window_ms=STUDY_PREWARM.window_ms,
                          service_ms=STUDY_PREWARM.service_ms_hint,
                          safety=4.0)
    # Each rung's planner (None: no prewarm layer) and idle timeout.
    rungs = {
        "reactive": (None, 0.0),
        "fixed": (None, FIXED_KEEPALIVE_MS),
        "histogram": (PrewarmController(STUDY_PREWARM), FIXED_KEEPALIVE_MS),
        "oracle": (PrewarmController(STUDY_PREWARM, policy=oracle),
                   FIXED_KEEPALIVE_MS),
    }
    result = PrewarmRepResult(rep=rep, seed=rep_seed)
    for name in POLICY_LADDER:
        controller, idle_timeout_ms = rungs[name]
        sim = _PolicySim(name, config, controller, idle_timeout_ms,
                         image_mib, DEFAULT_COST_MODEL,
                         seed=_derive_seed(rep_seed, f"latency-{name}"))
        result.outcomes[name] = sim.run(times, fids)
    return result


def _platform_exemplar(seed: int) -> Dict[str, object]:
    """One live platform episode with the prewarm layer installed.

    A short, dense markdown arrival stream with a deliberately large
    service-time hint, so the forecast target exceeds the serving
    replica count and the controller's whole pipeline fires: windows
    fed -> plan -> autoscaler prewarm provisioning -> deployer chunk
    prefetch into the node HotChunkCache.
    """
    world = make_world(seed=_derive_seed(seed, "prewarm-exemplar"),
                       observe=True)
    kernel = world.kernel
    platform = FaaSPlatform(kernel, PlatformConfig(prewarm=PrewarmConfig(
        window_ms=200.0, service_ms_hint=500.0)))
    platform.register_function(lambda: make_app("markdown"),
                               start_technique="prebake",
                               cache_policy="freq-over-size")
    for _ in range(60):
        platform.invoke("markdown")
        kernel.clock.advance(40.0)
        platform.gc_tick()
    stats = platform.prewarm.stats
    metrics = kernel.obs.metrics
    return {
        "plans": stats.plans,
        "windows_fed": stats.windows_fed,
        "prewarm_replicas": stats.prewarm_replicas,
        "prefetch_requests": stats.prefetch_requests,
        "autoscaler_prewarm_events": int(metrics.value(
            "autoscaler_actions_total", {"action": "prewarm"})),
        "wasted_warm_ms": metrics.value("autoscaler_wasted_warm_ms_total"),
    }


def prewarm_study(repetitions: int = 1, seed: int = 42,
                  requests: int = 200_000,
                  functions: int = 36, timer_functions: int = 12,
                  duration_ms: float = 7_200_000.0) -> PrewarmStudyResult:
    """Run X13: the policy ladder over ``repetitions`` fleet traces."""
    config = PrewarmStudyConfig(
        functions=functions, timer_functions=timer_functions,
        requests=requests, duration_ms=duration_ms)
    result = PrewarmStudyResult(config=config, seed=seed)
    for rep in range(repetitions):
        result.reps.append(_run_repetition(config, seed, rep))
    result.exemplar = _platform_exemplar(seed)
    return result


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _verdict_lines(artifact: Dict[str, object]) -> List[str]:
    """The two greppable verdict lines, over all paired seeds."""
    verdict = artifact["verdict"]
    seeds = verdict["seeds"]
    if seeds < 2:
        detail = f"{seeds} seed: a paired CI needs at least 2"
    else:
        cold, p99, waste = (verdict[axis] for axis, _ in VERDICT_AXES)
        detail = (
            f"histogram - fixed over {seeds} paired seeds, "
            f"median [95% CI]: "
            f"cold {cold['median']:.1f} "
            f"[{cold['ci_low']:.1f}, {cold['ci_high']:.1f}], "
            f"p99 {p99['median']:.2f} "
            f"[{p99['ci_low']:.2f}, {p99['ci_high']:.2f}] ms, "
            f"waste {waste['median']:.0f} "
            f"[{waste['ci_low']:.0f}, {waste['ci_high']:.0f}] s")
    bounded = sum(1 for rep in artifact["reps"] if rep["oracle_bounds_gap"])
    return [
        f"predictive beats fixed keep-alive: "
        f"{'yes' if verdict['beats'] else 'NO'} ({detail})",
        f"oracle bounds the gap: {'yes' if bounded == seeds else 'NO'} "
        f"(oracle cold rate <= histogram on {bounded} of {seeds} seeds)",
    ]


def render_prewarm_report(artifact: Dict[str, object]) -> str:
    """Human-readable X13 report (the CI smoke greps its verdict lines)."""
    lines: List[str] = []
    config = artifact.get("config", {})
    lines.append("X13 — predictive prewarming study")
    lines.append(
        f"functions: {config.get('functions')} "
        f"(+{config.get('timer_functions')} timer)  "
        f"requests: {config.get('requests')}  "
        f"window: {config.get('window_ms')} ms  "
        f"fixed keep-alive: {config.get('fixed_keepalive_ms')} ms")
    for rep in artifact.get("reps", []):  # type: ignore[union-attr]
        lines.append("")
        lines.append(f"rep {rep['rep']}:")
        rows = []
        for name in POLICY_LADDER:
            o = rep["policies"].get(name)
            if not o:
                continue
            rows.append([
                name,
                o["cold_starts"],
                f"{100.0 * o['cold_start_rate']:.2f}%",
                f"{o['cold_p50_ms']:.1f}",
                f"{o['cold_p99_ms']:.1f}",
                f"{o['wasted_warm_s']:.0f}",
                o["timer_cold_starts"],
                o["prewarm_placements"],
            ])
        lines.append(format_table(
            ["policy", "cold", "cold-rate", "p50(ms)", "p99(ms)",
             "waste(s)", "timer-cold", "prewarmed"], rows))
    lines.append("")
    lines.extend(_verdict_lines(artifact))
    exemplar = artifact.get("exemplar", {})
    if exemplar:
        lines.append("")
        lines.append(
            "live platform exemplar: "
            f"{exemplar.get('prewarm_replicas', 0)} prewarmed replicas, "
            f"{exemplar.get('prefetch_requests', 0)} prefetch requests, "
            f"{exemplar.get('windows_fed', 0)} forecast windows fed")
    return "\n".join(lines)
