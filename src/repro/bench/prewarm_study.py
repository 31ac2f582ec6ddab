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
* **histogram** — Serverless-in-the-Wild-style hybrid: per-function
  inter-arrival histogram chooses the keep-alive, an EWMA of window
  counts sizes the warm set, and long *predictable* gaps get a
  just-in-time prewarm schedule instead of an unaffordable timeout;
* **learned** — same skeleton, but next-window counts come from the
  numpy-only attention forecaster, which tracks burst edges faster
  than a decayed average;
* **oracle** — reads next-window counts straight off the trace: the
  clairvoyant bound on what any forecast could achieve.

The trace composes the X12 fleet synthesizer (Zipf popularity,
interrupted-Poisson bursts, diurnal thinning) with a class of
**timer/cron functions**: strictly periodic triggers (with jitter)
whose periods dwarf any keep-alive — the dominant cold-start class in
production FaaS traces, and the one a histogram turns from "cold
every single time" into "warm for a few seconds of idle cost".
Timer functions deliberately carry the largest images, so covering
them moves the cold-start *tail*, not just the rate.

Cold-start latency uses the calibrated CostModel decomposition (the
same clone/spawn/restore prices as X12) against a node-local image
cache that predictive policies *prefetch* into — the chunk-prefetch
half of the tentpole, so a predicted-then-realized cold start fetches
from local cache instead of the registry.

One *real* platform episode (FaaSPlatform with ``PrewarmConfig``
installed) rides along as the exemplar: its controller stats prove
the live wiring (forecast → autoscaler prewarm → deployer prefetch)
fires outside the simulator too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import make_world
from repro.bench.report import format_table
from repro.bench.traces import synthesize_fleet_workload
from repro.faas.platform import FaaSPlatform, PlatformConfig
from repro.functions.base import make_app
from repro.predict.policy import (
    FixedKeepAlivePolicy,
    HistogramEwmaPolicy,
    LearnedPolicy,
    OraclePolicy,
    PrewarmConfig,
    PrewarmPolicy,
    ReactivePolicy,
)
from repro.sim.costmodel import DEFAULT_COST_MODEL, CostModel
from repro.sim.rng import _derive_seed

MIB = 1024 * 1024

POLICY_LADDER = ("reactive", "fixed", "histogram", "learned", "oracle")


@dataclass(frozen=True)
class PrewarmStudyConfig:
    """Shape of one X13 run (defaults = the sealed baseline)."""

    functions: int = 36               # Zipf/bursty/Poisson population
    timer_functions: int = 12         # periodic cron-style triggers
    requests: int = 200_000
    duration_ms: float = 7_200_000.0  # 2 simulated hours
    window_ms: float = 10_000.0       # forecast window
    service_ms: float = 150.0
    max_replicas: int = 8
    fixed_keepalive_ms: float = 60_000.0
    keepalive_floor_ms: float = 1_000.0
    # Per-function keep-alives may exceed the fixed status quo where
    # the histogram says the coverage pays (Serverless-in-the-Wild
    # caps at several multiples of the default for the same reason).
    keepalive_cap_ms: float = 120_000.0
    horizon: int = 64
    ewma_alpha: float = 0.25
    node_cache_mib: int = 768         # image-prefetch cache per node
    # Bursty main-population shape (interrupted Poisson).
    bursty_fraction: float = 0.3
    mean_on_ms: float = 30_000.0
    mean_off_ms: float = 120_000.0
    # Timer class: periods far beyond any keep-alive, mild jitter.
    timer_period_lo_ms: float = 150_000.0
    timer_period_hi_ms: float = 420_000.0
    timer_jitter: float = 0.03
    # Image sizes: timers carry the big batch images, so covering their
    # cold starts moves the tail of the cold-latency distribution.
    main_image_lo_mib: int = 16
    main_image_hi_mib: int = 64
    timer_image_lo_mib: int = 96
    timer_image_hi_mib: int = 160
    prewarm_budget_per_window: int = 16

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
        return {
            "policy": self.policy,
            "requests": self.requests,
            "cold_starts": self.cold_starts,
            "cold_start_rate": self.cold_start_rate,
            "warm_starts": self.warm_starts,
            "queued": self.queued,
            "cold_p50_ms": self.cold_p50_ms,
            "cold_p99_ms": self.cold_p99_ms,
            "cold_mean_ms": self.cold_mean_ms,
            "wasted_warm_s": self.wasted_warm_s,
            "timer_cold_starts": self.timer_cold_starts,
            "timer_wasted_warm_s": self.timer_wasted_warm_s,
            "prewarm_placements": self.prewarm_placements,
            "prefetch_mib": self.prefetch_mib,
            "cold_cache_hits": self.cold_cache_hits,
        }


@dataclass
class PrewarmRepResult:
    """The policy ladder's outcomes on one repetition's trace."""

    rep: int
    seed: int
    outcomes: Dict[str, PolicyOutcome] = field(default_factory=dict)

    @property
    def learned_beats_fixed(self) -> bool:
        """The acceptance criterion: strictly fewer cold starts AND a
        strictly lower cold p99 at equal-or-lower wasted warm-seconds."""
        learned = self.outcomes["learned"]
        fixed = self.outcomes["fixed"]
        return (learned.cold_starts < fixed.cold_starts
                and learned.cold_p99_ms < fixed.cold_p99_ms
                and learned.wasted_warm_s <= fixed.wasted_warm_s)

    @property
    def oracle_bounds_gap(self) -> bool:
        """The oracle never does worse than the learned policy."""
        return (self.outcomes["oracle"].cold_start_rate
                <= self.outcomes["learned"].cold_start_rate)


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
                "window_ms": self.config.window_ms,
                "horizon": self.config.horizon,
                "fixed_keepalive_ms": self.config.fixed_keepalive_ms,
                "node_cache_mib": self.config.node_cache_mib,
            },
            "reps": [
                {
                    "rep": r.rep,
                    "seed": r.seed,
                    "learned_beats_fixed": r.learned_beats_fixed,
                    "oracle_bounds_gap": r.oracle_bounds_gap,
                    "policies": {name: o.as_dict()
                                 for name, o in r.outcomes.items()},
                }
                for r in self.reps
            ],
            "exemplar": self.exemplar,
        }

    def render(self) -> str:
        return render_prewarm_report(self.as_dict())


# ---------------------------------------------------------------------------
# Trace synthesis: fleet workload + the timer/cron overlay
# ---------------------------------------------------------------------------


def _synthesize_prewarm_trace(config: PrewarmStudyConfig,
                              seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Merged (times, fids): fleet trace + periodic timer arrivals."""
    times, fids = synthesize_fleet_workload(
        function_count=config.functions,
        duration_ms=config.duration_ms,
        requests=config.requests,
        bursty_fraction=config.bursty_fraction,
        mean_on_ms=config.mean_on_ms,
        mean_off_ms=config.mean_off_ms,
        seed=_derive_seed(seed, "prewarm-trace"))
    rng = np.random.Generator(np.random.PCG64(
        _derive_seed(seed, "prewarm-timers")))
    timer_times: List[float] = []
    timer_fids: List[int] = []
    for i in range(config.timer_functions):
        fid = config.functions + i
        period = rng.uniform(config.timer_period_lo_ms,
                             config.timer_period_hi_ms)
        t = rng.uniform(0.0, period)
        while t < config.duration_ms:
            timer_times.append(t)
            timer_fids.append(fid)
            gap = period * (1.0 + config.timer_jitter
                            * rng.standard_normal())
            t += max(gap, 0.5 * period)
    all_times = np.concatenate([
        times, np.asarray(timer_times, dtype=np.float64)])
    all_fids = np.concatenate([
        fids.astype(np.int64),
        np.asarray(timer_fids, dtype=np.int64)])
    order = np.argsort(all_times, kind="stable")
    return all_times[order], all_fids[order]


def _image_sizes(config: PrewarmStudyConfig, seed: int) -> np.ndarray:
    setup = np.random.Generator(np.random.PCG64(
        _derive_seed(seed, "prewarm-images")))
    sizes = np.empty(config.total_functions, dtype=np.float64)
    sizes[:config.functions] = setup.integers(
        config.main_image_lo_mib, config.main_image_hi_mib,
        size=config.functions)
    sizes[config.functions:] = setup.integers(
        config.timer_image_lo_mib, config.timer_image_hi_mib,
        size=config.timer_functions)
    return sizes


# ---------------------------------------------------------------------------
# The per-policy simulator
# ---------------------------------------------------------------------------


class _ImageLRU:
    """Whole-image LRU cache standing in for a node's HotChunkCache."""

    def __init__(self, capacity_mib: float) -> None:
        self.capacity_mib = float(capacity_mib)
        self._resident: Dict[int, float] = {}   # fid -> MiB, LRU-ordered
        self._used_mib = 0.0

    def admit(self, fid: int, mib: float) -> bool:
        """Touch ``fid``; returns True when it was already resident."""
        present = fid in self._resident
        if present:
            del self._resident[fid]            # move-to-end bump
        else:
            self._used_mib += mib
        self._resident[fid] = mib
        while self._used_mib > self.capacity_mib and len(self._resident) > 1:
            victim, size = next(iter(self._resident.items()))
            if victim == fid:
                break
            del self._resident[victim]
            self._used_mib -= size
        return present


class _PolicySim:
    """One chronological sweep of the trace under one prewarm policy.

    Replicas are ``[ready_ms, busy_until_ms, idle_from_ms, expire_override]``
    rows in per-function pools. Expiry is lazy (evaluated at arrivals,
    window ticks, and the final flush) but exact: an idle replica's
    expiry instant is a deterministic function of when it went idle,
    so wasted warm-time never depends on when the sweep notices it.
    """

    def __init__(self, config: PrewarmStudyConfig, policy: PrewarmPolicy,
                 image_mib: np.ndarray, costs: CostModel, seed: int) -> None:
        self.c = config
        self.policy = policy
        self.costs = costs
        self.image_mib = image_mib
        self.rng = np.random.Generator(np.random.PCG64(seed))
        n = config.total_functions
        self.pools: List[List[List[float]]] = [[] for _ in range(n)]
        self.ka: List[float] = [policy.keepalive_ms(fid) for fid in range(n)]
        self.last_arrival: List[float] = [-1.0] * n
        self.sched_mark: List[float] = [-1.0] * n
        self.wasted_ms = np.zeros(n, dtype=np.float64)
        self.cold_by_fid = np.zeros(n, dtype=np.int64)
        self.cache = _ImageLRU(config.node_cache_mib)
        self.cold_lats: List[float] = []
        self.outcome = PolicyOutcome(policy=policy.name)

    # -- replica lifecycle ---------------------------------------------------

    def _expire(self, fid: int, t: float) -> None:
        pool = self.pools[fid]
        if not pool:
            return
        ka = self.ka[fid]
        keep: List[List[float]] = []
        for r in pool:
            if r[1] > t:                      # busy or still provisioning
                keep.append(r)
                continue
            expire_at = r[3] if r[3] >= 0.0 else r[2] + ka
            if expire_at <= t:
                self.wasted_ms[fid] += max(0.0, expire_at - r[2])
            else:
                keep.append(r)
        pool[:] = keep

    def _cold_latency(self, fid: int, prefetch: bool = False) -> float:
        """Calibrated provision latency against the node image cache."""
        costs = self.costs
        mib = float(self.image_mib[fid])
        hit = self.cache.admit(fid, mib)
        if prefetch and not hit:
            self.outcome.prefetch_mib += mib
        cf = 1.0 if hit else 0.0
        pages_ms = costs.restore_per_mib_ms * mib
        fetch_ms = pages_ms * costs.restore_fetch_fraction * (
            (1.0 - cf) + cf * costs.restore_cache_hit_factor)
        map_ms = pages_ms * (1.0 - costs.restore_fetch_fraction)
        restore_ms = costs.restore_base_ms + fetch_ms + map_ms
        factor = math.exp(costs.noise_sigma * self.rng.standard_normal())
        return (costs.clone_ms + costs.criu_spawn_ms + restore_ms) * factor, hit

    def _place(self, fid: int, t: float, expire_override: float) -> None:
        """Pre-provision one replica (prefetching its image first)."""
        latency, _ = self._cold_latency(fid, prefetch=True)
        ready = t + latency
        self.pools[fid].append([ready, ready, ready, expire_override])
        self.outcome.prewarm_placements += 1

    # -- forecast-window tick ------------------------------------------------

    def _tick(self, boundary: float, counts: List[int]) -> None:
        c = self.c
        policy = self.policy
        for fid in range(c.total_functions):
            policy.observe_window(fid, float(counts[fid]))
        placed = 0
        budget = c.prewarm_budget_per_window
        min_target = 1 if policy.prewarm_singletons else 2
        for fid in range(c.total_functions):
            target = policy.target_warm(fid)
            ka = policy.keepalive_ms(fid)
            if target > 0:
                # Anti-churn floor (mirrors PrewarmController): a
                # deliberately held replica must outlive the gap to the
                # next planning pass.
                ka = max(ka, 1.5 * c.window_ms)
            self.ka[fid] = ka
            pool = self.pools[fid]
            if target >= min_target and pool:
                # Target-protected retention: GC never reaps below the
                # planned warm set. The most-recently-idle replicas up
                # to the target are refreshed (their standby time is
                # accrued as waste now, restarting their idle clock) so
                # surplus depth for overlap bursts survives between
                # plans instead of churning cold. Forecast policies
                # exclude singleton targets (see
                # ``PrewarmPolicy.prewarm_singletons``).
                busy = sum(1 for r in pool if r[1] > boundary)
                idle = sorted((r for r in pool if r[1] <= boundary),
                              key=lambda r: r[2], reverse=True)
                for r in idle[:max(0, target - busy)]:
                    if r[3] >= 0.0:
                        continue          # scheduled holds keep their own
                    self.wasted_ms[fid] += max(0.0, boundary - r[2])
                    r[2] = boundary
            self._expire(fid, boundary)
            if target >= min_target and target > len(pool) and placed < budget:
                add = min(target - len(pool), budget - placed,
                          c.max_replicas - len(pool))
                for _ in range(add):
                    self._place(fid, boundary, -1.0)
                placed += max(0, add)
            elif target > 0:
                # Target already met: refresh the image cache so a
                # predicted-then-realized cold start fetches locally.
                self.cache.admit(fid, float(self.image_mib[fid]))
            if (not pool and placed < budget
                    and self.last_arrival[fid] >= 0.0
                    and self.sched_mark[fid] != self.last_arrival[fid]):
                schedule = policy.prewarm_schedule(fid)
                if schedule is not None:
                    eta, hold = schedule
                    due = self.last_arrival[fid] + eta
                    if boundary >= due + hold:
                        self.sched_mark[fid] = self.last_arrival[fid]
                    elif due <= boundary:
                        self._place(fid, boundary, due + hold)
                        self.sched_mark[fid] = self.last_arrival[fid]
                        placed += 1

    # -- arrivals ------------------------------------------------------------

    def _arrival(self, t: float, fid: int) -> None:
        c = self.c
        self._expire(fid, t)
        pool = self.pools[fid]
        best: Optional[List[float]] = None
        for r in pool:
            if r[1] <= t and (best is None or r[2] > best[2]):
                best = r                      # LIFO: most recently idle
        if best is not None:
            self.wasted_ms[fid] += max(0.0, t - best[2])
            best[1] = t + c.service_ms
            best[2] = best[1]
            best[3] = -1.0
            self.outcome.warm_starts += 1
        elif len(pool) < c.max_replicas:
            latency, cached = self._cold_latency(fid)
            self.cold_lats.append(latency)
            busy = t + latency + c.service_ms
            pool.append([t, busy, busy, -1.0])
            self.outcome.cold_starts += 1
            self.cold_by_fid[fid] += 1
            if cached:
                self.outcome.cold_cache_hits += 1
            if fid >= c.functions:
                self.outcome.timer_cold_starts += 1
        else:
            replica = min(pool, key=lambda r: r[1])
            replica[1] += c.service_ms
            replica[2] = replica[1]
            replica[3] = -1.0
            self.outcome.queued += 1
        if self.last_arrival[fid] >= 0.0:
            self.policy.note_gap(fid, t - self.last_arrival[fid])
        self.last_arrival[fid] = t

    # -- the sweep -----------------------------------------------------------

    def run(self, times: np.ndarray, fids: np.ndarray,
            tick: bool) -> PolicyOutcome:
        c = self.c
        n = c.total_functions
        boundary = c.window_ms
        counts = [0] * n
        for t, fid in zip(times.tolist(), fids.tolist()):
            if tick:
                while boundary <= t:
                    self._tick(boundary, counts)
                    counts = [0] * n
                    boundary += c.window_ms
            counts[fid] += 1
            self._arrival(t, fid)
        if tick:
            while boundary <= c.duration_ms:
                self._tick(boundary, counts)
                counts = [0] * n
                boundary += c.window_ms
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
            for r in pool:
                idle_from = r[2]
                if idle_from >= end_ms:
                    continue
                expire_at = r[3] if r[3] >= 0.0 else idle_from + ka
                self.wasted_ms[fid] += max(
                    0.0, min(expire_at, end_ms) - idle_from)


# ---------------------------------------------------------------------------
# The study
# ---------------------------------------------------------------------------


def _window_counts(config: PrewarmStudyConfig, times: np.ndarray,
                   fids: np.ndarray) -> Dict[int, List[float]]:
    """Per-function next-window count vectors for the oracle."""
    nwin = int(math.ceil(config.duration_ms / config.window_ms))
    windows = np.minimum(
        (times / config.window_ms).astype(np.int64), nwin - 1)
    flat = np.bincount(fids * nwin + windows,
                       minlength=config.total_functions * nwin)
    matrix = flat.reshape(config.total_functions, nwin)
    return {fid: matrix[fid].astype(float).tolist()
            for fid in range(config.total_functions)}


def _build_policy(name: str, config: PrewarmStudyConfig, seed: int,
                  oracle_counts: Dict[int, List[float]]) -> PrewarmPolicy:
    kwargs = dict(
        window_ms=config.window_ms,
        service_ms=config.service_ms,
        keepalive_floor_ms=config.keepalive_floor_ms,
        keepalive_cap_ms=config.keepalive_cap_ms,
        default_keepalive_ms=config.fixed_keepalive_ms,
        ewma_alpha=config.ewma_alpha,
    )
    if name == "reactive":
        return ReactivePolicy()
    if name == "fixed":
        return FixedKeepAlivePolicy(config.fixed_keepalive_ms)
    if name == "histogram":
        return HistogramEwmaPolicy(**kwargs)
    if name == "learned":
        return LearnedPolicy(horizon=config.horizon,
                             seed=_derive_seed(seed, "learned-policy"),
                             **kwargs)
    if name == "oracle":
        # The clairvoyant bound staffs generously: it knows the next
        # window's exact count and never pays for a wrong forecast, so
        # a wide overlap margin only tightens the bound.
        return OraclePolicy(oracle_counts, window_ms=config.window_ms,
                            service_ms=config.service_ms, safety=4.0)
    raise ValueError(f"unknown policy {name!r}")


def _run_repetition(config: PrewarmStudyConfig, seed: int,
                    rep: int) -> PrewarmRepResult:
    rep_seed = _derive_seed(seed, f"prewarm-{rep}")
    times, fids = _synthesize_prewarm_trace(config, rep_seed)
    image_mib = _image_sizes(config, rep_seed)
    oracle_counts = _window_counts(config, times, fids)
    result = PrewarmRepResult(rep=rep, seed=rep_seed)
    for name in POLICY_LADDER:
        policy = _build_policy(name, config, rep_seed, oracle_counts)
        sim = _PolicySim(config, policy, image_mib, DEFAULT_COST_MODEL,
                         seed=_derive_seed(rep_seed, f"latency-{name}"))
        tick = name in ("histogram", "learned", "oracle")
        result.outcomes[name] = sim.run(times, fids, tick=tick)
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
        policy="learned", window_ms=200.0, service_ms_hint=500.0)))
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
                  requests: int = 200_000, horizon: int = 64,
                  functions: int = 36, timer_functions: int = 12,
                  duration_ms: float = 7_200_000.0) -> PrewarmStudyResult:
    """Run X13: the policy ladder over ``repetitions`` fleet traces."""
    config = PrewarmStudyConfig(
        functions=functions, timer_functions=timer_functions,
        requests=requests, duration_ms=duration_ms, horizon=horizon)
    result = PrewarmStudyResult(config=config, seed=seed)
    for rep in range(repetitions):
        result.reps.append(_run_repetition(config, seed, rep))
    result.exemplar = _platform_exemplar(seed)
    return result


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


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
        learned = rep["policies"]["learned"]
        fixed = rep["policies"]["fixed"]
        oracle = rep["policies"]["oracle"]
        verdict = "yes" if rep["learned_beats_fixed"] else "NO"
        lines.append(
            f"predictive beats fixed keep-alive: {verdict} "
            f"(cold {learned['cold_starts']} vs {fixed['cold_starts']}, "
            f"p99 {learned['cold_p99_ms']:.1f} vs "
            f"{fixed['cold_p99_ms']:.1f} ms, "
            f"waste {learned['wasted_warm_s']:.0f} vs "
            f"{fixed['wasted_warm_s']:.0f} s)")
        bound = "yes" if rep["oracle_bounds_gap"] else "NO"
        lines.append(
            f"oracle bounds the gap: {bound} "
            f"(oracle cold rate {100.0 * oracle['cold_start_rate']:.2f}% "
            f"<= learned {100.0 * learned['cold_start_rate']:.2f}%)")
    exemplar = artifact.get("exemplar", {})
    if exemplar:
        lines.append("")
        lines.append(
            "live platform exemplar: "
            f"{exemplar.get('prewarm_replicas', 0)} prewarmed replicas, "
            f"{exemplar.get('prefetch_requests', 0)} prefetch requests, "
            f"{exemplar.get('windows_fed', 0)} forecast windows fed")
    return "\n".join(lines)
