"""Platform-level cold-start study: prebake vs vanilla vs warm pool.

Replays an arrival trace (see :mod:`repro.bench.arrivals`) against the
FaaS platform and measures what the paper's introduction frames as the
trade-off space:

* cold-start *frequency* (how often the idle-timeout GC leaves no
  replica alive when a request arrives);
* the *latency* those cold starts impose on requests (prebaking's
  lever);
* the *standing memory cost* of keeping instances warm (the pool
  strategy's price, which prebaking avoids).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List

from repro import make_world
from repro.bench.stats import quantile
from repro.core.policy import AfterWarmup
from repro.faas.platform import FaaSPlatform, PlatformConfig
from repro.faas.autoscaler import AutoscalerConfig
from repro.faas.pool import POOL_SIZE, WarmPool
from repro.functions.base import FunctionApp, make_app
from repro.runtime.base import Request
from repro.sim.rng import _derive_seed

# Every strategy replays its trace in worlds derived from one seed.
SEED = 42

@dataclass
class StudyResult:
    """Outcome of one strategy under one trace."""

    strategy: str
    requests: int
    cold_starts: int
    queued_ms: List[float] = field(default_factory=list)
    idle_mib_ms: float = 0.0

    @property
    def cold_fraction(self) -> float:
        return self.cold_starts / self.requests if self.requests else 0.0

    def latency_p(self, q: float) -> float:
        """Quantile of request queueing latency (cold-start exposure)."""
        if not self.queued_ms:
            return 0.0
        return quantile(self.queued_ms, q)


def _resolve(function) -> Callable[[], FunctionApp]:
    if callable(function):
        return function
    return lambda: make_app(function)


def run_platform_study(
    function,
    technique: str,
    arrivals: List[float],
    idle_timeout_ms: float = 60_000.0,
) -> StudyResult:
    """Replay ``arrivals`` against a platform using ``technique``."""
    factory = _resolve(function)
    world = make_world(seed=_derive_seed(SEED, f"study-{technique}"))
    platform = FaaSPlatform(world.kernel, PlatformConfig(
        autoscaler=AutoscalerConfig(idle_timeout_ms=idle_timeout_ms),
    ))
    platform.register_function(
        factory,
        start_technique=technique,
        snapshot_policy=AfterWarmup(requests=1),
        idle_timeout_ms=idle_timeout_ms,
    )
    name = factory().name
    idle_mib_ms = 0.0
    last_t = world.now
    for arrival in arrivals:
        target = max(arrival, world.now)
        # Integrate replica memory held while idle-waiting for traffic.
        # GC only reconciles at arrivals, but the *accounting* caps each
        # replica's held window at its idle-timeout deadline — the point
        # a continuously-running reconciler would have reclaimed it.
        for replica in platform.deployer.replicas(name):
            deadline = replica.last_active_ms + idle_timeout_ms
            held_until = min(target, max(deadline, last_t))
            idle_mib_ms += (replica.handle.process.rss_mib
                            * max(0.0, held_until - last_t))
        if target > world.now:
            world.clock.set_time(target)
        platform.gc_tick()
        platform.invoke(name, Request())
        last_t = world.now
    stats = platform.router.stats
    return StudyResult(
        strategy=technique,
        requests=stats.invocations,
        cold_starts=stats.cold_starts,
        queued_ms=[r.queued_ms for r in stats.records],
        idle_mib_ms=idle_mib_ms,
    )


def run_pool_study(function, arrivals: List[float]) -> StudyResult:
    """Replay ``arrivals`` against a warm pool of vanilla instances."""
    factory = _resolve(function)
    world = make_world(seed=_derive_seed(SEED, "study-pool"))
    from repro.core.starters import VanillaStarter
    pool = WarmPool(world.kernel, VanillaStarter(world.kernel), factory)
    pool.refill()
    queued = []
    cold = 0
    for arrival in arrivals:
        if arrival > world.now:
            world.clock.set_time(arrival)
        before = world.now
        was_hit = pool.idle_count > 0
        response = pool.serve(Request())
        # Pool hit: the request waits only for dispatch (0); miss: it
        # waits for a full vanilla cold start.
        queued.append(response.started_ms - before)
        if not was_hit:
            cold += 1
        pool.refill()
    return StudyResult(
        strategy=f"pool-{POOL_SIZE}",
        requests=len(arrivals),
        cold_starts=cold,
        queued_ms=queued,
        idle_mib_ms=pool.snapshot_idle_cost(),
    )


def compare_strategies(
    function,
    arrivals: List[float],
    idle_timeout_ms: float = 60_000.0,
) -> List[StudyResult]:
    """Run vanilla, prebake and warm-pool over the same trace."""
    return [
        run_platform_study(function, "vanilla", arrivals,
                           idle_timeout_ms=idle_timeout_ms),
        run_platform_study(function, "prebake", arrivals,
                           idle_timeout_ms=idle_timeout_ms),
        run_pool_study(function, arrivals),
    ]


def render_study(results: List[StudyResult], title: str) -> str:
    from repro.bench.report import format_table
    rows = []
    for r in results:
        rows.append([
            r.strategy,
            str(r.requests),
            f"{100 * r.cold_fraction:.1f}%",
            f"{r.latency_p(0.50):.2f}",
            f"{r.latency_p(0.99):.2f}",
            f"{r.idle_mib_ms / 1e6:.2f}",
        ])
    return title + "\n" + format_table(
        ["strategy", "requests", "cold starts", "p50 wait(ms)",
         "p99 wait(ms)", "idle MiB*ks"],
        rows,
    )
