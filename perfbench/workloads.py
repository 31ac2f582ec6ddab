"""Workload definitions: which functions, which platform, which trace.

Every input is derived from the ``--seed`` argument: the arrival times,
the markdown documents in request bodies and the sizes of the synthetic
fleet functions. The structure each workload exists to exercise (the
Zipf popularity order, which ranks are bursty, the platform shape) is
fixed, so two seeds differ in their samples, not in what they test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro import make_world, obs
from repro.core.policy import AfterWarmup
from repro.faas.autoscaler import AutoscalerConfig
from repro.faas.platform import FaaSPlatform, PlatformConfig
from repro.functions.base import FunctionApp, make_app
from repro.functions.markdown import SAMPLE_DOCUMENT
from repro.functions.synthetic import custom_function
from repro.predict.policy import PrewarmConfig
from repro.sim.rng import _derive_seed

PAPER_FUNCTIONS = ("noop", "markdown", "image-resizer")
# Autoscaler reconcile period on the simulated clock.
TICK_MS = 1_000.0
# Zipf exponent and the share of functions with on/off arrivals, as in
# ``repro.bench.traces.synthesize_workload``; here the bursty ranks are
# fixed (every rank r with r % 10 in {1, 4, 7}) instead of drawn.
ZIPF_S = 1.2
BURSTY_RANKS = (1, 4, 7)
SYNTHETIC_COUNT = 32
SYNTHETIC_CLASSES = (200, 1600)
MARKDOWN_DOCUMENTS = 8


@dataclass(frozen=True)
class Workload:
    """One traffic mix on one platform shape."""

    name: str
    fleet: bool                 # paper functions only, or + synthetic fleet
    rate_per_s: float           # nominal open-loop arrival rate
    duration_s: float           # simulated trace length of one pass
    passes: int                 # seeded passes whose statistics are pooled
    keepalive_ms: float
    storage_nodes: int = 0      # 0 = flat snapshot registry
    replication_factor: int = 1
    cache_policy: Optional[str] = None
    prewarm: bool = False
    observe: bool = False


# Why each workload exists: its ``why`` in BENCHMARK.json and
# perfbench/README.md. passes x duration_s trade the seed-to-seed spread
# of the pooled simulated percentiles against run time; prewarm-fleet's
# passes cost the most host time, so it pools one pass fewer.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="warm-paper",
        fleet=False, rate_per_s=20.0, duration_s=100.0, passes=7,
        keepalive_ms=60_000.0,
    ),
    Workload(
        name="cold-fleet",
        fleet=True, rate_per_s=10.0, duration_s=150.0, passes=4,
        keepalive_ms=5_000.0, storage_nodes=4, replication_factor=2,
        cache_policy="freq-over-size",
    ),
    Workload(
        name="prewarm-fleet",
        fleet=True, rate_per_s=10.0, duration_s=150.0, passes=3,
        keepalive_ms=5_000.0, cache_policy="freq-over-size",
        prewarm=True, observe=True,
    ),
)}


def function_factories(workload: Workload, seed: int) -> List[Callable[[], FunctionApp]]:
    """Factories in Zipf rank order (most popular first)."""
    factories: List[Callable[[], FunctionApp]] = [
        (lambda name=name: make_app(name)) for name in PAPER_FUNCTIONS]
    if not workload.fleet:
        return factories
    rng = random.Random(_derive_seed(seed, "perfbench-fleet"))
    low, high = SYNTHETIC_CLASSES
    step = (high - low) / SYNTHETIC_COUNT
    for index in range(SYNTHETIC_COUNT):
        # Stratified sizes: one class count per equal-width stratum, so
        # every seed spans 200-1600 classes evenly.
        classes = int(low + (index + rng.random()) * step)
        total_kib = classes * (4.0 + classes / 64.0)
        name = f"syn{index:02d}-{classes}c"
        factories.append(lambda c=classes, k=total_kib, n=name:
                         custom_function(c, k, name=n))
    return factories


def markdown_documents(seed: int) -> List[str]:
    """Seeded request bodies for the markdown function."""
    rng = random.Random(_derive_seed(seed, "perfbench-markdown"))
    words = ("cold", "start", "snapshot", "restore", "replica", "prebake",
             "**warm**", "*pool*", "`criu`", "[link](https://example.org)")
    documents = []
    for index in range(MARKDOWN_DOCUMENTS):
        lines = [SAMPLE_DOCUMENT, f"## Section {index}", ""]
        for _ in range(rng.randint(2, 6)):
            lines.append("- " + " ".join(rng.choice(words)
                                         for _ in range(rng.randint(3, 9))))
        lines.append("")
        lines.append(" ".join(rng.choice(words) for _ in range(rng.randint(10, 40))))
        documents.append("\n".join(lines))
    return documents


def _on_intervals(rng: random.Random, duration_ms: float,
                  mean_on_ms: float, mean_off_ms: float) -> List[Tuple[float, float]]:
    """ON intervals of an on/off source, stratified over the trace.

    The trace is cut into equal slots, one per expected ON/OFF cycle,
    and each slot holds one ON interval placed uniformly inside it. The
    ON lengths are exponential with mean ``mean_on_ms``, drawn by
    stratified sampling (one quantile per slot, shuffled), so the number
    of bursts and their total length barely move with the seed.
    """
    slots = max(1, round(duration_ms / (mean_on_ms + mean_off_ms)))
    width = duration_ms / slots
    quantiles = [(index + rng.random()) / slots for index in range(slots)]
    rng.shuffle(quantiles)
    intervals = []
    for index, q in enumerate(quantiles):
        length = min(-mean_on_ms * math.log1p(-q), width)
        start = index * width + rng.uniform(0.0, width - length)
        intervals.append((start, start + length))
    return intervals


def arrival_trace(workload: Workload, names: List[str],
                  seed: int) -> List[Tuple[float, str]]:
    """(offset ms, function) pairs, sorted; offsets start at 0.

    Each function gets its expected request count exactly; the seed
    places the requests. A Poisson function's arrivals are uniform over
    the trace (a Poisson process conditioned on its count); a bursty
    function's are uniform over its ON periods, an on/off source like
    ``repro.bench.arrivals.bursty_arrivals`` (burst rate 10x the
    function's rate, 2 s mean ON, OFF mean 20 s/rate but at least 2 s)
    with stratified ON periods (:func:`_on_intervals`). Fixing the
    counts and stratifying the bursts keeps the request mix and the
    burst pattern, and with them the latency percentiles, from moving
    with the seed.
    """
    rng = random.Random(_derive_seed(seed, "perfbench-trace"))
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(names))]
    total = sum(weights)
    duration_ms = workload.duration_s * 1000.0
    events: List[Tuple[float, str]] = []
    for rank, (name, weight) in enumerate(zip(names, weights)):
        rate = workload.rate_per_s * weight / total
        if rank % 10 in BURSTY_RANKS:
            mean_on, mean_off = 2_000.0, max(2_000.0, 20_000.0 / rate)
            burst_rate = max(rate * 10, 1.0)
            count = round(burst_rate * duration_ms / 1000.0
                          * mean_on / (mean_on + mean_off))
            intervals = _on_intervals(rng, duration_ms, mean_on, mean_off)
            spans = [end - start for start, end in intervals]
            for _ in range(count):
                at = rng.uniform(0.0, sum(spans))
                for (start, _end), span in zip(intervals, spans):
                    if at < span:
                        events.append((start + at, name))
                        break
                    at -= span
        else:
            count = round(rate * duration_ms / 1000.0)
            events.extend((rng.uniform(0.0, duration_ms), name)
                          for _ in range(count))
    events.sort()
    return events


def build_platform(workload: Workload, seed: int,
                   factories: List[Callable[[], FunctionApp]]):
    """Create the world and platform and bake/register every function.

    Returns (world, platform, function names in rank order).
    """
    world = make_world(seed=seed, observe=workload.observe)
    if workload.observe:
        obs.install_flight(world.kernel)
    config = PlatformConfig(
        nodes=4 if workload.fleet else 2,
        autoscaler=AutoscalerConfig(idle_timeout_ms=workload.keepalive_ms),
        storage_nodes=workload.storage_nodes,
        replication_factor=workload.replication_factor,
        prewarm=PrewarmConfig(policy="histogram") if workload.prewarm else None,
    )
    platform = FaaSPlatform(world.kernel, config)
    names = []
    for factory in factories:
        metadata = platform.register_function(
            factory,
            start_technique="prebake",
            snapshot_policy=AfterWarmup(requests=1),
            idle_timeout_ms=workload.keepalive_ms,
            cache_policy=workload.cache_policy,
        )
        names.append(metadata.name)
    return world, platform, names
