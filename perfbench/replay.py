"""One pass: set the platform up, replay an open-loop trace through it.

Replay rules (each one keeps the numbers about the program rather than
about the replay loop):

* arrivals are offset by the simulated clock reading after setup, since
  baking advances the clock by up to ~100 s of simulated time;
* the autoscaler reconciles (``gc_tick``) every ``TICK_MS`` of simulated
  time between arrivals, like a continuously running reconciler, not
  once per arrival;
* the load is open-loop in simulated time: a request is due on schedule
  whatever the platform's state, and its latency runs from the due time
  to the response, so backlog behind a slow cold start is counted. The
  host replays as fast as it can;
* a cold start's latency runs from when the router took the request up
  (the later of its due time and the previous response) to the
  response: the start-up itself. Waiting behind earlier requests is
  already in the request latency, and a few coincident arrivals would
  otherwise decide the tail of a few dozen cold starts.
"""

from __future__ import annotations

import contextlib
import gc
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.faas.replica import ReplicaState
from repro.faults.errors import PlatformError
from repro.functions.imaging.generate import synthetic_photo
from repro.functions.imaging.resize import scale_to_fraction
from repro.functions.markdown_engine import render_document
from repro.runtime.base import Request

from perfbench.tracing import Tracer
from perfbench.workloads import (
    TICK_MS, Workload, arrival_trace, build_platform, function_factories,
    markdown_documents,
)


class CheckFailed(Exception):
    """A correctness check on the program's output failed."""


@dataclass
class PassResult:
    """Everything one pass measured."""

    setup_s: float
    replay_s: float
    attempted: int
    failed: int
    latencies_ms: List[float]
    cold_ms: List[float]
    idle_replica_s: float
    shape: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)

    def sim_signature(self) -> tuple:
        """Every simulated-clock output of the pass, for exact comparison."""
        return (self.attempted, self.failed, tuple(self.latencies_ms),
                tuple(self.cold_ms), self.idle_replica_s,
                tuple(sorted((k, v) for k, v in self.shape.items())))


def _expected_image() -> dict:
    # The replica resizes a working copy of the source at 1/10 of the
    # paper's 3440x1440 resolution; redo that resize outside the platform.
    from repro.functions.image_resizer import _WORKING_HEIGHT, _WORKING_WIDTH
    thumb = scale_to_fraction(synthetic_photo(_WORKING_WIDTH, _WORKING_HEIGHT), 0.10)
    return {"width": thumb.width, "height": thumb.height, "bytes": thumb.nbytes}


def run_pass(workload: Workload, seed: int,
             tracer: Optional[Tracer] = None) -> PassResult:
    """Set up one platform and replay one seeded trace through it."""
    factories = function_factories(workload, seed)
    documents = markdown_documents(seed)
    expected_html = [render_document(doc) for doc in documents]
    expected_image = _expected_image()
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    gc.collect()

    t0 = time.perf_counter()
    with span("bench.setup"):
        world, platform, names = build_platform(workload, seed, factories)
    setup_s = time.perf_counter() - t0

    clock = world.clock
    base = clock.now
    trace = [(base + offset, name)
             for offset, name in arrival_trace(workload, names, seed)]
    if trace and trace[0][0] < base:
        raise CheckFailed("an arrival is due before the clock reading after setup")
    body_rng = random.Random(seed)
    bodies = [body_rng.randrange(len(documents)) for _ in trace]
    probes_before = world.kernel.probes.events_emitted
    registered = platform.registry.names()
    deployer = platform.deployer

    latencies: List[float] = []
    cold: List[float] = []
    failed = 0
    idle_replica_s = 0.0
    tick_s = TICK_MS / 1000.0
    next_tick = base + TICK_MS
    router_stats = platform.router.stats

    t1 = time.perf_counter()
    with span("bench.replay"):
        for (due, name), doc in zip(trace, bodies):
            while next_tick <= due:
                if clock.now < next_tick:
                    clock.set_time(next_tick)
                platform.gc_tick()
                for fn in registered:
                    for replica in deployer.replicas(fn):
                        if replica.state is ReplicaState.IDLE:
                            idle_replica_s += tick_s
                next_tick += TICK_MS
            if clock.now < due:
                clock.set_time(due)
            colds_before = router_stats.cold_starts
            taken_up = clock.now
            body = documents[doc] if name == "markdown" else None
            try:
                response = platform.invoke(name, Request(body=body))
            except PlatformError:
                failed += 1
                continue
            latency = response.finished_ms - due
            latencies.append(latency)
            if router_stats.cold_starts != colds_before:
                cold.append(response.finished_ms - taken_up)
            if response.status != 200:
                raise CheckFailed(f"{name} answered HTTP {response.status}")
            if name == "markdown":
                if response.body != expected_html[doc]:
                    raise CheckFailed("markdown response differs from a direct render")
            elif name == "image-resizer" and response.body != expected_image:
                raise CheckFailed("image-resizer response differs from a direct resize")
    replay_s = time.perf_counter() - t1

    if router_stats.invocations != len(latencies):
        raise CheckFailed(
            f"router counted {router_stats.invocations} invocations, "
            f"the replay saw {len(latencies)} responses")
    if len(latencies) + failed != len(trace):
        raise CheckFailed("a request did not end exactly once")

    shape = _shape(platform, names, trace, cold,
                   world.kernel.probes.events_emitted - probes_before)
    result = PassResult(
        setup_s=setup_s, replay_s=replay_s, attempted=len(trace),
        failed=failed, latencies_ms=latencies, cold_ms=cold,
        idle_replica_s=idle_replica_s, shape=shape,
    )
    if tracer is not None:
        result.layers = _layer_readings(tracer)
    return result


def _shape(platform, names, trace, cold, probe_events: int) -> Dict[str, float]:
    """Input and cache properties of the pass (all on the simulated side)."""
    caches = [platform.deployer.node_cache(node.name)
              for node in platform.resources.nodes]
    lookups = sum(c.stats.lookups for c in caches)
    misses = sum(c.stats.misses for c in caches)
    logical = sum(c.stats.hit_bytes + c.stats.miss_bytes for c in caches)
    missed = sum(c.stats.miss_bytes for c in caches)
    prewarmed = (platform.prewarm.stats.prewarm_replicas
                 if platform.prewarm is not None else 0)
    return {
        "requests": float(len(trace)),
        "cold_starts": float(len(cold)),
        "functions_registered": float(len(names)),
        "functions_touched": float(len({name for _, name in trace})),
        "prewarmed_replicas": float(prewarmed),
        "chunk_lookups": float(lookups),
        "chunk_misses": float(misses),
        "chunk_logical_mib": logical / 2 ** 20,
        "chunk_missed_mib": missed / 2 ** 20,
        "chunk_evictions": float(sum(c.stats.evictions for c in caches)),
        "chunk_hit_bytes": float(sum(c.stats.hit_bytes for c in caches)),
        "node_cache_capacity_mib": min(c.capacity_bytes for c in caches) / 2 ** 20,
        "probe_events": float(probe_events),
    }


def _layer_readings(tracer: Tracer) -> Dict[str, float]:
    """Per-layer counts read from the program's own state after a pass."""
    prewarmed = tracer.prewarmed
    useful = sum(1 for replica in prewarmed if replica.requests_served > 0)
    tracer.prewarmed = []
    return {
        "predict.prewarm.replicas": float(len(prewarmed)),
        "predict.prewarm.useful": float(useful),
    }
