"""The fleet model behind X12 and X13 (repro.bench.fleet_model).

Its pool rules are checked against a per-replica reference written
here, and its per-request cold/warm outcomes against the live
FaaSPlatform on the same serial trace.
"""

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import make_world
from repro.bench.fleet_model import MIB, FleetModel
from repro.faas.autoscaler import AutoscalerConfig
from repro.faas.platform import FaaSPlatform, PlatformConfig
from repro.functions.base import FunctionApp
from repro.obs.fleet import OUTCOME_DEGRADED
from repro.predict.policy import (
    OraclePolicy,
    PrewarmConfig,
    PrewarmController,
    idle_expiry_ms,
)
from repro.sim.costmodel import DEFAULT_COST_MODEL, NOOP_COSTS


def make_model(functions=1, compute_nodes=1, keepalive_ms=1_000.0,
               max_replicas=8, service_ms=5.0, seed=0):
    """A model of one-MiB-chunk, two-chunk images on one store."""
    return FleetModel(
        [[2 * fid, 2 * fid + 1] for fid in range(functions)],
        [MIB] * functions, compute_nodes=compute_nodes,
        node_cache_bytes=64 * MIB, storage_nodes=1, replication_factor=1,
        keepalive_ms=keepalive_ms, max_replicas=max_replicas,
        service_ms=service_ms, seed=seed)


def run_per_request(model, times, fids):
    """Feed the trace one request at a time; returns each request's
    outcome ("cold", "warm" or "queued") read off the model's counts."""
    names = ("cold", "warm", "queued")
    metrics = ("fleet_cold_total", "fleet_warm_total", "fleet_queued_total")
    outcomes = []
    for t, fid in zip(times, fids):
        before = [sum(model.counts[m]) for m in metrics]
        model.run(np.array([float(t)]), np.array([fid]))
        after = [sum(model.counts[m]) for m in metrics]
        (outcome,) = [name for name, b, a in zip(names, before, after)
                      if a == b + 1]
        outcomes.append(outcome)
    return outcomes


class TestExpiry:
    @staticmethod
    def _reference_expire(pool, ka, hold_end, t):
        """Every idle replica judged by ``idle_expiry_ms`` one at a time."""
        keep, wasted = [], 0.0
        for r in pool:
            expire_at = idle_expiry_ms(r[0], ka, hold_end)
            if r[0] > t or expire_at > t:
                keep.append(r)
            else:
                wasted += max(0.0, expire_at - r[0])
        return keep, wasted

    def test_expire_matches_the_per_replica_rule(self):
        # Whole-millisecond times, so expiries land exactly on ``t`` and
        # on the hold's end as often as on either side of them.
        rng = random.Random(7)
        for _ in range(500):
            model = make_model()
            t = float(rng.randint(0, 20))
            hold_end = rng.choice([-math.inf, float(rng.randint(0, 20))])
            ka = float(rng.randint(0, 10))
            pool = []
            for _ in range(rng.randint(0, 6)):
                idle = (float(rng.randint(0, 20)) if rng.random() < 0.7
                        else t + rng.randint(0, 3))     # busy past t
                pool.append([idle, 0])
            model.ka[0] = ka
            model.hold_end[0] = hold_end
            model.pools[0] = [list(r) for r in pool]
            model.node_load[0] = float(len(pool))
            keep, wasted = self._reference_expire(pool, ka, hold_end, t)
            model._expire(0, t)
            assert model.pools[0] == keep
            assert model.wasted_ms[0] == wasted
            assert model.node_load[0] == len(keep)


def reference_pools(times, fids, functions, keepalive_ms, max_replicas,
                    service_ms, cold_latencies, end_ms):
    """The platform's pool rules, one replica at a time.

    At each arrival every replica of the function is judged by
    ``idle_expiry_ms`` (idle from the end of its service); the request
    takes the first idle replica in creation order, else starts a new
    one below the cap, else queues on the earliest-free replica.
    Cold-start latencies are taken in order from ``cold_latencies``.
    """
    latencies = iter(cold_latencies)
    pools = [[] for _ in range(functions)]
    wasted = [0.0] * functions
    outcomes = []
    for t, fid in zip(times, fids):
        kept = []
        for idle_from in pools[fid]:
            expire_at = idle_expiry_ms(idle_from, keepalive_ms, -math.inf)
            if idle_from <= t and expire_at <= t:
                wasted[fid] += expire_at - idle_from
            else:
                kept.append(idle_from)
        pools[fid] = pool = kept
        idle = [i for i, idle_from in enumerate(pool) if idle_from <= t]
        if idle:
            wasted[fid] += t - pool[idle[0]]
            pool[idle[0]] = t + service_ms
            outcomes.append("warm")
        elif len(pool) < max_replicas:
            pool.append(t + next(latencies) + service_ms)
            outcomes.append("cold")
        else:
            earliest = pool.index(min(pool))
            pool[earliest] += service_ms
            outcomes.append("queued")
    for fid, pool in enumerate(pools):
        for idle_from in pool:
            if idle_from < end_ms:
                expire_at = idle_expiry_ms(idle_from, keepalive_ms, -math.inf)
                wasted[fid] += min(expire_at, end_ms) - idle_from
    return outcomes, pools, wasted


class TestPoolRules:
    @settings(max_examples=60, deadline=None)
    @given(
        functions=st.integers(1, 3),
        keepalive_ms=st.sampled_from([0.0, 20.0, 60.0, 150.0]),
        max_replicas=st.integers(1, 3),
        service_ms=st.sampled_from([5.0, 40.0, 90.0]),
        arrivals=st.lists(st.tuples(st.integers(0, 120), st.integers(0, 2)),
                          min_size=1, max_size=40),
    )
    def test_pick_expiry_waste_cap_and_queue_match_the_reference(
            self, functions, keepalive_ms, max_replicas, service_ms,
            arrivals):
        times = np.cumsum([float(gap) for gap, _ in arrivals])
        fids = [fid % functions for _, fid in arrivals]
        end_ms = float(times[-1]) + 500.0
        model = make_model(functions, keepalive_ms=keepalive_ms,
                           max_replicas=max_replicas, service_ms=service_ms)
        outcomes = run_per_request(model, times.tolist(), fids)
        model.close(end_ms)
        ref_outcomes, ref_pools, ref_wasted = reference_pools(
            times.tolist(), fids, functions, keepalive_ms, max_replicas,
            service_ms, model.cold_ms, end_ms)
        assert outcomes == ref_outcomes
        assert [[r[0] for r in pool] for pool in model.pools] == ref_pools
        assert model.wasted_ms == ref_wasted
        assert len(model.cold_ms) == outcomes.count("cold")
        assert sum(model.node_load) == sum(len(p) for p in ref_pools)


class TestPlacementAndPrice:
    def test_phases_sum_to_each_cold_start(self):
        model = make_model(functions=3, compute_nodes=2, keepalive_ms=0.0)
        model.run(np.arange(30, dtype=float) * 100.0, np.arange(30) % 3)
        model.close(3_000.0)
        cells = model.attribution.cells()
        assert sum(cell.count for cell in cells) == len(model.cold_ms) == 30
        assert sum(model.cold_ms) == pytest.approx(
            sum(cell.total_ms for cell in cells), rel=1e-12)

    def test_a_cached_image_restores_faster_on_its_node(self):
        # Keep-alive 0: every request is a cold start, and after the
        # first the image is cached on the node it landed on.
        model = make_model(functions=1, compute_nodes=2, keepalive_ms=0.0,
                           service_ms=1.0)
        model.run(np.array([0.0, 1_000.0]), np.array([0, 0]))
        model.close(2_000.0)
        first, second = model.cold_ms
        assert second < first
        assert model.registry.value("chunk_cache_hit_bytes_total") == 2 * MIB


    @pytest.mark.parametrize("image,local,hops", [
        (2 * MIB, 0, 0),
        (2 * MIB, MIB, 0),
        (2 * MIB, 2 * MIB, 1),
        (14 * MIB, 3 * MIB, 3),
    ])
    def test_restore_price_is_the_engines_one_worker_charge(
            self, image, local, hops):
        costs = DEFAULT_COST_MODEL
        full = costs.restore_cost(image / MIB)
        base = min(costs.restore_base_ms, full)
        plan = costs.plan_restore_pipeline(full - base,
                                           cached_fraction=local / image)
        expected = (base + plan.total_ms
                    + costs.shard_fetch_overhead_ms(hops))
        model = make_model()
        assert model._restore_ms(image, local, hops) == expected
        # Memoized: the second ask is the same float.
        assert model._restore_ms(image, local, hops) == expected

    def test_at_the_cap_requests_queue_on_the_earliest_free_replica(self):
        model = make_model(max_replicas=1, service_ms=10.0)
        outcomes = run_per_request(model, [0.0, 1.0, 2.0], [0, 0, 0])
        assert outcomes == ["cold", "queued", "queued"]
        (replica,) = model.pools[0]
        # Each queued request extends the one replica's busy time.
        assert replica[0] == pytest.approx(model.cold_ms[0] + 30.0)

    def test_load_penalty_spreads_uncached_images_over_nodes(self):
        model = make_model(functions=2, compute_nodes=2)
        model.run(np.array([0.0, 0.0]), np.array([0, 1]))
        assert [pool[0][1] for pool in model.pools] == [0, 1]
        assert model.node_load == [1.0, 1.0]

    def test_outage_degrades_cold_starts_inside_its_window_only(self):
        kwargs = dict(compute_nodes=1, node_cache_bytes=64 * MIB,
                      storage_nodes=2, replication_factor=2,
                      keepalive_ms=0.0, max_replicas=4, service_ms=1.0,
                      seed=0)
        images = [[0, 1], [2, 3]]
        primary = FleetModel(images, [MIB, MIB], **kwargs).chunk_homes[0][0]
        model = FleetModel(images, [MIB, MIB],
                           outage=(primary, 0.0, 1_000.0), **kwargs)
        model.run(np.array([0.0, 2_000.0]), np.array([0, 1]))
        model.close(3_000.0)
        outcomes = {cell.function: cell.outcome
                    for cell in model.attribution.cells()}
        assert outcomes["fn-000"] == OUTCOME_DEGRADED
        assert outcomes["fn-001"] != OUTCOME_DEGRADED
        hops = sum(1 for home in model.chunk_homes[:2] if home[0] == primary)
        assert model.registry.value("shard_retry_hops_total") == hops >= 1


class TestPrewarm:
    def test_a_forecast_window_is_served_by_a_prewarmed_replica(self):
        # One arrival in window 0; the oracle knows window 1 has five.
        def run(prewarm):
            model = FleetModel(
                [[0, 1]], [MIB], compute_nodes=1,
                node_cache_bytes=64 * MIB, storage_nodes=1,
                replication_factor=1, keepalive_ms=0.0, max_replicas=4,
                service_ms=5.0, seed=0, prewarm=prewarm)
            outcomes = run_per_request(model, [0.0, 1_500.0], [0, 0])
            model.close(3_000.0)
            return model, outcomes

        config = PrewarmConfig(window_ms=1_000.0)
        oracle = OraclePolicy({0: [1.0, 5.0, 0.0]}, config)
        controller = PrewarmController(config, policy=oracle)
        model, outcomes = run(controller)
        assert outcomes == ["cold", "warm"]
        assert model.registry.value("prewarm_placements_total") >= 1
        assert controller.stats.plans == 3      # windows ending at 1-3 s
        _, unplanned = run(None)
        assert unplanned == ["cold", "cold"]


# ---------------------------------------------------------------------------
# Differential test against the live platform
# ---------------------------------------------------------------------------

KEEPALIVE_MS = 5_000.0
#: Every idle gap stays this far from the keep-alive, so the platform's
#: one-second GC cadence and the two sides' different cold-start
#: latencies cannot flip an outcome.
MARGIN_MS = 2_000.0
#: ... and at least this long, so those latencies and the service-time
#: jitter cannot leave one side's replica still busy at the arrival.
MIN_IDLE_MS = 1_000.0
#: Longer than the margin: an idle clock started at the arrival instead
#: of at the end of service would call some warm starts cold.
SERVICE_MS = 3_000.0
FUNCTIONS = 3


class _Sleeper(FunctionApp):
    """A no-op handler that is busy for ``SERVICE_MS``."""

    def __init__(self, name: str) -> None:
        super().__init__(replace(NOOP_COSTS, name=name,
                                 service_ms=SERVICE_MS, service_sigma=0.02))

    def execute(self, runtime, request):
        return "", 200


def _platform_trace(seed, requests):
    """Serial requests on a 2-node platform with a 1 s GC tick.

    Returns the arrival times, function ids and the router's per-request
    cold-start flags.
    """
    world = make_world(seed=seed)
    clock = world.kernel.clock
    platform = FaaSPlatform(world.kernel, PlatformConfig(
        nodes=2, autoscaler=AutoscalerConfig(idle_timeout_ms=KEEPALIVE_MS)))
    names = [f"sleeper-{i}" for i in range(FUNCTIONS)]
    for name in names:
        platform.register_function(lambda name=name: _Sleeper(name),
                                   idle_timeout_ms=KEEPALIVE_MS)
    rng = random.Random(seed)
    finished = {}
    times, fids = [], []
    next_tick = 1_000.0 * (math.floor(clock.now / 1_000.0) + 1)
    fid = 0
    for _ in range(requests):
        if rng.random() < 0.5:
            fid = rng.randrange(FUNCTIONS)    # else the same function again
        last = finished.get(fid)
        if last is None:
            arrival = clock.now + rng.uniform(0.0, 1_000.0)
        else:
            if rng.random() < 0.5:
                gap = rng.uniform(MIN_IDLE_MS, KEEPALIVE_MS - MARGIN_MS)
            else:
                gap = rng.uniform(KEEPALIVE_MS + MARGIN_MS,
                                  KEEPALIVE_MS + MARGIN_MS + 6_000.0)
            arrival = max(clock.now, last + gap)
            if arrival - last < MIN_IDLE_MS:
                arrival = last + MIN_IDLE_MS
            elif abs(arrival - last - KEEPALIVE_MS) < MARGIN_MS:
                arrival = last + KEEPALIVE_MS + MARGIN_MS \
                    + rng.uniform(0.0, 1_000.0)
        while next_tick <= arrival:
            clock.advance(next_tick - clock.now)
            platform.gc_tick()
            next_tick += 1_000.0
        clock.advance(arrival - clock.now)
        times.append(clock.now)
        fids.append(fid)
        platform.invoke(names[fid])
        finished[fid] = clock.now
        if next_tick <= clock.now:
            # The GC passes the request spanned, caught up at its end.
            platform.gc_tick()
            next_tick = 1_000.0 * (math.floor(clock.now / 1_000.0) + 1)
    cold = [record.cold_start for record in platform.router.stats.records]
    return times, fids, cold


class TestAgainstThePlatform:
    def test_per_request_cold_warm_sequence_matches_faas_platform(self):
        times, fids, platform_cold = _platform_trace(seed=11, requests=300)
        model = make_model(functions=FUNCTIONS, compute_nodes=2,
                           keepalive_ms=KEEPALIVE_MS, max_replicas=16,
                           service_ms=SERVICE_MS)
        outcomes = run_per_request(model, times, fids)
        assert [o == "cold" for o in outcomes] == platform_cold

        # The trace can tell the idle clocks apart: some warm starts
        # come more than a keep-alive after the previous arrival.
        previous = {}
        late_warm = 0
        for t, fid, cold in zip(times, fids, platform_cold):
            if not cold and t - previous[fid] > KEEPALIVE_MS:
                late_warm += 1
            previous[fid] = t
        assert late_warm >= 20
        assert 30 <= sum(platform_cold) <= 270
