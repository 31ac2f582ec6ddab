"""Autoscaler prewarm integration: the action record, waste
accounting, forecast-driven pre-placement, and chunk prefetch."""

import dataclasses

import pytest

from repro import make_world, obs
from repro.core.bake import Prebaker
from repro.core.policy import AfterWarmup
from repro.criu.chunkcache import HotChunkCache
from repro.faas.autoscaler import AutoscalerConfig
from repro.faas.platform import FaaSPlatform, PlatformConfig
from repro.faas.registry import RegistryError
from repro.functions.base import make_app
from repro.predict.policy import HistogramEwmaPolicy, PrewarmConfig


def _platform(kernel, **kwargs) -> FaaSPlatform:
    return FaaSPlatform(kernel, PlatformConfig(**kwargs))


def _actions(kernel, action: str) -> float:
    return kernel.obs.metrics.value("autoscaler_actions_total",
                                    {"action": action})


def _wasted_ms(kernel, function: str) -> float:
    return kernel.obs.metrics.value("autoscaler_wasted_warm_ms_total",
                                    {"function": function})


class TestActionRecord:
    def test_flight_tape_and_counter_agree_for_every_action(self):
        world = make_world(seed=3, observe=True)
        kernel = world.kernel
        tape = obs.install_flight(kernel)
        platform = _platform(
            kernel,
            autoscaler=AutoscalerConfig(min_replicas=1,
                                        idle_timeout_ms=1_000.0),
            prewarm=PrewarmConfig(policy="histogram", window_ms=200.0,
                                  service_ms_hint=500.0))
        platform.register_function(lambda: make_app("markdown"))
        platform.gc_tick()                                  # heal
        (replica,) = platform.deployer.replicas("markdown")
        kernel.kill(replica.handle.process.pid)
        platform.gc_tick()                                  # reap + heal
        platform.scale("markdown", 3)                       # scale-up
        kernel.clock.advance(5_000.0)
        platform.gc_tick()                                  # gc
        for _ in range(60):                                 # prewarm
            platform.invoke("markdown")
            kernel.clock.advance(40.0)
            platform.gc_tick()
        taped = [e for e in tape.events()
                 if e.kind == obs.flight.AUTOSCALER_ACTION]
        assert tape.dropped == 0
        for action in ("scale-up", "gc", "reap", "heal", "prewarm"):
            on_tape = [e for e in taped if e.attrs["action"] == action]
            assert on_tape, action
            assert all(e.attrs["function"] == "markdown" for e in on_tape)
            assert len(on_tape) == _actions(kernel, action), action
        assert len(taped) == kernel.obs.metrics.value(
            "autoscaler_actions_total")


class TestWasteAccounting:
    def test_idle_gc_accrues_wasted_warm_ms(self):
        world = make_world(seed=5, observe=True)
        platform = _platform(world.kernel)
        platform.register_function(lambda: make_app("markdown"),
                                   idle_timeout_ms=1_000.0)
        platform.invoke("markdown")
        world.kernel.clock.advance(5_000.0)
        platform.gc_tick()
        assert platform.replica_count("markdown") == 0
        assert _wasted_ms(world.kernel, "markdown") >= 5_000.0
        assert _actions(world.kernel, "gc") == 1

    def test_no_waste_accrued_while_replicas_stay_busy(self):
        world = make_world(seed=6, observe=True)
        platform = _platform(world.kernel)
        platform.register_function(lambda: make_app("markdown"),
                                   idle_timeout_ms=60_000.0)
        platform.invoke("markdown")
        platform.gc_tick()
        assert _wasted_ms(world.kernel, "markdown") == 0.0


class TestPrewarmPass:
    def _warm_platform(self, seed=7):
        world = make_world(seed=seed, observe=True)
        platform = _platform(world.kernel, prewarm=PrewarmConfig(
            policy="histogram", window_ms=200.0, service_ms_hint=500.0))
        platform.register_function(lambda: make_app("markdown"),
                                   start_technique="prebake",
                                   cache_policy="freq-over-size")
        for _ in range(60):
            platform.invoke("markdown")
            world.kernel.clock.advance(40.0)
            platform.gc_tick()
        return world, platform

    def test_default_platform_has_no_prewarm_layer(self):
        world = make_world(seed=8, observe=True)
        platform = _platform(world.kernel)
        assert platform.prewarm is None
        platform.register_function(lambda: make_app("markdown"))
        platform.invoke("markdown")      # note_arrival must be a no-op
        platform.gc_tick()

    def test_forecast_drives_prewarm_provisioning(self):
        world, platform = self._warm_platform()
        stats = platform.prewarm.stats
        assert stats.plans > 0
        assert stats.windows_fed > 0
        assert stats.prewarm_replicas > 0
        assert _actions(world.kernel, "prewarm") > 0
        # Pre-placed capacity is real, live replicas.
        assert platform.replica_count("markdown") > 1

    def test_prewarm_respects_max_replica_limits(self):
        world = make_world(seed=9, observe=True)
        platform = _platform(
            world.kernel,
            autoscaler=AutoscalerConfig(max_replicas=2),
            prewarm=PrewarmConfig(policy="histogram", window_ms=200.0,
                                  service_ms_hint=500.0,
                                  max_warm_per_function=8))
        platform.register_function(lambda: make_app("markdown"))
        for _ in range(60):
            platform.invoke("markdown")
            world.kernel.clock.advance(40.0)
            platform.gc_tick()
        assert platform.replica_count("markdown") <= 2

    def test_unregistered_function_is_skipped_not_fatal(self):
        # Arrivals of a function the registry does not know still feed
        # the forecaster; once it asks for a replica the prewarm pass
        # must skip the function instead of crashing the tick.
        world = make_world(seed=14, observe=True)
        platform = _platform(world.kernel, prewarm=PrewarmConfig(
            policy="histogram", window_ms=200.0, service_ms_hint=500.0))
        for _ in range(60):
            with pytest.raises(RegistryError):
                platform.invoke("nope")
            world.kernel.clock.advance(40.0)
            platform.gc_tick()
        assert platform.prewarm.stats.prefetch_requests > 0
        assert _actions(world.kernel, "prewarm") == 0

    def test_function_unregistered_after_traffic_is_skipped(self):
        world, platform = self._warm_platform(seed=15)
        platform.registry.unregister("markdown")
        stats = platform.prewarm.stats
        planned = stats.prefetch_requests
        for _ in range(20):
            world.kernel.clock.advance(40.0)
            platform.gc_tick()
        assert stats.prefetch_requests > planned   # still forecast, skipped

    def test_prewarm_plans_request_prefetch(self):
        _, platform = self._warm_platform(seed=10)
        assert platform.prewarm.stats.prefetch_requests > 0

    def test_prefetch_warms_the_node_cache_before_first_restore(self):
        world = make_world(seed=13, observe=True)
        platform = _platform(world.kernel)
        platform.register_function(lambda: make_app("markdown"),
                                   start_technique="prebake",
                                   cache_policy="freq-over-size")
        # No replica has restored yet, so the node cache is cold and
        # the predicted working set actually gets admitted.
        admitted = platform.deployer.prefetch_function("markdown")
        assert admitted > 0
        caches = platform.deployer._node_chunk_cache
        assert any(cache.stats.prefetches > 0 for cache in caches.values())
        # Prefetch is idempotent: a second pass finds everything
        # resident and admits nothing new.
        assert platform.deployer.prefetch_function("markdown") == 0

    def test_prefetch_function_is_a_noop_for_vanilla(self):
        world = make_world(seed=11, observe=True)
        platform = _platform(world.kernel)
        platform.register_function(lambda: make_app("markdown"),
                                   start_technique="vanilla")
        assert platform.deployer.prefetch_function("markdown") == 0


class TestPrefetchResidentImage:
    """Prefetch of an image the node cache fully holds returns at once,
    and the memo of that finding goes stale on eviction or rebake."""

    def _setup(self):
        world = make_world(seed=13, observe=True)
        platform = _platform(world.kernel)
        platform.register_function(lambda: make_app("markdown"),
                                   start_technique="prebake",
                                   cache_policy="freq-over-size")
        deployer = platform.deployer
        key = deployer._snapshot_key(platform.registry.lookup("markdown"))
        layered = deployer.prebake_manager.store.layered(key)
        # Room for exactly the image's distinct chunks.
        sizes = {ref.chunk_id: ref.size_bytes for ref in layered.chunk_refs}
        node = platform.resources.nodes[0].name
        cache = HotChunkCache(capacity_bytes=sum(sizes.values()),
                              policy="freq-over-size")
        deployer._node_chunk_cache[node] = cache
        assert deployer.prefetch_function("markdown") > 0
        assert all(cache.contains(cid) for cid in sizes)
        return world, deployer, key, node, cache, sizes

    @staticmethod
    def _state(cache):
        return (dataclasses.asdict(cache.stats), dict(cache._freq),
                cache._tick, list(cache._resident.items()))

    @staticmethod
    def _count_ranking(deployer):
        calls = []
        top = deployer.chunk_sketch.top
        deployer.chunk_sketch = _SketchSpy(top, calls)
        return calls

    def test_resident_image_leaves_the_cache_untouched(self):
        _, deployer, _, node, cache, _ = self._setup()
        before = self._state(cache)
        ranked = self._count_ranking(deployer)
        for _ in range(3):
            assert deployer.prefetch_function("markdown") == 0
        assert self._state(cache) == before
        assert ranked == []

    def test_an_eviction_of_one_chunk_is_admitted_again(self):
        _, deployer, _, node, cache, sizes = self._setup()
        assert deployer.prefetch_function("markdown") == 0  # memoised
        # Make one chunk the coldest (every other one is read again),
        # then a foreign chunk of its size displaces it.
        coldest = sorted(cid for cid, size in sizes.items()
                         if size == max(sizes.values()))[0]
        for cid, size in sizes.items():
            if cid != coldest:
                cache.lookup(cid, size)
        evictions = cache.stats.evictions
        cache.lookup("foreign-chunk", sizes[coldest])
        assert cache.stats.evictions == evictions + 1
        assert not cache.contains(coldest)
        ranked = self._count_ranking(deployer)
        assert deployer.prefetch_function("markdown") \
            == sizes[coldest]
        assert ranked == [1]
        assert all(cache.contains(cid) for cid in sizes)
        assert not cache.contains("foreign-chunk")

    def test_a_rebake_with_a_new_image_ranks_again(self):
        world, deployer, key, node, cache, sizes = self._setup()
        assert deployer.prefetch_function("markdown") == 0  # memoised
        warm = Prebaker(world.kernel).bake(make_app("markdown"),
                                           policy=AfterWarmup(1)).image
        store = deployer.prebake_manager.store
        store.put(key, warm)
        fresh = {ref.chunk_id for ref in store.layered(key).chunk_refs}
        assert fresh - set(sizes)              # some chunks are new
        ranked = self._count_ranking(deployer)
        assert deployer.prefetch_function("markdown") > 0
        assert ranked == [1]


class _SketchSpy:
    """Stands in for the deployer's chunk sketch and counts rankings."""

    def __init__(self, top, calls):
        self._top = top
        self._calls = calls

    def top(self, k):
        self._calls.append(1)
        return self._top(k)


class TestKeepAliveOverride:
    def test_policy_keepalive_replaces_fixed_timeout(self):
        world = make_world(seed=12, observe=True)
        platform = _platform(world.kernel, prewarm=PrewarmConfig(
            policy="histogram", window_ms=200.0,
            keepalive_floor_ms=100.0, keepalive_cap_ms=500.0))
        platform.register_function(lambda: make_app("markdown"),
                                   idle_timeout_ms=60_000.0)
        # Long, regular gaps: the histogram's scale-to-zero fast path
        # collapses keep-alive to the floor, far below the fixed
        # timeout, so the idle replica is GC'd almost immediately.
        # The gaps are also a timer: the schedule, due 0.9 gaps after
        # the last arrival, places one replica after the GC.
        for _ in range(12):
            platform.invoke("markdown")
            world.kernel.clock.advance(2_000.0)
        platform.gc_tick()
        assert _actions(world.kernel, "gc") == 1
        assert _wasted_ms(world.kernel, "markdown") > 0.0
        assert _actions(world.kernel, "prewarm") == 1


class TestTimerSchedule:
    def test_periodic_function_is_warm_off_the_schedule(self):
        # One function invoked every 60 s, twice the default 30 s
        # keep-alive cap, with the reconciler ticking every second.
        period_s = 60
        world = make_world(seed=16, observe=True)
        kernel = world.kernel
        platform = _platform(kernel, prewarm=PrewarmConfig())
        platform.register_function(lambda: make_app("markdown"))
        samples = HistogramEwmaPolicy.SCHEDULE_MIN_SAMPLES
        colds = []
        for arrival in range(samples + 4):
            platform.invoke("markdown")
            colds.append(platform.router.stats.records[-1].cold_start)
            live = []
            for _ in range(period_s):
                kernel.clock.advance(1_000.0)
                platform.gc_tick()
                live.append(platform.replica_count("markdown"))
            if arrival >= samples:
                # The keep-alive floor GCs the serving replica within
                # seconds; the schedule then places one shortly before
                # the next arrival, and the hold keeps it through the
                # ticks that remain until then.
                assert 0 in live
                placed = live.index(1, live.index(0))
                assert all(count == 1 for count in live[placed:])
        assert _actions(kernel, "prewarm") >= 4
        assert platform.prewarm.hold_end_ms("markdown") > kernel.clock.now
        # After the histogram holds SCHEDULE_MIN_SAMPLES gaps, every
        # arrival finds the scheduled replica warm.
        assert not any(colds[samples + 1:])
