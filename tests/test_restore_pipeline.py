"""Tests for the pipelined restore engine (PR 5).

Covers the cost-model pipeline plan (with the hypothesis properties the
issue pins: pipelined <= serial everywhere, exact equality at one
worker), the hot-chunk cache policies, the span-leak fix on
fault-injected pipelined restores, and the parallel bench harness's
serial/parallel determinism.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults, make_world
from repro.criu.checkpoint import CheckpointEngine
from repro.criu.chunkcache import (
    FREQ_OVER_SIZE,
    LRU,
    HotChunkCache,
    make_cache,
)
from repro.criu.pagestore import image_chunk_runs
from repro.criu.restore import RestoreEngine
from repro.faults import FaultPlan
from repro.faults.errors import RestoreFailed
from repro.functions import make_app
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import RESTORE_PIPELINE_RAMP, install as install_profiler
from repro.obs.slo import CHUNK_CACHE_HIT_RATE, evaluate_slos
from repro.sim.costmodel import DEFAULT_COST_MODEL


# ---------------------------------------------------------------------------
# Cost-model pipeline plan
# ---------------------------------------------------------------------------


class TestPipelinePlan:
    def test_single_worker_no_cache_is_exactly_serial(self):
        plan = DEFAULT_COST_MODEL.plan_restore_pipeline(
            42.8, workers=1, chunk_count=400)
        # Bit-identical, not approximately: the default restore path
        # must reproduce the committed fig3-7/table1 charges.
        assert plan.total_ms == 42.8
        assert plan.serial_ms == 42.8
        assert not plan.pipelined

    def test_workers_below_one_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            DEFAULT_COST_MODEL.plan_restore_pipeline(10.0, workers=0)

    @given(
        pages_ms=st.floats(min_value=0.0, max_value=10_000.0),
        workers=st.integers(min_value=1, max_value=64),
        chunk_count=st.integers(min_value=1, max_value=5_000),
        cached_fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200)
    def test_pipelined_never_slower_than_serial(self, pages_ms, workers,
                                                chunk_count, cached_fraction):
        """The issue's property: for every (workers, chunk count,
        bandwidth) point the overlapped plan charges at most the serial
        cost, and exactly the serial cost at one worker with no hits."""
        plan = DEFAULT_COST_MODEL.plan_restore_pipeline(
            pages_ms, workers=workers, chunk_count=chunk_count,
            cached_fraction=cached_fraction)
        assert plan.total_ms <= plan.serial_ms + 1e-9
        assert plan.total_ms <= pages_ms + 1e-9
        assert plan.total_ms >= 0.0
        if workers == 1 and cached_fraction == 0.0:
            assert plan.total_ms == pages_ms

    @given(
        pages_ms=st.floats(min_value=1.0, max_value=1_000.0),
        workers=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=100)
    def test_more_workers_never_hurt(self, pages_ms, workers):
        narrow = DEFAULT_COST_MODEL.plan_restore_pipeline(
            pages_ms, workers=workers, chunk_count=64)
        wide = DEFAULT_COST_MODEL.plan_restore_pipeline(
            pages_ms, workers=workers + 1, chunk_count=64)
        assert wide.total_ms <= narrow.total_ms + 1e-9


# ---------------------------------------------------------------------------
# Restore engine integration
# ---------------------------------------------------------------------------


def _big_image(kernel, mib=64.0):
    proc = kernel.clone(kernel.init_process, comm="fn")
    proc.address_space.grow_anon("heap", mib, content_tag="heap")
    return CheckpointEngine(kernel).dump(proc, leave_running=False)


class TestRestoreEnginePipeline:
    def test_default_engine_matches_explicit_single_worker(self):
        """pipeline_workers=1 must be byte-identical to the legacy
        engine: same clock advance from the same seed."""
        durations = []
        for engine_kwargs in ({}, {"pipeline_workers": 1}):
            world = make_world(seed=77)
            kernel = world.kernel
            image = _big_image(kernel)
            engine = RestoreEngine(kernel, **engine_kwargs)
            before = kernel.clock.now
            engine.restore(image)
            durations.append(kernel.clock.now - before)
        assert durations[0] == durations[1]

    def test_pipelined_restore_is_faster(self, quiet_kernel):
        image = _big_image(quiet_kernel)
        serial = RestoreEngine(quiet_kernel)
        wide = RestoreEngine(quiet_kernel, pipeline_workers=4)
        before = quiet_kernel.clock.now
        serial.restore(image)
        serial_ms = quiet_kernel.clock.now - before
        before = quiet_kernel.clock.now
        wide.restore(image)
        wide_ms = quiet_kernel.clock.now - before
        assert wide_ms < serial_ms

    def test_warm_cache_restore_is_faster_than_cold(self, quiet_kernel):
        image = _big_image(quiet_kernel)
        engine = RestoreEngine(quiet_kernel, pipeline_workers=4,
                               chunk_cache=HotChunkCache(
                                   policy=FREQ_OVER_SIZE))
        before = quiet_kernel.clock.now
        engine.restore(image)
        cold_ms = quiet_kernel.clock.now - before
        before = quiet_kernel.clock.now
        engine.restore(image)
        warm_ms = quiet_kernel.clock.now - before
        assert warm_ms < cold_ms
        assert engine.chunk_cache.stats.hits > 0

    def test_invalid_worker_count_rejected(self, kernel):
        with pytest.raises(ValueError, match="pipeline_workers"):
            RestoreEngine(kernel, pipeline_workers=0)

    def test_profiler_records_pipeline_ramp(self):
        kernel = make_world(seed=5).kernel
        kernel.costs = replace(DEFAULT_COST_MODEL, noise_sigma=0.0)
        profiler = install_profiler(kernel)
        image = _big_image(kernel)
        profiler.reset()   # drop the dump's samples; measure the restore
        before = kernel.clock.now
        RestoreEngine(kernel, pipeline_workers=4).restore(image)
        charged = kernel.clock.now - before
        samples = profiler.reset()
        ramp = [s for s in samples if s.phase == RESTORE_PIPELINE_RAMP]
        assert len(ramp) == 1
        assert ramp[0].attrs["workers"] == 4
        # The restore sub-phases still account for the whole charge
        # minus the criu spawn (clone+exec recorded separately).
        restore_ms = sum(s.duration_ms for s in samples
                         if s.phase.startswith("restore."))
        spawn_ms = sum(s.duration_ms for s in samples
                       if not s.phase.startswith("restore."))
        assert restore_ms + spawn_ms == pytest.approx(charged)


class TestSpanLeakRegression:
    def test_failed_pipelined_restore_leaves_no_open_spans(self):
        """The issue's regression: with restore.fail armed, the
        pipeline-worker spans opened for an N-worker restore must be
        closed when the fault unwinds the attempt."""
        world = make_world(seed=9, observe=True)
        kernel = world.kernel
        faults.install(kernel, FaultPlan.of(restore_fail=1.0))
        image = _big_image(kernel, mib=8.0)
        engine = RestoreEngine(kernel, pipeline_workers=4)
        with pytest.raises(RestoreFailed):
            engine.restore(image)
        assert kernel.obs.tracer.open_spans() == []
        worker_spans = [s for s in kernel.obs.tracer.spans
                        if s.name == "restore.pipeline-worker"]
        assert len(worker_spans) == 4
        assert all(s.end_ms is not None for s in worker_spans)


# ---------------------------------------------------------------------------
# Hot-chunk cache
# ---------------------------------------------------------------------------


class TestHotChunkCache:
    def test_hits_after_admission(self):
        cache = HotChunkCache(capacity_bytes=1024, policy=LRU)
        assert cache.lookup("a", 100) is False
        assert cache.lookup("a", 100) is True
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_ratio == 0.5

    def test_lru_evicts_least_recent(self):
        cache = HotChunkCache(capacity_bytes=250, policy=LRU)
        cache.lookup("a", 100)
        cache.lookup("b", 100)
        cache.lookup("a", 100)            # refresh a
        cache.lookup("c", 100)            # evicts b, the stale one
        assert cache.contains("a")
        assert cache.contains("c")
        assert not cache.contains("b")
        assert cache.stats.evictions == 1

    def test_freq_over_size_protects_hot_small_chunks(self):
        cache = HotChunkCache(capacity_bytes=300, policy=FREQ_OVER_SIZE)
        for _ in range(5):
            cache.lookup("hot-small", 100)
        # A big one-shot chunk scores 1/250 < hot-small's 5/100: the
        # admission filter keeps it out instead of evicting the hot one.
        assert cache.lookup("cold-big", 250) is False
        assert cache.contains("hot-small")
        assert not cache.contains("cold-big")
        assert cache.stats.admission_rejects >= 1

    def test_oversized_chunk_never_admitted(self):
        cache = HotChunkCache(capacity_bytes=100)
        cache.lookup("huge", 500)
        assert not cache.contains("huge")
        assert cache.used_bytes == 0

    def test_deterministic_across_instances(self):
        def drive(cache):
            outcomes = []
            for key, size in [("a", 60), ("b", 60), ("a", 60),
                              ("c", 60), ("b", 60), ("a", 60)]:
                outcomes.append(cache.lookup(key, size))
            return outcomes, sorted(cache._resident)

        first = drive(HotChunkCache(capacity_bytes=128, policy=FREQ_OVER_SIZE))
        second = drive(HotChunkCache(capacity_bytes=128, policy=FREQ_OVER_SIZE))
        assert first == second

    @given(policy=st.sampled_from([LRU, FREQ_OVER_SIZE]),
           ops=st.lists(st.tuples(st.booleans(),
                                  st.integers(min_value=0, max_value=9),
                                  st.integers(min_value=10, max_value=120)),
                        max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_victim_is_the_min_stamp_victim(self, policy, ops):
        # The recency-ordered resident map must pick exactly the victim
        # a scan for the minimum (score,) stamp picks.
        cache = HotChunkCache(capacity_bytes=300, policy=policy)

        def reference():
            def key(cid):
                size, stamp = cache._resident[cid]
                if policy == LRU:
                    return (stamp,)
                return (cache._score(cid, size), stamp)
            return min(cache._resident, key=key)

        for is_prefetch, chunk, size in ops:
            op = cache.prefetch if is_prefetch else cache.lookup
            op(f"c{chunk}", size)
            stamps = [stamp for _, stamp in cache._resident.values()]
            assert stamps == sorted(stamps)
            if cache._resident:
                assert cache._pick_victim() == reference()

    def test_make_cache_knob_values(self):
        assert make_cache(None) is None
        assert make_cache("none") is None
        assert make_cache("off") is None
        assert make_cache(FREQ_OVER_SIZE).policy == FREQ_OVER_SIZE
        assert make_cache(LRU).policy == LRU
        with pytest.raises(ValueError, match="policy"):
            make_cache("clock")


# ---------------------------------------------------------------------------
# Memoization
# ---------------------------------------------------------------------------


class TestMemoization:
    def test_page_content_key_is_cached(self):
        from repro.osproc.memory import page_content_key
        page_content_key.cache_clear()
        first = page_content_key("tag-x")
        hits_before = page_content_key.cache_info().hits
        assert page_content_key("tag-x") == first
        assert page_content_key.cache_info().hits == hits_before + 1

    def test_image_chunk_runs_memoized_until_generation_bump(self, kernel):
        image = _big_image(kernel, mib=4.0)
        first = image_chunk_runs(image)
        assert image_chunk_runs(image) is first
        image.generation += 1
        assert image_chunk_runs(image) is not first
        assert image_chunk_runs(image) == first  # same content, recomputed


# ---------------------------------------------------------------------------
# SLO wiring
# ---------------------------------------------------------------------------


class TestChunkCacheSLO:
    def test_no_data_is_healthy(self):
        (status,) = [s for s in evaluate_slos(MetricsRegistry())
                     if s.slo is CHUNK_CACHE_HIT_RATE]
        assert status.healthy
        assert status.burn_rate is None

    def test_cache_hits_feed_the_slo(self):
        world = make_world(seed=13, observe=True)
        kernel = world.kernel
        image = _big_image(kernel, mib=4.0)
        engine = RestoreEngine(
            kernel, chunk_cache=HotChunkCache(policy=FREQ_OVER_SIZE))
        engine.restore(image)
        engine.restore(image)
        registry = kernel.obs.metrics
        assert registry.value("chunk_cache_lookups_total") > 0
        (status,) = [s for s in evaluate_slos(registry)
                     if s.slo is CHUNK_CACHE_HIT_RATE]
        assert status.burn_rate is not None
        # Hits over hits + misses is the lookups' miss share, unchanged.
        assert status.bad_fraction == (
            registry.value("chunk_cache_misses_total")
            / registry.value("chunk_cache_lookups_total"))
        assert 0.0 < status.bad_fraction < 1.0


# ---------------------------------------------------------------------------
# Parallel bench harness
# ---------------------------------------------------------------------------


class TestHarnessWorkers:
    def test_parallel_samples_identical_to_serial(self):
        from repro.bench.harness import run_startup_experiment
        serial = run_startup_experiment("noop", "prebake",
                                        repetitions=4, seed=7)
        fanned = run_startup_experiment("noop", "prebake",
                                        repetitions=4, seed=7, workers=3)
        assert fanned.values == serial.values
        assert [s.repetition for s in fanned.samples] == [0, 1, 2, 3]

    def test_workers_must_be_positive(self):
        from repro.bench.harness import run_startup_experiment
        with pytest.raises(ValueError, match="workers"):
            run_startup_experiment("noop", "vanilla", repetitions=1, workers=0)

    def test_callable_function_falls_back_to_serial(self):
        from repro.bench.harness import run_startup_experiment
        factory = lambda: make_app("noop")  # noqa: E731 - unpicklable on purpose
        serial = run_startup_experiment(factory, "vanilla",
                                        repetitions=2, seed=3)
        fanned = run_startup_experiment(factory, "vanilla",
                                        repetitions=2, seed=3, workers=4)
        assert fanned.values == serial.values


# ---------------------------------------------------------------------------
# The X8 sweep and the acceptance criterion
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestRestorePipelineSweep:
    def test_image_resizer_meets_the_improvement_bar(self):
        from repro.bench.restore_sweep import restore_pipeline_sweep
        result = restore_pipeline_sweep(
            repetitions=6, seed=42,
            workers_grid=(1, 4),
            cache_policies=("none", "freq-over-size"))
        cell = result.cell("image-resizer", 4, "freq-over-size")
        assert cell.improvement_pct >= 25.0
        assert cell.hit_ratio > 0.5
        assert result.render()
