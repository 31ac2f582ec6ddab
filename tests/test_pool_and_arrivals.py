"""Tests for the warm-pool baseline, arrival generators and the
platform-level cold-start study."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.arrivals import (
    bursty_arrivals,
    diurnal_arrivals,
    poisson_arrivals,
)
from repro.bench.platform_study import (
    compare_strategies,
    render_study,
    run_platform_study,
    run_pool_study,
)
from repro.core.starters import VanillaStarter
from repro.faas.pool import WarmPool
from repro.functions import NoopFunction


@pytest.fixture
def pool(kernel):
    return WarmPool(kernel, VanillaStarter(kernel), NoopFunction, size=2)


class TestWarmPool:
    def test_refill_tops_up(self, pool):
        assert pool.refill() == 2
        assert pool.idle_count == 2
        assert pool.refill() == 0

    def test_take_hit_consumes_idle(self, pool):
        pool.refill()
        handle = pool.take()
        assert handle.runtime.ready
        assert pool.idle_count == 1
        assert pool.stats.hits == 1

    def test_take_miss_cold_starts(self, pool, kernel):
        t0 = kernel.clock.now
        handle = pool.take()
        assert pool.stats.misses == 1
        assert handle.runtime.ready
        assert kernel.clock.now - t0 > 50.0  # paid a vanilla cold start

    def test_hit_is_instant(self, pool, kernel):
        pool.refill()
        t0 = kernel.clock.now
        pool.take()
        assert kernel.clock.now == t0  # no start-up charged on a hit

    def test_serve_returns_replica_to_pool(self, pool):
        pool.refill()
        response = pool.serve()
        assert response.ok
        assert pool.idle_count == 2

    def test_idle_cost_accrues_over_time(self, pool, kernel):
        pool.refill()
        kernel.clock.advance(1000.0)
        cost = pool.snapshot_idle_cost()
        # 2 idle replicas x ~13 MiB x 1000 ms.
        assert cost == pytest.approx(2 * 13.0 * 1000.0, rel=0.1)

    def test_zero_size_pool_always_misses(self, kernel):
        pool = WarmPool(kernel, VanillaStarter(kernel), NoopFunction, size=0)
        pool.refill()
        pool.take()
        assert pool.stats.misses == 1

    def test_negative_size_rejected(self, kernel):
        with pytest.raises(ValueError):
            WarmPool(kernel, VanillaStarter(kernel), NoopFunction, size=-1)


class TestArrivals:
    def test_poisson_rate_approximately_met(self):
        trace = poisson_arrivals(rate_per_s=50, duration_ms=60_000, seed=1)
        assert len(trace) == pytest.approx(3000, rel=0.15)

    def test_poisson_sorted_and_in_range(self):
        trace = poisson_arrivals(10, 10_000, seed=2)
        assert trace == sorted(trace)
        assert all(0 < t < 10_000 for t in trace)

    def test_poisson_deterministic_per_seed(self):
        assert poisson_arrivals(10, 5000, seed=3) == poisson_arrivals(10, 5000, seed=3)

    def test_poisson_invalid_args(self):
        with pytest.raises(ValueError):
            poisson_arrivals(0, 1000)
        with pytest.raises(ValueError):
            poisson_arrivals(10, 0)

    def test_bursty_has_quiet_gaps(self):
        trace = bursty_arrivals(50, 300_000, mean_on_ms=1000,
                                mean_off_ms=20_000, seed=4)
        gaps = [b - a for a, b in zip([0.0] + trace, trace)]
        assert max(gaps) > 5_000  # real silence between bursts
        assert min(gaps) < 100    # dense trains inside bursts

    def test_bursty_sorted(self):
        trace = bursty_arrivals(20, 100_000, seed=5)
        assert trace == sorted(trace)

    def test_bursty_invalid_args(self):
        with pytest.raises(ValueError):
            bursty_arrivals(10, 1000, mean_on_ms=0)

    def test_diurnal_rate_varies_with_phase(self):
        period = 100_000.0
        trace = diurnal_arrivals(100, period, period_ms=period,
                                 floor_fraction=0.05, seed=6)
        trough = sum(1 for t in trace if t < period * 0.25)
        peak = sum(1 for t in trace if period * 0.4 < t < period * 0.65)
        assert peak > 3 * trough

    def test_diurnal_invalid_floor(self):
        with pytest.raises(ValueError):
            diurnal_arrivals(10, 1000, floor_fraction=1.5)

    @given(rate=st.floats(min_value=1.0, max_value=200.0),
           seed=st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_poisson_properties(self, rate, seed):
        trace = poisson_arrivals(rate, 20_000, seed=seed)
        assert trace == sorted(trace)
        assert all(t >= 0 for t in trace)


class TestPlatformStudy:
    @pytest.fixture(scope="class")
    def trace(self):
        return bursty_arrivals(20, 300_000, mean_on_ms=2000,
                               mean_off_ms=40_000, seed=7)

    def test_prebake_cuts_cold_latency_not_frequency(self, trace):
        vanilla = run_platform_study("markdown", "vanilla", trace,
                                     idle_timeout_ms=20_000)
        prebake = run_platform_study("markdown", "prebake", trace,
                                     idle_timeout_ms=20_000)
        # Same GC policy → same cold-start frequency...
        assert vanilla.cold_starts == prebake.cold_starts
        # ...but prebaking halves the tail latency those cause.
        assert prebake.latency_p(0.99) < 0.7 * vanilla.latency_p(0.99)

    def test_pool_eliminates_cold_waits_at_memory_cost(self, trace):
        pool = run_pool_study("markdown", trace, pool_size=1)
        assert pool.latency_p(0.99) == 0.0
        assert pool.idle_mib_ms > 0

    def test_compare_strategies_render(self, trace):
        results = compare_strategies("noop", trace[:40],
                                     idle_timeout_ms=10_000)
        text = render_study(results, "test study")
        assert "vanilla" in text and "prebake" in text and "pool-1" in text

    def test_shorter_timeout_more_cold_starts(self):
        trace = poisson_arrivals(0.5, 400_000, seed=8)
        short = run_platform_study("noop", "prebake", trace,
                                   idle_timeout_ms=500.0)
        long = run_platform_study("noop", "prebake", trace,
                                  idle_timeout_ms=120_000.0)
        assert short.cold_starts > long.cold_starts
        assert long.idle_mib_ms > short.idle_mib_ms
