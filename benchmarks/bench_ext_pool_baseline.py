"""Extension benchmark — prebaking vs the warm-pool baseline [14].

Replays a bursty arrival trace against three strategies and reports the
trade-off the paper's introduction frames: the pool removes cold-start
waits entirely but pays a standing memory cost; prebaking shrinks the
waits without holding instances; vanilla pays full price.
"""

import pytest

from repro.bench.arrivals import bursty_arrivals
from repro.bench.platform_study import compare_strategies, render_study


@pytest.mark.benchmark(group="extension")
def test_ext_pool_baseline(benchmark, record_result):
    trace = bursty_arrivals(burst_rate_per_s=20, duration_ms=600_000,
                            mean_on_ms=2_000, mean_off_ms=60_000, seed=42)
    results = benchmark.pedantic(
        lambda: compare_strategies("markdown", trace,
                                   idle_timeout_ms=30_000),
        rounds=1, iterations=1,
    )
    record_result(
        "ext_pool_baseline",
        render_study(results, "Bursty trace (10 min), markdown, "
                              "30 s idle timeout"),
    )
    by_name = {r.strategy: r for r in results}
    vanilla, prebake, pool = (by_name["vanilla"], by_name["prebake"],
                              by_name["pool-1"])
    for r in results:
        benchmark.extra_info[f"{r.strategy}_p99_ms"] = round(r.latency_p(0.99), 2)
        benchmark.extra_info[f"{r.strategy}_cold_pct"] = round(
            100 * r.cold_fraction, 2)
    # Same GC policy → same cold-start frequency; prebake cuts the wait.
    assert prebake.cold_starts == vanilla.cold_starts
    assert prebake.latency_p(0.99) < 0.7 * vanilla.latency_p(0.99)
    # The pool trades memory for zero waits.
    assert pool.latency_p(0.99) == 0.0
    assert pool.idle_mib_ms > 0
