"""Benchmark — chaos recovery: fault-injection sweep over both start
techniques (extension beyond the paper; robustness of the prebake path).

Expectations: every request succeeds at every fault rate (restores
retry then fall back to vanilla; crashed replicas are reaped and the
request re-dispatched); with faults off nothing fires; at a 100 %
restore-failure rate the prebake technique degrades to roughly vanilla
speed plus the configured retry budget instead of failing.
"""

import pytest

from repro.bench import fault_sweep
from repro.faults import retry


@pytest.mark.benchmark(group="chaos")
def test_chaos_recovery(benchmark, bench_reps, record_result):
    reps = max(5, bench_reps // 10)
    result = benchmark.pedantic(
        lambda: fault_sweep.run("chaos", repetitions=reps, seed=42),
        rounds=1, iterations=1,
    )
    record_result("chaos_recovery", result.render())
    for r in result.cells:
        benchmark.extra_info[
            f"rate{r.cell.rate:.2f}_{r.cell.technique}_p50_ms"
        ] = round(r.cold_p50(), 2)
        # Resilience invariant: no request is ever lost to a fault.
        assert r.success_rate == 1.0

    # Faults off: the injector must not fire and no fallback happens.
    for technique in ("vanilla", "prebake"):
        calm = result.cell(rate=0.0, technique=technique)
        assert calm.faults_fired == 0
        assert calm.counts["fallback"] == 0

    # Full restore failure: every prebake cold start burned its retry
    # budget and fell back to vanilla — so its p50 sits near vanilla's
    # plus the retry overhead (failed attempts, possible hang delays,
    # backoff), never unboundedly worse.
    worst = result.cell(rate=1.0, technique="prebake")
    vanilla = result.cell(rate=1.0, technique="vanilla")
    assert worst.counts["fallback"] > 0
    assert worst.counts["retry"] > 0
    retry_budget = (
        retry.total_backoff_ms()
        + retry.MAX_ATTEMPTS * (fault_sweep.CHAOS_HANG_MS + 60.0)
    )
    assert worst.cold_p50() <= vanilla.cold_p50() + retry_budget
