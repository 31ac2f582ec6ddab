"""Tests for the multi-function trace study and gateway latency digest."""

import pytest

from repro.bench.platform_study import run_multi_function_study
from repro.bench.traces import TraceEvent, synthesize_workload
from repro.faas.openfaas.stack import make_openfaas_stack
from repro.functions import NoopFunction


class TestMultiFunctionStudy:
    def test_hot_function_rarely_cold(self):
        trace = synthesize_workload(
            ["markdown", "noop"], duration_ms=300_000,
            total_rate_per_s=4.0, bursty_fraction=0.0, seed=9)
        results = run_multi_function_study(trace, idle_timeout_ms=60_000,
                                           seed=9)
        by_name = {r.strategy.split("(")[0]: r for r in results}
        hot = by_name["markdown"]  # rank 0 → most traffic
        cold = by_name["noop"]
        assert hot.requests > cold.requests
        assert hot.cold_fraction <= cold.cold_fraction

    def test_mixed_techniques(self):
        trace = [TraceEvent(0.0, "noop"), TraceEvent(100_000.0, "noop"),
                 TraceEvent(0.0, "markdown"), TraceEvent(100_000.0, "markdown")]
        results = run_multi_function_study(
            trace,
            techniques={"noop": "vanilla", "markdown": "prebake"},
            idle_timeout_ms=10_000.0,
        )
        by_name = {r.strategy: r for r in results}
        vanilla = by_name["noop(vanilla)"]
        prebake = by_name["markdown(prebake)"]
        # Both cold-start twice (timeout expires), prebake waits less.
        assert vanilla.cold_starts == prebake.cold_starts == 2
        assert prebake.latency_p(0.99) < vanilla.latency_p(0.99)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            run_multi_function_study([])


class TestGatewayLatencyDigest:
    def test_summary_after_invocations(self, kernel):
        stack = make_openfaas_stack(kernel)
        stack.cli.new("noop", "java8", NoopFunction)
        stack.cli.up("noop")
        for _ in range(20):
            stack.gateway.invoke("noop")
        summary = stack.gateway.latency_summary("noop")
        assert summary["count"] == 20
        assert 0.3 < summary["p50"] < 2.0  # noop service ≈ 0.9ms

    def test_summary_unknown_service(self, kernel):
        from repro.faas.openfaas.gateway import GatewayError
        stack = make_openfaas_stack(kernel)
        with pytest.raises(GatewayError):
            stack.gateway.latency_summary("ghost")
