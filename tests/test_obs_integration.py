"""End-to-end telemetry acceptance tests.

Two claims from the issue are pinned down here:

* a traced prebake repetition yields a JSONL trace whose nested spans
  cover bake → checkpoint → store → restore → first-request serve, and
  the ``criu.restore`` span's duration equals the probe-measured
  RTS+APPINIT (the profile fold) for the same episode;
* the JSONL metrics dump round-trips the counters, gauges and
  histogram quantiles the platform/autoscaler path writes.
"""

import pytest

from repro import make_world
from repro.bench.harness import run_startup_experiment
from repro.core.manager import PrebakeManager
from repro.faas import FaaSPlatform
from repro.functions import MarkdownFunction, NoopFunction, make_app
from repro.obs import profile as prof
from repro.obs.cli import summarize
from repro.obs.export import (
    metrics_to_jsonl,
    read_trace_jsonl,
    registry_from_jsonl,
    write_trace_jsonl,
)


class TestRestoreSpanAgreement:
    def test_restore_span_equals_rts_plus_appinit(self):
        """The span and the probe-measured phases must agree exactly:
        both cover execve-exit → runtime.ready on the same sim clock."""
        kernel = make_world(seed=7, observe=True).kernel
        manager = PrebakeManager(kernel)
        app = make_app("markdown")
        manager.deploy(app)
        profiler = prof.install(kernel)
        manager.start_replica(app, technique="prebake")
        phases = prof.fold(profiler.reset())
        (restore,) = [s for s in kernel.obs.tracer.spans
                      if s.name == "criu.restore"]
        assert restore.duration_ms == pytest.approx(
            phases["RTS"] + phases["APPINIT"], abs=1e-9)
        assert phases["RTS"] == 0.0  # restored processes skip main()


class TestTracedRepetition:
    def test_single_repetition_trace_covers_lifecycle(self, tmp_path):
        sink = []
        summary = run_startup_experiment(
            "markdown", "prebake", repetitions=1, seed=5,
            trace_phases=True, trace_sink=sink,
        )
        path = write_trace_jsonl(tmp_path / "rep.jsonl", sink)
        records = read_trace_jsonl(path)
        assert records == sink

        names = {r["name"] for r in records}
        assert {"bench.repetition", "deploy", "bake", "criu.checkpoint",
                "snapshot.store", "replica.start", "criu.restore",
                "replica.serve"} <= names

        by_id = {r["span"]: r for r in records}
        restore = next(r for r in records if r["name"] == "criu.restore")
        # restore nests under the prebake replica start
        start = by_id[restore["parent"]]
        assert start["name"] == "replica.start"
        assert start["attrs"]["technique"] == "prebake"

        # the restore span agrees with the probe-derived phase breakdown
        phases = summary.samples[0].phases
        assert restore["duration_ms"] == pytest.approx(
            phases["RTS"] + phases["APPINIT"], abs=1e-9)

        # every record is tagged for merging across repetitions
        assert all(r["rep"] == 0 and r["technique"] == "prebake"
                   for r in records)
        assert all(str(r["trace"]).startswith("prebake/markdown/rep0/")
                   for r in records)

        table = summarize(records)
        assert "criu.restore" in table and "replica.serve" in table

    def test_traces_are_deterministic_across_runs(self):
        def run():
            sink = []
            run_startup_experiment("noop", "prebake", repetitions=2,
                                   seed=9, trace_sink=sink)
            return [(r["trace"], r["name"], r["start_ms"], r["duration_ms"])
                    for r in sink]
        assert run() == run()

    def test_unobserved_run_matches_observed_timing(self):
        plain = run_startup_experiment("noop", "prebake", repetitions=2,
                                       seed=3)
        traced = run_startup_experiment("noop", "prebake", repetitions=2,
                                        seed=3, trace_sink=[])
        assert plain.values == traced.values


class TestPlatformMetricsRoundTrip:
    def _platform(self):
        kernel = make_world(seed=11, observe=True).kernel
        platform = FaaSPlatform(kernel)
        platform.register_function(NoopFunction, start_technique="vanilla")
        platform.invoke("noop")
        platform.scale("noop", 3)  # the alert-triggered scale-up action
        return kernel, platform

    def test_autoscaler_path_round_trips(self):
        kernel, platform = self._platform()
        registry = kernel.obs.metrics
        rebuilt = registry_from_jsonl(metrics_to_jsonl(registry))

        up_labels = {"action": "scale-up", "function": "noop"}
        assert rebuilt.value("autoscaler_actions_total", up_labels) == \
            registry.value("autoscaler_actions_total", up_labels) == 2.0
        assert rebuilt.value("autoscaler_replicas",
                             {"function": "noop"}) == 3.0
        assert platform.replica_count("noop") == 3

        start_labels = {"function": "noop", "technique": "vanilla"}
        for q in (0.5, 0.95, 0.99):
            assert rebuilt.quantile("replica_start_duration_ms", q,
                                    start_labels) == \
                registry.quantile("replica_start_duration_ms", q, start_labels)
        assert rebuilt.histogram("replica_start_duration_ms",
                                 start_labels).count == 3

    def test_router_and_scale_up_spans_recorded(self):
        kernel, _ = self._platform()
        tracer = kernel.obs.tracer
        assert [s.name for s in tracer.spans].count("autoscaler.scale_up") == 2
        (route,) = [s for s in tracer.spans if s.name == "router.route"]
        assert route.attributes["cold_start"] is True


class TestOpenFaasSharedRegistry:
    def test_gateway_invokes_land_in_router_series(self):
        from repro.faas.openfaas.stack import make_openfaas_stack
        from repro.runtime.base import Request

        kernel = make_world(seed=13, observe=True).kernel
        stack = make_openfaas_stack(kernel)
        assert stack.metrics is kernel.obs.metrics

        stack.cli.new("markdown", "java8-criu", MarkdownFunction)
        stack.cli.up("markdown", initial_replicas=1)
        stack.gateway.invoke("markdown", Request(body="# T"))

        registry = kernel.obs.metrics
        labels = {"function": "markdown", "technique": "prebake"}
        assert registry.value("router_invocations_total", labels) == 1.0
        histogram = registry.histogram("router_request_total_ms", labels)
        assert histogram is not None and histogram.count == 1
        names = {family.name for family in registry.families()}
        assert "router_request_total_ms" in names
        # No parallel gateway series.
        assert not any(name.startswith("gateway_") for name in names)
