"""SLOs, burn rates, alert wiring, and the offline metrics pipeline.

Covers the satellite end to end: histogram exemplars link buckets to
traces and survive both export formats; merged registries feed SLO
burn-rate math; and the ``alerts`` CLI audits a recorded JSONL dump with a
gating exit code.
"""

from dataclasses import replace

import pytest

from repro.obs.cli import alerts_main
from repro.obs.export import (
    metrics_to_jsonl,
    parse_prometheus,
    registry_from_jsonl,
    render_prometheus,
)
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.slo import (
    COLD_START_P99,
    RESTORE_SUCCESS,
    SLO,
    SLOStatus,
    evaluate_slos,
    merged_histogram,
)


def evaluate(registry, slos):
    """``evaluate_slos`` for a chosen SLO list (it always uses the
    stack's contract)."""
    return [SLOStatus(slo=slo, bad_fraction=slo.bad_fraction(registry),
                      burn_rate=slo.burn_rate(registry)) for slo in slos]


def latency_registry(fast=99, slow=1, threshold=800.0):
    """fast obs below threshold, slow obs well above it."""
    registry = MetricsRegistry()
    for i in range(fast):
        registry.observe("router_cold_start_wait_ms", 50.0 + i % 7,
                         labels={"technique": "prebake"})
    for _ in range(slow):
        registry.observe("router_cold_start_wait_ms", threshold * 4,
                         labels={"technique": "vanilla"})
    return registry


class TestHistogramSupport:
    def test_fraction_above(self):
        histogram = Histogram()
        for value in (10.0, 20.0, 4000.0):
            histogram.observe(value)
        assert histogram.fraction_above(800.0) == pytest.approx(1 / 3)
        assert histogram.fraction_above(1e9) == 0.0

    def test_merge_combines_counts_and_exemplars(self):
        a, b = Histogram(), Histogram()
        a.observe(10.0, exemplar="t-0001")
        b.observe(5000.0, exemplar="t-0002")
        a.merge(b)
        assert a.count == 2
        assert a.min_value == 10.0 and a.max_value == 5000.0
        assert {e[0] for e in a.exemplars.values()} == {"t-0001", "t-0002"}

    def test_merged_histogram_spans_label_subsets(self):
        registry = latency_registry()
        merged = merged_histogram(registry, "router_cold_start_wait_ms")
        assert merged is not None and merged.count == 100
        only = merged_histogram(registry, "router_cold_start_wait_ms",
                                labels={"technique": "vanilla"})
        assert only.count == 1
        assert merged_histogram(registry, "no_such_metric") is None


class TestSloMath:
    def test_latency_slo_on_budget(self):
        # 1 bad in 100 against a 99% objective: burn rate exactly 1.0.
        status = evaluate(latency_registry(), [COLD_START_P99])[0]
        assert status.bad_fraction == pytest.approx(0.01)
        assert status.burn_rate == pytest.approx(1.0)
        assert not status.breached

    def test_latency_slo_breaches_when_burning_fast(self):
        status = evaluate(latency_registry(fast=90, slow=10),
                          [COLD_START_P99])[0]
        assert status.burn_rate == pytest.approx(10.0)
        assert status.breached

    def test_breach_burn_is_bad_fraction_over_budget(self):
        status = evaluate(latency_registry(fast=80, slow=20),
                          [COLD_START_P99])[0]
        assert status.bad_fraction == pytest.approx(0.2)
        assert status.burn_rate == pytest.approx(20.0)  # 20% bad / 1% budget
        assert status.breached and not status.healthy

    def test_slo_labels_restrict_the_series(self):
        registry = latency_registry(fast=80, slow=20)
        prebake = replace(COLD_START_P99, labels={"technique": "prebake"})
        vanilla = replace(COLD_START_P99, labels={"technique": "vanilla"})
        fast, slow = evaluate(registry, [prebake, vanilla])
        assert fast.bad_fraction == 0.0 and fast.healthy
        assert slow.bad_fraction == pytest.approx(1.0) and slow.breached

    def test_ratio_bad_fraction_caps_at_one(self):
        registry = MetricsRegistry()
        registry.inc("criu_restore_total", 2.0)
        registry.inc("criu_restore_failures_total", 5.0)
        status = evaluate(registry, [RESTORE_SUCCESS])[0]
        assert status.bad_fraction == 1.0
        assert status.burn_rate == pytest.approx(100.0)

    def test_failures_without_a_total_are_no_data(self):
        registry = MetricsRegistry()
        registry.inc("criu_restore_failures_total", 3.0)
        status = evaluate(registry, [RESTORE_SUCCESS])[0]
        assert status.bad_fraction is None and status.burn_rate is None
        assert status.healthy

    def test_ratio_slo(self):
        registry = MetricsRegistry()
        registry.inc("criu_restore_total", 200.0)
        registry.inc("criu_restore_failures_total", 4.0)
        status = evaluate(registry, [RESTORE_SUCCESS])[0]
        assert status.bad_fraction == pytest.approx(0.02)
        assert status.burn_rate == pytest.approx(2.0)
        assert status.breached

    def test_no_data_is_not_a_breach(self):
        for status in evaluate_slos(MetricsRegistry()):
            assert status.bad_fraction is None
            assert status.burn_rate is None
            assert status.healthy

    def test_objective_validation(self):
        with pytest.raises(ValueError):
            SLO(name="bad", objective=1.0)
        with pytest.raises(ValueError):
            SLO(name="bad", objective=0.5, kind="nonsense")


class TestExemplarsAndRoundTrips:
    def test_exemplar_rendered_and_text_still_parses(self):
        registry = MetricsRegistry()
        registry.observe("lat_ms", 12.0, exemplar="t-0042")
        text = render_prometheus(registry)
        assert "# EXEMPLAR lat_ms" in text and "trace_id=t-0042" in text
        parsed = parse_prometheus(text)  # comments must not break parsing
        assert parsed["lat_ms_count"][()] == 1.0

    def test_jsonl_round_trip_preserves_everything(self):
        registry = MetricsRegistry()
        registry.inc("requests_total", 3.0, labels={"fn": "noop"})
        registry.set_gauge("pool_idle", 2.0)
        for i, value in enumerate((5.0, 900.0, 40.0)):
            registry.observe("lat_ms", value, labels={"fn": "noop"},
                             exemplar=f"t-{i:04d}")
        rebuilt = registry_from_jsonl(metrics_to_jsonl(registry))
        assert rebuilt.value("requests_total",
                             labels={"fn": "noop"}) == 3.0
        assert rebuilt.value("pool_idle") == 2.0
        merged = merged_histogram(rebuilt, "lat_ms")
        assert merged.count == 3
        assert merged.total == pytest.approx(945.0)
        assert {e[0] for e in merged.exemplars.values()} == \
            {"t-0000", "t-0001", "t-0002"}
        # Round-tripping again is a fixed point.
        assert metrics_to_jsonl(rebuilt) == metrics_to_jsonl(registry)

    def test_registry_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("n", 1.0)
        b.inc("n", 2.0)
        b.observe("lat_ms", 7.0)
        a.merge(b)
        assert a.value("n") == 3.0
        assert merged_histogram(a, "lat_ms").count == 1


class TestAlertsCli:
    def _dump(self, tmp_path, registry):
        path = tmp_path / "metrics.jsonl"
        path.write_text(metrics_to_jsonl(registry), encoding="utf-8")
        return str(path)

    def test_healthy_dump_exits_zero(self, tmp_path, capsys):
        exit_code = alerts_main([self._dump(tmp_path, latency_registry())])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "cold-start-p99" in out and "BREACH" not in out

    def test_breached_dump_exits_one(self, tmp_path, capsys):
        registry = latency_registry(fast=50, slow=50)
        exit_code = alerts_main([self._dump(tmp_path, registry)])
        assert exit_code == 1
        assert "BREACH" in capsys.readouterr().out

    def test_unreadable_file_exits_two(self, tmp_path):
        assert alerts_main([str(tmp_path / "absent.jsonl")]) == 2
