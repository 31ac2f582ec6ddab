"""SLOs, burn rates, alert wiring, and the offline metrics pipeline.

Histogram exemplars link buckets to traces and survive both export
formats; merged registries feed SLO burn-rate math; the ``alerts`` CLI
audits a recorded JSONL dump with a gating exit code; and the online
burn check flags exactly the windows the offline rule calls breached.
"""

import json
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs

from repro.obs.cli import alerts_main
from repro.obs.export import (
    metrics_to_jsonl,
    registry_from_jsonl,
)
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.slo import (
    CHUNK_CACHE_HIT_RATE,
    COLD_START_P99,
    DEFAULT_SLOS,
    RESTORE_SUCCESS,
    SLO,
    SLOBreach,
    SLOStatus,
    evaluate_slos,
    merged_histogram,
)
from repro.sim.clock import SimClock


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
        assert status.breached

    def test_slo_labels_restrict_the_series(self):
        registry = latency_registry(fast=80, slow=20)
        prebake = replace(COLD_START_P99, labels={"technique": "prebake"})
        vanilla = replace(COLD_START_P99, labels={"technique": "vanilla"})
        fast, slow = evaluate(registry, [prebake, vanilla])
        assert fast.bad_fraction == 0.0 and not fast.breached
        assert slow.bad_fraction == pytest.approx(1.0) and slow.breached

    def test_failures_only_read_one_and_breach(self):
        # criu_restore_total counts successes only: a failed attempt is
        # still an attempt.
        registry = MetricsRegistry()
        registry.inc("criu_restore_failures_total", 3.0)
        status = evaluate(registry, [RESTORE_SUCCESS])[0]
        assert status.bad_fraction == 1.0
        assert status.burn_rate == pytest.approx(100.0)
        assert status.breached

    def test_one_failure_in_a_hundred_attempts_is_on_budget(self):
        registry = MetricsRegistry()
        registry.inc("criu_restore_total", 99.0)
        registry.inc("criu_restore_failures_total", 1.0)
        status = evaluate(registry, [RESTORE_SUCCESS])[0]
        assert status.bad_fraction == pytest.approx(0.01)
        assert status.burn_rate == pytest.approx(1.0)
        assert not status.breached

    def test_hit_rate_reads_hits_over_hits_and_misses(self):
        registry = MetricsRegistry()
        registry.inc("chunk_cache_hits_total", 3.0)
        registry.inc("chunk_cache_misses_total", 1.0)
        status = evaluate(registry, [CHUNK_CACHE_HIT_RATE])[0]
        assert status.bad_fraction == 0.25
        assert status.burn_rate == pytest.approx(0.5)
        assert not status.breached

    def test_ratio_labels_restrict_both_counters(self):
        registry = MetricsRegistry()
        registry.inc("criu_restore_total", 9.0, labels={"mode": "eager"})
        registry.inc("criu_restore_failures_total", 1.0,
                     labels={"mode": "eager"})
        registry.inc("criu_restore_failures_total", 5.0,
                     labels={"mode": "lazy"})
        eager = replace(RESTORE_SUCCESS, labels={"mode": "eager"})
        status = evaluate(registry, [eager])[0]
        assert status.bad_fraction == pytest.approx(0.1)

    def test_ratio_slo(self):
        registry = MetricsRegistry()
        registry.inc("criu_restore_total", 196.0)
        registry.inc("criu_restore_failures_total", 4.0)
        status = evaluate(registry, [RESTORE_SUCCESS])[0]
        assert status.bad_fraction == pytest.approx(0.02)
        assert status.burn_rate == pytest.approx(2.0)
        assert status.breached

    def test_no_data_is_not_a_breach(self):
        for status in evaluate_slos(MetricsRegistry()):
            assert status.bad_fraction is None
            assert status.burn_rate is None
            assert not status.breached

    def test_objective_validation(self):
        with pytest.raises(ValueError):
            SLO(name="bad", objective=1.0)
        with pytest.raises(ValueError):
            SLO(name="bad", objective=0.5, kind="nonsense")


class TestExemplarsAndRoundTrips:
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


# -- the online rule: per-window burn ----------------------------------------

WINDOW_MS = 100.0

# One metric write of each kind the contract watches.
WRITES = {
    "restore-ok": lambda k, v: obs.count(k, "criu_restore_total",
                                         labels={"mode": "eager"}),
    "restore-failed": lambda k, v: obs.count(
        k, "criu_restore_failures_total", labels={"mode": "eager"}),
    "cache-hits": lambda k, v: obs.count(k, "chunk_cache_hits_total",
                                         value=float(int(v) % 9)),
    "cache-misses": lambda k, v: obs.count(k, "chunk_cache_misses_total",
                                           value=float(int(v) % 9)),
    "cold-wait": lambda k, v: obs.observe(k, "router_cold_start_wait_ms", v),
    "unwatched": lambda k, v: obs.gauge(k, "pool_idle", v),
}


def _checked_world(flight=False):
    kernel = SimpleNamespace(obs=None, clock=SimClock())
    if flight:
        obs.install_flight(kernel)
    return kernel, obs.enable_burn_check(kernel, window_ms=WINDOW_MS)


def _offline_breaches(writes):
    """Each window's writes into a fresh registry, judged offline."""
    windows = {}
    for at_ms, kind, value in writes:
        kernel = windows.setdefault(int(at_ms // WINDOW_MS), SimpleNamespace(
            obs=None, clock=SimClock()))
        obs.install(kernel)
        WRITES[kind](kernel, value)
    out = []
    for index in sorted(windows):
        registry = windows[index].obs.metrics
        for slo in DEFAULT_SLOS:
            burn = slo.burn_rate(registry)
            if burn is not None and burn > 1.0:
                start = index * WINDOW_MS
                out.append({"slo": slo.name, "window_start_ms": start,
                            "window_end_ms": start + WINDOW_MS,
                            "bad_fraction": slo.bad_fraction(registry),
                            "burn_rate": burn, "trace_id": None})
    return out


class TestBurnCheck:
    def test_breach_reaches_tape_counter_and_subscribers(self):
        kernel, burn = _checked_world(flight=True)
        seen = []
        burn.subscribe(seen.append)
        obs.count(kernel, "criu_restore_failures_total")
        kernel.clock.advance(WINDOW_MS)
        obs.count(kernel, "criu_restore_total")
        (breach,) = seen
        assert burn.breaches == seen
        assert (breach.slo, breach.window_start_ms, breach.window_end_ms,
                breach.bad_fraction) == ("restore-success-rate", 0.0,
                                         WINDOW_MS, 1.0)
        (tape,) = [e for e in kernel.obs.flight.events()
                   if e.kind == obs.flight.SLO_BREACH]
        assert tape.attrs["slo"] == "restore-success-rate"
        assert kernel.obs.metrics.value(
            "slo_breach_windows_total",
            labels={"slo": "restore-success-rate"}) == 1.0

    def test_breach_names_the_trace_of_the_last_bad_write(self):
        kernel, burn = _checked_world()
        traces = {}
        for name, write in (("failed", "restore-failed"),
                            ("slow", "cold-wait"),
                            ("last-failed", "restore-failed"),
                            ("ok", "restore-ok"),
                            ("fast", "cold-wait")):
            with obs.span(kernel, name) as request:
                traces[name] = request.trace_id
                WRITES[write](kernel, 5_000.0 if name == "slow" else 1.0)
        burn.flush()
        assert len(set(traces.values())) == len(traces)
        assert {b.slo: b.trace_id for b in burn.breaches} == {
            "cold-start-p99": traces["slow"],
            "restore-success-rate": traces["last-failed"]}

    def test_a_window_on_budget_is_not_flagged(self):
        kernel, burn = _checked_world()
        obs.count(kernel, "criu_restore_total", value=99.0)
        obs.count(kernel, "criu_restore_failures_total")
        burn.flush()
        assert burn.breaches == []

    def test_flush_closes_the_last_window_once(self):
        kernel, burn = _checked_world()
        obs.observe(kernel, "router_cold_start_wait_ms", 5_000.0)
        assert burn.breaches == []
        burn.flush()
        burn.flush()
        assert [b.slo for b in burn.breaches] == ["cold-start-p99"]

    def test_windows_align_to_time_zero_and_idle_ones_are_silent(self):
        kernel, burn = _checked_world()
        kernel.clock.advance(250.0)
        obs.count(kernel, "criu_restore_failures_total")
        kernel.clock.advance(1_000.0)  # nine idle windows
        obs.count(kernel, "criu_restore_failures_total")
        burn.flush()
        assert [(b.window_start_ms, b.window_end_ms)
                for b in burn.breaches] == [(200.0, 300.0),
                                            (1_200.0, 1_300.0)]

    def test_one_window_breaching_two_slos_emits_in_contract_order(self):
        kernel, burn = _checked_world()
        obs.count(kernel, "chunk_cache_misses_total", value=4.0)
        obs.count(kernel, "criu_restore_failures_total")
        obs.observe(kernel, "router_cold_start_wait_ms", 5_000.0)
        burn.flush()
        assert [b.slo for b in burn.breaches] == [
            slo.name for slo in DEFAULT_SLOS]

    def test_a_cold_cache_window_breaches_the_hit_rate(self):
        kernel, burn = _checked_world()
        obs.count(kernel, "chunk_cache_hits_total", value=1.0)
        obs.count(kernel, "chunk_cache_misses_total", value=3.0)
        burn.flush()
        (breach,) = burn.breaches
        assert (breach.slo, breach.bad_fraction) == (
            CHUNK_CACHE_HIT_RATE.name, 0.75)
        assert breach.burn_rate == pytest.approx(1.5)

    def test_enabling_installs_the_hub_once(self):
        kernel = SimpleNamespace(obs=None, clock=SimClock())
        burn = obs.enable_burn_check(kernel, window_ms=WINDOW_MS)
        assert kernel.obs.burn is burn
        assert obs.enable_burn_check(kernel, window_ms=1.0) is burn
        assert burn.window_ms == WINDOW_MS

    def test_breach_round_trips_through_json(self):
        breach = SLOBreach("restore-success-rate", 500.0, 1_000.0, 0.5, 50.0)
        record = json.loads(json.dumps(breach.as_dict()))
        assert SLOBreach.from_dict(record) == breach
        assert breach.line() == ("restore-success-rate window=[500, 1000) "
                                 "bad=0.500 burn=50.00")

    @given(st.lists(st.tuples(
        st.floats(min_value=0.0, max_value=3 * WINDOW_MS),
        st.sampled_from(sorted(WRITES)),
        st.floats(min_value=0.0, max_value=2_000.0)), max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_online_flags_match_the_offline_rule(self, steps):
        kernel, burn = _checked_world()
        writes = []
        for gap_ms, kind, value in steps:
            kernel.clock.advance(gap_ms)
            WRITES[kind](kernel, value)
            writes.append((kernel.clock.now, kind, value))
        burn.flush()
        assert [b.as_dict() for b in burn.breaches] == \
            _offline_breaches(writes)
