"""Tests for the shared metrics registry (counters/gauges/histograms)."""

import pytest

from repro.obs.metrics import (
    SUBBUCKETS,
    Histogram,
    MetricsError,
    MetricsRegistry,
    bucket_index,
    bucket_midpoint,
    label_set,
    labels_match,
)


class TestLabelSets:
    def test_canonical_ordering(self):
        assert label_set({"b": "2", "a": "1"}) == (("a", "1"), ("b", "2"))
        assert label_set(None) == ()

    def test_subset_matching(self):
        series = label_set({"fn": "a", "code": "200"})
        assert labels_match(series, {})
        assert labels_match(series, {"fn": "a"})
        assert not labels_match(series, {"fn": "b"})
        assert not labels_match(series, {"zone": "eu"})


class TestBucketing:
    def test_relative_error_bound(self):
        # log-linear bucketing bounds relative error by 1/SUBBUCKETS
        # across ~9 orders of magnitude
        for value in (0.013, 0.7, 1.0, 7.3, 250.0, 9_000.0, 3.2e6):
            mid = bucket_midpoint(bucket_index(value))
            assert abs(mid - value) / value <= 1.0 / SUBBUCKETS

    def test_nonpositive_values_share_bucket_zero(self):
        assert bucket_index(0.0) == 0
        assert bucket_index(-5.0) == 0
        assert bucket_midpoint(0) == 0.0

    def test_indices_monotonic_in_value(self):
        values = [0.01 * 1.3 ** i for i in range(60)]
        indices = [bucket_index(v) for v in values]
        assert indices == sorted(indices)


class TestHistogram:
    def test_count_sum_mean_min_max(self):
        h = Histogram()
        for v in (1.0, 2.0, 3.0, 10.0):
            h.observe(v)
        assert h.count == 4
        assert h.total == 16.0
        assert h.min_value == 1.0
        assert h.max_value == 10.0

    def test_extreme_quantiles_are_exact(self):
        h = Histogram()
        for v in (0.3, 5.0, 700.0):
            h.observe(v)
        assert h.quantile(0.0) == 0.3
        assert h.quantile(1.0) == 700.0

    def test_median_within_error_bound(self):
        h = Histogram()
        for i in range(1, 102):
            h.observe(float(i))
        assert h.quantile(0.5) == pytest.approx(51.0, rel=1.0 / SUBBUCKETS)

    def test_quantile_never_escapes_observed_range(self):
        h = Histogram()
        h.observe(99.9)
        for q in (0.01, 0.5, 0.99):
            assert h.quantile(q) == 99.9

    def test_empty_histogram(self):
        h = Histogram()
        assert h.quantile(0.5) == 0.0

    def test_quantile_out_of_range_rejected(self):
        with pytest.raises(MetricsError, match=r"\[0, 1\]"):
            Histogram().quantile(1.5)


class TestRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("hits", labels={"fn": "a"})
        reg.inc("hits", 2.0, labels={"fn": "a"})
        reg.inc("hits", labels={"fn": "b"})
        assert reg.value("hits", {"fn": "a"}) == 3.0
        assert reg.value("hits") == 4.0

    def test_negative_counter_increment_rejected(self):
        with pytest.raises(MetricsError, match="only go up"):
            MetricsRegistry().inc("hits", -1.0)

    def test_gauge_overwrites(self):
        reg = MetricsRegistry()
        reg.set_gauge("depth", 3.0)
        reg.set_gauge("depth", 1.5)
        assert reg.value("depth") == 1.5

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.inc("m")
        with pytest.raises(MetricsError, match="is a counter"):
            reg.set_gauge("m", 1.0)
        with pytest.raises(MetricsError, match="is a counter"):
            reg.observe("m", 1.0)

    def test_value_excludes_histograms(self):
        reg = MetricsRegistry()
        reg.observe("lat_ms", 10.0)
        assert reg.value("lat_ms") == 0.0

    def test_value_of_unknown_metric_is_zero(self):
        assert MetricsRegistry().value("ghost") == 0.0

    def test_histogram_addressed_by_exact_labels(self):
        reg = MetricsRegistry()
        reg.observe("lat_ms", 5.0, labels={"fn": "a"})
        assert reg.histogram("lat_ms", {"fn": "a"}).count == 1
        assert reg.histogram("lat_ms", {"fn": "b"}) is None
        assert reg.histogram("lat_ms") is None  # bare labels are distinct
        assert reg.histogram("ghost") is None

    def test_quantile_of_missing_histogram_is_zero(self):
        assert MetricsRegistry().quantile("ghost", 0.5) == 0.0

    def test_quantile_delegates(self):
        reg = MetricsRegistry()
        reg.observe("lat_ms", 7.0)
        assert reg.quantile("lat_ms", 1.0) == 7.0

    def test_families(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.set_gauge("g", 1.0)
        reg.observe("h", 1.0)
        assert {f.name: f.kind for f in reg.families()} == {
            "c": "counter", "g": "gauge", "h": "histogram",
        }


class TestBatchedObserve:
    def test_observe_many_equals_sequential_observes(self):
        """Vectorized bucketing must be bit-identical to one-at-a-time
        observes: same buckets, and the same *sequentially* accumulated
        sum (a pairwise numpy sum could differ in the last ulp)."""
        values = [0.001, 0.5, 1.0, 3.14159, 7.0, 1e-9, 1e9, 42.42,
                  0.0, -1.0, 2.0 ** -1070, 999.25] * 7
        sequential = Histogram()
        for value in values:
            sequential.observe(value)
        batched = Histogram()
        batched.observe_many(values)
        assert batched.buckets == sequential.buckets
        assert batched.count == sequential.count
        assert batched.total == sequential.total  # bit-identical
        assert batched.min_value == sequential.min_value
        assert batched.max_value == sequential.max_value

    def test_observe_many_empty_is_noop(self):
        histogram = Histogram()
        histogram.observe_many([])
        assert histogram.count == 0

    def test_observe_many_quantiles_agree(self):
        values = [float(i) for i in range(1, 500)]
        a, b = Histogram(), Histogram()
        a.observe_many(values)
        for value in values:
            b.observe(value)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert a.quantile(q) == b.quantile(q)


class TestHandles:
    def test_counter_handle_shares_series(self):
        registry = MetricsRegistry()
        handle = registry.counter("requests", {"fn": "markdown"})
        handle.inc()
        handle.inc(2.0)
        assert registry.value("requests", {"fn": "markdown"}) == 3.0
        # the handle and the string path address the same series
        registry.inc("requests", 1.0, {"fn": "markdown"})
        handle.inc()
        assert registry.value("requests", {"fn": "markdown"}) == 5.0

    def test_counter_handle_rejects_negative(self):
        registry = MetricsRegistry()
        handle = registry.counter("n")
        with pytest.raises(MetricsError):
            handle.inc(-1.0)

    def test_histogram_series_is_get_or_create(self):
        registry = MetricsRegistry()
        first = registry.histogram_series("lat", {"fn": "a"})
        first.observe(5.0)
        again = registry.histogram_series("lat", {"fn": "a"})
        assert again is first
        assert registry.quantile("lat", 0.5, {"fn": "a"}) > 0.0

    def test_handle_kind_conflicts_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m").inc()
        with pytest.raises(MetricsError):
            registry.histogram_series("m")
