"""Fleet aggregates: node-labelled merges, sketches, attribution."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.fleet import (
    NODE_LABEL,
    OUTCOME_DEGRADED,
    OUTCOME_LOCAL_HIT,
    OUTCOME_REMOTE_FETCH,
    ColdStartAttribution,
    FleetError,
    SpaceSavingSketch,
)
from repro.obs.metrics import SUBBUCKETS, Histogram, MetricsRegistry
from repro.obs.slo import merged_histogram


def bucket_width(value: float) -> float:
    """Width of the log-linear bucket holding ``value``: the quantile
    error bound of one merged-histogram read."""
    _mantissa, exponent = math.frexp(value)
    return math.ldexp(1.0, exponent - 1) / SUBBUCKETS


class TestSpaceSavingSketch:
    def test_exact_under_capacity(self):
        sketch = SpaceSavingSketch(capacity=8)
        for key, n in (("a", 5), ("b", 3), ("c", 1)):
            for _ in range(n):
                sketch.offer(key)
        assert sketch.top(3) == [("a", 5.0, 0.0), ("b", 3.0, 0.0),
                                 ("c", 1.0, 0.0)]
        assert sketch.total == 9.0

    def test_eviction_inherits_error(self):
        sketch = SpaceSavingSketch(capacity=2)
        sketch.offer("a", 5.0)
        sketch.offer("b", 2.0)
        sketch.offer("c", 1.0)  # evicts b (min count 2), inherits it
        (top_key, top_count, top_err), (key, count, error) = sketch.top(2)
        assert (top_key, top_count, top_err) == ("a", 5.0, 0.0)
        assert (key, count, error) == ("c", 3.0, 2.0)
        # count - error is a guaranteed lower bound on the true weight.
        assert count - error == 1.0

    def test_heavy_hitter_guaranteed_present(self):
        # Any key whose true weight exceeds total / capacity survives.
        sketch = SpaceSavingSketch(capacity=4)
        for i in range(40):
            sketch.offer(f"noise-{i}")
        for _ in range(30):
            sketch.offer("hot")
        keys = [key for key, _, _ in sketch.top(4)]
        assert "hot" in keys
        assert len(sketch) <= 4

    def test_deterministic_tie_break(self):
        results = []
        for _ in range(3):
            sketch = SpaceSavingSketch(capacity=2)
            for key in ("b", "a", "d", "c"):
                sketch.offer(key)
            results.append(sketch.top(2))
        assert results[0] == results[1] == results[2]

    def test_bad_inputs(self):
        with pytest.raises(FleetError):
            SpaceSavingSketch(capacity=0)
        with pytest.raises(FleetError):
            SpaceSavingSketch(capacity=1).offer("x", -1.0)
        with pytest.raises(FleetError):
            SpaceSavingSketch(capacity=1).offer("x", math.nan)

    @pytest.mark.parametrize("seed", range(12))
    def test_victim_choice_matches_a_full_scan(self, seed):
        """The heap-kept minimum evicts what scanning every key would."""
        rng = random.Random(seed)
        capacity = rng.choice((1, 2, 3, 8, 32))
        keys = [f"k{i}" for i in range(rng.choice((4, 16, 100)))]
        sketch = SpaceSavingSketch(capacity=capacity)
        counts, errors = {}, {}
        for _ in range(2000):
            key = rng.choice(keys)
            weight = rng.choice((0.0, 1.0, 1.0, 2.0, rng.random() * 4.0))
            sketch.offer(key, weight)
            # The reference: Space-Saving with an O(capacity) scan.
            if key in counts:
                counts[key] += weight
            elif len(counts) < capacity:
                counts[key], errors[key] = weight, 0.0
            else:
                victim = min(counts, key=lambda k: (counts[k], k))
                floor = counts.pop(victim)
                del errors[victim]
                counts[key], errors[key] = floor + weight, floor
            assert sketch._counts == counts
            assert sketch._errors == errors
            assert sketch.top(capacity) == [
                (k, counts[k], errors[k])
                for k in sorted(counts, key=lambda k: (-counts[k], k))]

    def test_top_sorted(self):
        sketch = SpaceSavingSketch(capacity=4)
        sketch.offer("x", 2.0)
        sketch.offer("y", 7.0)
        assert [key for key, _, _ in sketch.top(4)] == ["y", "x"]
        assert sketch.total == 9.0


class TestNodeLabelledMerge:
    @staticmethod
    def node(name):
        return {NODE_LABEL: name}

    def test_counters_sum_under_node_labels(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", self.node("node-0")).inc(3.0)
        registry.counter("requests_total", self.node("node-1")).inc(4.0)
        assert registry.value("requests_total") == 7.0
        assert registry.value("requests_total", self.node("node-0")) == 3.0
        assert registry.value("requests_total", self.node("node-1")) == 4.0

    def test_reads_leave_the_registry_unchanged(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", self.node("node-0")).inc(3.0)
        registry.histogram_series(
            "latency_ms", self.node("node-0")).observe(2.0)
        first = merged_histogram(registry, "latency_ms")
        second = merged_histogram(registry, "latency_ms")
        assert first.count == second.count == 1
        assert first.buckets == second.buckets
        assert (registry.value("requests_total")
                == registry.value("requests_total") == 3.0)

    def test_rebound_handle_writes_the_same_series(self):
        registry = MetricsRegistry()
        first = registry.counter("requests_total", self.node("node-0"))
        again = registry.counter("requests_total", self.node("node-0"))
        first.inc(2.0)
        again.inc(3.0)
        assert registry.value("requests_total") == 5.0
        assert (registry.histogram_series("latency_ms", self.node("node-0"))
                is registry.histogram_series(
                    "latency_ms", self.node("node-0")))

    def test_merged_histogram_counts_every_node(self):
        registry = MetricsRegistry()
        for node, values in (("node-0", [1.0, 2.0]), ("node-1", [3.0])):
            series = registry.histogram_series("latency_ms", self.node(node))
            for value in values:
                series.observe(value)
        merged = merged_histogram(registry, "latency_ms")
        assert merged is not None
        assert merged.count == 3
        assert merged.min_value == 1.0
        assert merged.max_value == 3.0
        assert merged.quantile(1.0) == 3.0

    def test_merged_histogram_does_not_alias_node_state(self):
        registry = MetricsRegistry()
        series = registry.histogram_series("latency_ms", self.node("node-0"))
        series.observe(1.0)
        merged = merged_histogram(registry, "latency_ms")
        merged.observe(99.0)
        assert series.count == 1
        assert series.max_value == 1.0

    def test_exemplars_survive_the_merge(self):
        registry = MetricsRegistry()
        registry.histogram_series(
            "latency_ms", self.node("node-0")).observe(4.2, exemplar="t-0042")
        registry.histogram_series(
            "latency_ms", self.node("node-1")).observe(900.0, exemplar="t-9")
        merged = merged_histogram(registry, "latency_ms")
        assert ("t-0042", 4.2) in merged.exemplars.values()
        assert ("t-9", 900.0) in merged.exemplars.values()

    def test_node_subset_reads_one_node(self):
        registry = MetricsRegistry()
        for i, value in enumerate((1.0, 10.0, 100.0, 1000.0)):
            registry.histogram_series(
                "latency_ms", self.node(f"node-{i % 2}")).observe(value)
        only = merged_histogram(registry, "latency_ms", self.node("node-1"))
        assert only.count == 2
        assert (only.min_value, only.max_value) == (10.0, 1000.0)
        assert (registry.quantile("latency_ms", 1.0, self.node("node-1"))
                == 1000.0)
        assert (registry.quantile("latency_ms", 1.0, self.node("node-0"))
                == 100.0)

    def test_no_data_reads(self):
        registry = MetricsRegistry()
        registry.histogram_series(
            "latency_ms", self.node("node-0")).observe(1.0)
        assert merged_histogram(registry, "nope") is None
        assert merged_histogram(
            registry, "latency_ms", self.node("node-7")) is None
        assert registry.quantile("latency_ms", 0.99, self.node("node-7")) == 0.0
        assert registry.value("nope") == 0.0
        assert registry.value("nope", self.node("node-0")) == 0.0

    @given(
        samples=st.lists(
            st.floats(min_value=0.01, max_value=1e6,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=200),
        nodes=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_merged_p99_within_one_bucket_width(self, samples, nodes):
        # The fleet read contract: a quantile read off the node=-labelled
        # histograms merged into one lands within one log-linear bucket
        # width of the quantile over the concatenated raw samples.
        registry = MetricsRegistry()
        for i, value in enumerate(samples):
            registry.histogram_series(
                "latency_ms", {NODE_LABEL: f"node-{i % nodes}"}).observe(value)
        single = Histogram()
        for value in samples:
            single.observe(value)
        merged = merged_histogram(registry, "latency_ms")
        for q in (0.5, 0.99):
            merged_q = merged.quantile(q)
            # Exact merge: identical to one giant histogram.
            assert merged_q == single.quantile(q)
            ordered = sorted(samples)
            exact = ordered[math.ceil(q * len(ordered)) - 1]
            assert abs(merged_q - exact) <= bucket_width(exact)


class TestColdStartAttribution:
    @staticmethod
    def record_one(attribution, function="fn-000", node="node-0",
                   outcome=OUTCOME_LOCAL_HIT,
                   phases=None):
        phases = phases or {"clone": 0.5, "spawn": 2.0, "restore": 40.0}
        total = 0.0
        for value in phases.values():
            total += value
        attribution.record(function, node, outcome, phases, total)
        return total

    def test_phase_sum_invariant_enforced(self):
        attribution = ColdStartAttribution()
        with pytest.raises(FleetError):
            attribution.record("fn", "node-0", OUTCOME_LOCAL_HIT,
                               {"clone": 1.0, "restore": 2.0}, 4.0)
        # Exact sums (same accumulation order) always pass.
        self.record_one(attribution)
        assert len(attribution) == 1

    def test_unknown_outcome_rejected(self):
        with pytest.raises(FleetError):
            ColdStartAttribution().record(
                "fn", "node-0", "cache-miss", {"restore": 1.0}, 1.0)

    def test_cells_accumulate_and_rank(self):
        attribution = ColdStartAttribution()
        self.record_one(attribution, function="fn-001",
                        phases={"restore": 100.0})
        self.record_one(attribution, function="fn-000")
        self.record_one(attribution, function="fn-000")
        cells = attribution.cells()
        assert [c.function for c in cells] == ["fn-001", "fn-000"]
        assert cells[1].count == 2
        assert cells[1].dominant_phase() == "restore"
        assert cells[0].mean_ms == 100.0

    def test_blame_table_and_folded_stacks(self):
        attribution = ColdStartAttribution()
        self.record_one(attribution, outcome=OUTCOME_DEGRADED)
        self.record_one(attribution, node="node-1",
                        outcome=OUTCOME_REMOTE_FETCH)
        table = attribution.blame_table()
        assert "dominant phase" in table
        assert "degraded" in table
        folded = attribution.folded_lines()
        assert "fleet;node-0;fn-000;degraded;restore 40000" in folded
        for line in folded:
            stack, _, micros = line.rpartition(" ")
            assert stack and int(micros) > 0

    def test_round_trips_through_dict(self):
        attribution = ColdStartAttribution()
        self.record_one(attribution)
        self.record_one(attribution, outcome=OUTCOME_REMOTE_FETCH)
        clone = ColdStartAttribution.from_dict(attribution.as_dict())
        assert clone.as_dict() == attribution.as_dict()
        assert clone.total_ms == attribution.total_ms

