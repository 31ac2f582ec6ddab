"""Fleet observability plane: federation, sketches, attribution."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.fleet import (
    OUTCOME_DEGRADED,
    OUTCOME_LOCAL_HIT,
    OUTCOME_REMOTE_FETCH,
    ColdStartAttribution,
    FleetError,
    FleetRegistry,
    FleetWindowSeries,
    SpaceSavingSketch,
    bucket_width,
)
from repro.obs.metrics import Histogram, MetricsRegistry


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

    def test_as_dict_sorted(self):
        sketch = SpaceSavingSketch(capacity=4)
        sketch.offer("x", 2.0)
        sketch.offer("y", 7.0)
        blob = sketch.as_dict()
        assert [e["key"] for e in blob["entries"]] == ["y", "x"]
        assert blob["total"] == 9.0


class TestFleetRegistry:
    def test_counters_sum_under_node_labels(self):
        fleet = FleetRegistry()
        fleet.node("node-0").inc("requests_total", 3.0)
        fleet.node("node-1").inc("requests_total", 4.0)
        assert fleet.fleet_value("requests_total") == 7.0
        assert fleet.per_node_value("requests_total") == {
            "node-0": 3.0, "node-1": 4.0}
        merged = fleet.merged()
        assert merged.value("requests_total", {"node": "node-0"}) == 3.0
        assert merged.value("requests_total") == 7.0

    def test_double_merge_is_idempotent(self):
        fleet = FleetRegistry()
        fleet.node("node-0").inc("requests_total", 3.0)
        first = fleet.merged().value("requests_total")
        second = fleet.merged().value("requests_total")
        assert first == second == 3.0

    def test_reattach_replaces_not_accumulates(self):
        fleet = FleetRegistry()
        registry = MetricsRegistry()
        registry.inc("requests_total", 5.0)
        fleet.attach("node-0", registry)
        fleet.attach("node-0", registry)  # re-announce, same truth
        assert fleet.fleet_value("requests_total") == 5.0

    def test_conflicting_node_label_raises(self):
        fleet = FleetRegistry()
        impostor = MetricsRegistry()
        impostor.inc("requests_total", 1.0, labels={"node": "node-9"})
        with pytest.raises(FleetError):
            fleet.attach("node-0", impostor)
        # The node's own label is fine.
        honest = MetricsRegistry()
        honest.inc("requests_total", 1.0, labels={"node": "node-0"})
        fleet.attach("node-0", honest)

    def test_empty_node_id_raises(self):
        with pytest.raises(FleetError):
            FleetRegistry().attach("", MetricsRegistry())

    def test_fleet_histogram_merges_counts(self):
        fleet = FleetRegistry()
        for node, values in (("node-0", [1.0, 2.0]), ("node-1", [3.0])):
            for value in values:
                fleet.node(node).observe("latency_ms", value)
        histogram = fleet.fleet_histogram("latency_ms")
        assert histogram is not None
        assert histogram.count == 3
        assert histogram.min_value == 1.0
        assert histogram.max_value == 3.0
        assert fleet.fleet_quantile("latency_ms", 1.0) == 3.0

    def test_fleet_histogram_does_not_alias_node_state(self):
        fleet = FleetRegistry()
        fleet.node("node-0").observe("latency_ms", 1.0)
        merged = fleet.fleet_histogram("latency_ms")
        merged.observe(99.0)
        assert fleet.node("node-0").histogram("latency_ms").count == 1

    def test_exemplars_survive_federation(self):
        fleet = FleetRegistry()
        fleet.node("node-0").observe("latency_ms", 4.2, exemplar="t-0042")
        merged = fleet.merged().histogram(
            "latency_ms", {"node": "node-0"})
        assert ("t-0042", 4.2) in merged.exemplars.values()
        combined = fleet.fleet_histogram("latency_ms")
        assert ("t-0042", 4.2) in combined.exemplars.values()

    def test_no_data_reads(self):
        fleet = FleetRegistry()
        assert fleet.fleet_histogram("nope") is None
        assert fleet.fleet_quantile("nope", 0.99) == 0.0
        assert fleet.fleet_value("nope") == 0.0

    @given(
        samples=st.lists(
            st.floats(min_value=0.01, max_value=1e6,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=200),
        nodes=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_merged_p99_within_one_bucket_width(self, samples, nodes):
        # The federation contract: a fleet quantile read off merged
        # histograms lands within one log-linear bucket width of the
        # quantile over the concatenated raw samples.
        fleet = FleetRegistry()
        for i, value in enumerate(samples):
            fleet.node(f"node-{i % nodes}").observe("latency_ms", value)
        single = Histogram()
        for value in samples:
            single.observe(value)
        for q in (0.5, 0.99):
            merged_q = fleet.fleet_quantile("latency_ms", q)
            # Exact merge: identical to one giant histogram.
            assert merged_q == single.quantile(q)
            ordered = sorted(samples)
            exact = ordered[math.ceil(q * len(ordered)) - 1]
            assert abs(merged_q - exact) <= bucket_width(exact)


class TestFleetWindowSeries:
    def test_windows_close_on_boundary(self):
        series = FleetWindowSeries(window_ms=100.0)
        series.observe("node-0", 10.0, 5.0)
        series.observe("node-1", 20.0, 7.0)
        assert series.points == []  # window still open
        series.observe("node-0", 150.0, 9.0)
        assert len(series.points) == 1
        point = series.points[0]
        assert point.start_ms == 0.0
        assert point.count == 2
        assert point.max_value == 7.0
        series.flush()
        assert len(series.points) == 2
        assert series.points[1].start_ms == 100.0

    def test_empty_gap_windows_emit_nothing(self):
        series = FleetWindowSeries(window_ms=100.0)
        series.observe("node-0", 10.0, 1.0)
        series.observe("node-0", 950.0, 1.0)
        series.flush()
        assert [p.start_ms for p in series.points] == [0.0, 900.0]

    def test_bounded_with_eviction_count(self):
        series = FleetWindowSeries(window_ms=10.0, capacity=3)
        for i in range(8):
            series.observe("node-0", i * 10.0, 1.0)
        series.flush()
        assert len(series.points) == 3
        assert series.evicted == 5
        assert [p.start_ms for p in series.points] == [50.0, 60.0, 70.0]

    def test_bad_inputs(self):
        with pytest.raises(FleetError):
            FleetWindowSeries(window_ms=0.0)
        with pytest.raises(FleetError):
            FleetWindowSeries(capacity=0)


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


class TestBucketWidth:
    def test_nonpositive_is_zero(self):
        assert bucket_width(0.0) == 0.0
        assert bucket_width(-1.0) == 0.0

    def test_scales_with_magnitude(self):
        assert bucket_width(100.0) == pytest.approx(64.0 / 32)
        assert bucket_width(1.0) < bucket_width(1000.0)
