"""X12 fleet study: workload synthesis, the simulator, the report."""

import hashlib
import json

import numpy as np
import pytest

from repro.bench.fleet_study import (
    MIB,
    FleetStudyConfig,
    _run_repetition,
    fleet_study,
    render_fleet_report,
)
from repro.bench.traces import TraceFormatError, synthesize_fleet_workload

SMALL = dict(requests=5_000, functions=20, compute_nodes=4,
             storage_nodes=4)

# SHA-256 of the SMALL study's artifact (seed 7, sort_keys JSON,
# exemplar spans included) and of its report, sealed from the study
# when it still federated one registry per node; the labelled single
# registry must reproduce both byte for byte.
GOLDEN_ARTIFACT_SHA256 = (
    "55fc995b21dc02a3eb601a26ee7a41bf3f881f073b065f3dbc78e44b2b66d3f2")
GOLDEN_REPORT_SHA256 = (
    "fd2d6b0138ab4f4659e6c44ff900a103461214ef1341b90788342a96966b2688")


def small_study(seed=7, **overrides):
    kwargs = dict(SMALL)
    kwargs.update(overrides)
    return fleet_study(repetitions=1, seed=seed, **kwargs)


class TestSynthesizeFleetWorkload:
    def test_meets_request_floor_sorted_and_in_range(self):
        times, fids = synthesize_fleet_workload(
            function_count=30, duration_ms=600_000.0, requests=10_000,
            seed=3)
        assert times.size == fids.size >= 10_000
        assert np.all(np.diff(times) >= 0)
        assert times.min() >= 0.0 and times.max() < 600_000.0
        assert fids.min() >= 0 and fids.max() < 30

    def test_deterministic(self):
        a = synthesize_fleet_workload(10, 100_000.0, 2_000, seed=5)
        b = synthesize_fleet_workload(10, 100_000.0, 2_000, seed=5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = synthesize_fleet_workload(10, 100_000.0, 2_000, seed=6)
        assert not np.array_equal(a[0], c[0])

    def test_zipf_head_dominates(self):
        _, fids = synthesize_fleet_workload(
            50, 600_000.0, 20_000, seed=1)
        counts = np.bincount(fids, minlength=50)
        # The hottest function beats the median function by a wide
        # margin — the regime where warm pools matter.
        assert counts[0] > 5 * np.median(counts)

    def test_validation(self):
        with pytest.raises(TraceFormatError):
            synthesize_fleet_workload(0, 1000.0, 10)
        with pytest.raises(TraceFormatError):
            synthesize_fleet_workload(5, 0.0, 10)
        with pytest.raises(TraceFormatError):
            synthesize_fleet_workload(5, 1000.0, 0)
        with pytest.raises(TraceFormatError):
            synthesize_fleet_workload(5, 1000.0, 10, bursty_fraction=2.0)


class TestFleetStudy:
    def test_deterministic_artifact(self):
        # Image and request ids are numbered per world, so the whole
        # artifact, exemplar spans included, reproduces in-process.
        first = small_study().as_dict()
        second = small_study().as_dict()
        assert (json.dumps(first, sort_keys=True)
                == json.dumps(second, sort_keys=True))

    def test_matches_sealed_golden(self):
        result = small_study()
        artifact = json.dumps(result.as_dict(), sort_keys=True)
        assert (hashlib.sha256(artifact.encode()).hexdigest()
                == GOLDEN_ARTIFACT_SHA256)
        assert (hashlib.sha256(result.render().encode()).hexdigest()
                == GOLDEN_REPORT_SHA256)

    def test_headline_invariants(self):
        result = small_study()
        rep = result.headline
        assert rep.requests >= SMALL["requests"]
        assert 0 < rep.cold_starts <= rep.requests
        assert 0.0 < rep.cold_p50_ms <= rep.cold_p99_ms
        assert 0.0 <= rep.cache_hit_rate <= 1.0
        assert 0.0 <= rep.locality_hit_rate <= 1.0
        assert rep.cross_node_bytes > 0
        # Per-node requests sum to the fleet total.
        compute = [row for row in rep.per_node_rows
                   if str(row["node"]).startswith("node-")]
        assert sum(int(row["requests"]) for row in compute) == rep.requests
        assert sum(int(row["cold"]) for row in compute) == rep.cold_starts

    def test_load_spreads_across_compute_nodes(self):
        rep = small_study().headline
        compute = [row for row in rep.per_node_rows
                   if str(row["node"]).startswith("node-")]
        busy = [row for row in compute if int(row["requests"]) > 0]
        assert len(busy) == len(compute), "idle compute node in the fleet"

    def test_attribution_covers_every_cold_start(self):
        rep = small_study().headline
        attribution = rep.attribution
        assert attribution is not None
        assert sum(c.count for c in attribution.cells()) == rep.cold_starts
        # Each node's cells count exactly the cold starts its node=
        # series counted.
        for row in rep.per_node_rows:
            blamed = sum(c.count for c in attribution.cells()
                         if c.node == row["node"])
            assert blamed == row["cold"]
        for cell in attribution.cells():
            phase_sum = 0.0
            for value in cell.phase_ms.values():
                phase_sum += value
            assert phase_sum == pytest.approx(cell.total_ms, rel=1e-9)

    def test_store_rows_account_for_every_remote_byte(self):
        # Every byte a cold start fetched remotely was served by one
        # store, so the store-labelled series sum to the fleet total.
        rep = small_study().headline
        served_mib = sum(float(row["served_mib"]) for row in rep.per_node_rows
                         if str(row["node"]).startswith("store-"))
        assert served_mib > 0.0
        assert served_mib * MIB == pytest.approx(rep.cross_node_bytes,
                                                 rel=1e-12)

    def test_degraded_count_matches_degraded_cells(self):
        config = FleetStudyConfig(node_cache_mib=8, **SMALL)
        rep = _run_repetition(config, seed=7, rep=0)
        degraded = sum(c.count for c in rep.attribution.cells()
                       if c.outcome == "degraded")
        assert degraded == rep.degraded_cold_starts > 0

    def test_hot_functions_rank_matches_zipf_head(self):
        rep = small_study().headline
        assert rep.hot_functions
        assert rep.hot_functions[0][0] == "fn-000"

    def test_storage_outage_produces_degraded_bucket(self):
        # A tiny cache keeps remote fetches alive through the outage
        # window, so some cold starts must take retry hops.
        config = FleetStudyConfig(node_cache_mib=8, **SMALL)
        rep = _run_repetition(config, seed=7, rep=0)
        assert rep.degraded_cold_starts > 0
        outcomes = {c.outcome for c in rep.attribution.cells()}
        assert "degraded" in outcomes

    def test_exemplar_is_stitched_across_nodes(self):
        result = small_study()
        nodes = result.stitched_nodes()
        assert len(nodes) >= 2
        assert any(n.startswith("node-") for n in nodes)
        assert any(n.startswith("store-") for n in nodes)

    def test_render_report_names_the_stitch(self):
        result = small_study()
        report = render_fleet_report(result.as_dict())
        assert "stitched multi-node trace: yes" in report
        assert "cold-start blame table" in report

    def test_artifact_round_trips_through_json(self):
        artifact = small_study().as_dict()
        clone = json.loads(json.dumps(artifact, sort_keys=True))
        assert render_fleet_report(clone) == render_fleet_report(artifact)


class TestWorkerCountInvariance:
    def test_cli_report_identical_for_any_worker_count(self, capsys):
        # --workers fans repetitions out; it must never reach the
        # simulated restore charge (it once divided retry-hop costs).
        from repro.bench.cli import main
        reports = []
        for workers in ("1", "4"):
            assert main(["fleet-study", "-r", "1", "-s", "42",
                         "--requests", "2000", "--workers", workers]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
