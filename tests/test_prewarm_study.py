"""Tests for X13 (repro.bench.prewarm_study): the prewarm policy sweep."""

import json

import pytest

from repro.bench.prewarm_study import (
    POLICY_LADDER,
    PrewarmStudyConfig,
    _synthesize_prewarm_trace,
    _window_counts,
    prewarm_study,
    render_prewarm_report,
)
from repro.sim.rng import _derive_seed

# Small but non-degenerate smoke shape: enough arrivals for the
# forecasters to converge, seconds of wall time to run.
SMOKE = dict(repetitions=1, seed=42, requests=8_000)


@pytest.fixture(scope="module")
def smoke():
    return prewarm_study(**SMOKE)


class TestTraceSynthesis:
    def test_trace_is_sorted_and_covers_all_functions(self):
        config = PrewarmStudyConfig(requests=5_000)
        times, fids = _synthesize_prewarm_trace(config, seed=7)
        assert len(times) == len(fids)
        assert len(times) >= config.requests
        assert (times[1:] >= times[:-1]).all()
        assert fids.min() >= 0
        assert fids.max() < config.total_functions
        # The timer overlay population must actually fire.
        assert (fids >= config.functions).sum() > 0

    def test_trace_is_seed_deterministic(self):
        config = PrewarmStudyConfig(requests=3_000)
        a_times, a_fids = _synthesize_prewarm_trace(config, seed=11)
        b_times, b_fids = _synthesize_prewarm_trace(config, seed=11)
        assert (a_times == b_times).all()
        assert (a_fids == b_fids).all()
        c_times, _ = _synthesize_prewarm_trace(config, seed=12)
        assert len(a_times) != len(c_times) or not (a_times == c_times).all()

    def test_window_counts_partition_the_trace(self):
        config = PrewarmStudyConfig(requests=3_000)
        times, fids = _synthesize_prewarm_trace(config, seed=5)
        counts = _window_counts(config, times, fids)
        assert set(counts) == set(range(config.total_functions))
        total = sum(sum(values) for values in counts.values())
        assert total == len(times)


class TestStudy:
    def test_ladder_is_complete(self, smoke):
        rep = smoke.headline
        assert set(rep.outcomes) == set(POLICY_LADDER)
        for outcome in rep.outcomes.values():
            assert outcome.requests > 0
            assert (outcome.cold_starts + outcome.warm_starts
                    + outcome.queued == outcome.requests)

    def test_reactive_is_the_worst_and_fixed_helps(self, smoke):
        rep = smoke.headline
        reactive = rep.outcomes["reactive"]
        fixed = rep.outcomes["fixed"]
        assert reactive.cold_starts > fixed.cold_starts
        assert reactive.wasted_warm_s == 0.0
        assert fixed.wasted_warm_s > 0.0

    def test_predictive_beats_fixed_on_the_smoke_trace(self, smoke):
        rep = smoke.headline
        assert rep.learned_beats_fixed
        assert rep.oracle_bounds_gap
        learned = rep.outcomes["learned"]
        fixed = rep.outcomes["fixed"]
        assert learned.cold_starts < fixed.cold_starts
        assert learned.cold_p99_ms < fixed.cold_p99_ms
        assert learned.wasted_warm_s <= fixed.wasted_warm_s

    def test_prewarming_actually_happened(self, smoke):
        rep = smoke.headline
        assert rep.outcomes["learned"].prewarm_placements > 0
        assert rep.outcomes["oracle"].prewarm_placements > 0
        assert rep.outcomes["fixed"].prewarm_placements == 0
        assert rep.outcomes["learned"].prefetch_mib > 0.0

    def test_timer_functions_are_covered_by_scheduling(self, smoke):
        rep = smoke.headline
        # The fixed keep-alive cannot cover multi-minute timer periods;
        # the histogram policies prewarm on schedule instead.
        assert (rep.outcomes["learned"].timer_cold_starts
                < rep.outcomes["fixed"].timer_cold_starts)

    def test_study_is_deterministic(self):
        a = prewarm_study(**SMOKE)
        b = prewarm_study(**SMOKE)
        assert a.as_dict() == b.as_dict()

    def test_artifact_is_json_round_trippable(self, smoke):
        artifact = json.loads(json.dumps(smoke.as_dict(), sort_keys=True))
        assert artifact["experiment"] == "prewarm-study"
        assert artifact["reps"][0]["policies"]["learned"]["cold_starts"] >= 0


class TestExemplar:
    def test_live_platform_pipeline_fired(self, smoke):
        exemplar = smoke.exemplar
        assert exemplar["plans"] > 0
        assert exemplar["windows_fed"] > 0
        assert exemplar["prewarm_replicas"] > 0
        assert exemplar["prefetch_requests"] > 0
        assert exemplar["autoscaler_prewarm_events"] > 0

    def test_exemplar_accounts_wasted_warm_time(self, smoke):
        # Read off autoscaler_wasted_warm_ms_total (the world is observed).
        assert smoke.exemplar["wasted_warm_ms"] >= 0.0


class TestRendering:
    def test_report_has_the_greppable_verdict_lines(self, smoke):
        report = render_prewarm_report(smoke.as_dict())
        assert "X13" in report
        for policy in POLICY_LADDER:
            assert policy in report
        assert "predictive beats fixed keep-alive: yes" in report
        assert "oracle bounds the gap: yes" in report
        assert "live platform exemplar:" in report

    def test_render_matches_result_render(self, smoke):
        assert smoke.render() == render_prewarm_report(smoke.as_dict())


class TestSeedDerivation:
    def test_rep_seeds_are_distinct(self):
        seeds = {_derive_seed(42, f"prewarm-{rep}") for rep in range(8)}
        assert len(seeds) == 8
