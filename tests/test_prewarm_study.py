"""Tests for X13 (repro.bench.prewarm_study): the prewarm policy sweep."""

import hashlib
import json

import pytest

from repro.bench.prewarm_study import (
    PAIRED_SEEDS,
    POLICY_LADDER,
    PolicyOutcome,
    PrewarmRepResult,
    PrewarmStudyConfig,
    _synthesize_prewarm_trace,
    _window_counts,
    paired_verdict,
    prewarm_study,
    render_prewarm_report,
)
from repro.sim.rng import _derive_seed

# Small but non-degenerate smoke shape: enough arrivals for the
# forecasters to converge, seconds of wall time to run.
SMOKE = dict(repetitions=1, seed=42, requests=8_000)


# SHA-256 of the smoke study's artifact (sort_keys JSON, exemplar
# included) and of its report, sealed when X13 moved onto the one
# fleet model (bench/fleet_model.py). The artifact was re-sealed when
# the unread outcome fields (cold mean, cold cache hits, timer wasted
# warm-seconds) were dropped; the report did not change.
GOLDEN_ARTIFACT_SHA256 = (
    "33e83ae40d92b5437ea446cb7c9e86dee4cdad8660345b79846175fa5bf59e83")
GOLDEN_REPORT_SHA256 = (
    "f1159d1e8240755477cc6c9492e033fdb5962ac46acc9968fb0352e2728bfe34")


@pytest.fixture(scope="module")
def smoke():
    """The smoke shape over the verdict's paired seeds (rep 0 is the
    one-rep smoke run: reps are independent)."""
    return prewarm_study(**dict(SMOKE, repetitions=PAIRED_SEEDS))


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
        rep = smoke.reps[0]
        assert set(rep.outcomes) == set(POLICY_LADDER)
        for outcome in rep.outcomes.values():
            assert outcome.requests > 0
            assert (outcome.cold_starts + outcome.warm_starts
                    + outcome.queued == outcome.requests)

    def test_reactive_is_the_worst_and_fixed_helps(self, smoke):
        rep = smoke.reps[0]
        reactive = rep.outcomes["reactive"]
        fixed = rep.outcomes["fixed"]
        assert reactive.cold_starts > fixed.cold_starts
        assert reactive.wasted_warm_s == 0.0
        assert fixed.wasted_warm_s > 0.0

    def test_predictive_beats_fixed_on_the_smoke_trace(self, smoke):
        rep = smoke.reps[0]
        assert rep.oracle_bounds_gap
        histogram = rep.outcomes["histogram"]
        fixed = rep.outcomes["fixed"]
        assert histogram.cold_starts < fixed.cold_starts
        assert histogram.cold_p99_ms < fixed.cold_p99_ms
        assert histogram.wasted_warm_s <= fixed.wasted_warm_s

    def test_prewarming_actually_happened(self, smoke):
        rep = smoke.reps[0]
        assert rep.outcomes["histogram"].prewarm_placements > 0
        assert rep.outcomes["oracle"].prewarm_placements > 0
        assert rep.outcomes["fixed"].prewarm_placements == 0
        assert rep.outcomes["histogram"].prefetch_mib > 0.0

    def test_timer_functions_are_covered_by_scheduling(self, smoke):
        rep = smoke.reps[0]
        # The fixed keep-alive cannot cover multi-minute timer periods;
        # the histogram policy prewarms on schedule instead.
        assert (rep.outcomes["histogram"].timer_cold_starts
                < rep.outcomes["fixed"].timer_cold_starts)

    def test_matches_sealed_golden(self, smoke):
        artifact = json.dumps(smoke.as_dict(), sort_keys=True)
        assert (hashlib.sha256(artifact.encode()).hexdigest()
                == GOLDEN_ARTIFACT_SHA256)
        assert (hashlib.sha256(smoke.render().encode()).hexdigest()
                == GOLDEN_REPORT_SHA256)

    def test_study_is_deterministic(self):
        a = prewarm_study(**SMOKE)
        b = prewarm_study(**SMOKE)
        assert a.as_dict() == b.as_dict()

    def test_artifact_is_json_round_trippable(self, smoke):
        artifact = json.loads(json.dumps(smoke.as_dict(), sort_keys=True))
        assert artifact["experiment"] == "prewarm-study"
        assert artifact["reps"][0]["policies"]["histogram"]["cold_starts"] >= 0
        assert artifact["verdict"]["seeds"] == PAIRED_SEEDS


def _rep(rep, fixed, histogram):
    """A rep whose two rungs score (cold, p99 ms, waste s)."""
    result = PrewarmRepResult(rep=rep, seed=rep)
    for name, (cold, p99, waste) in (("fixed", fixed),
                                     ("histogram", histogram)):
        result.outcomes[name] = PolicyOutcome(
            policy=name, cold_starts=cold, cold_p99_ms=p99,
            wasted_warm_s=waste)
    return result


class TestPairedVerdict:
    def test_every_axis_ci_excludes_zero_on_the_smoke_seeds(self, smoke):
        verdict = paired_verdict(smoke.reps)
        assert verdict["seeds"] == PAIRED_SEEDS
        for axis in ("cold_starts", "cold_p99_ms", "wasted_warm_s"):
            assert verdict[axis]["ci_low"] <= verdict[axis]["median"]
            assert verdict[axis]["ci_high"] < 0.0, axis
        assert verdict["beats"]

    def test_an_axis_whose_ci_straddles_zero_is_no(self):
        # Cold starts and p99 drop on every seed; waste rises on half.
        reps = [_rep(i, (100, 160.0, 1000.0),
                     (80, 150.0, 1000.0 + (50.0 if i % 2 else -50.0)))
                for i in range(PAIRED_SEEDS)]
        verdict = paired_verdict(reps)
        waste = verdict["wasted_warm_s"]
        assert waste["ci_low"] < 0.0 < waste["ci_high"]
        assert verdict["cold_starts"]["ci_high"] < 0.0
        assert verdict["cold_p99_ms"]["ci_high"] < 0.0
        assert not verdict["beats"]

    def test_a_waste_tie_still_beats(self):
        reps = [_rep(i, (100, 160.0, 1000.0), (80 - i, 150.0, 1000.0))
                for i in range(PAIRED_SEEDS)]
        assert paired_verdict(reps)["beats"]

    def test_one_seed_forms_no_ci_and_never_beats(self):
        verdict = paired_verdict([_rep(0, (100, 160.0, 1000.0),
                                       (10, 100.0, 10.0))])
        assert verdict["cold_starts"] is None
        assert not verdict["beats"]
        report = render_prewarm_report({
            "config": {}, "verdict": verdict,
            "reps": [{"rep": 0, "policies": {},
                      "oracle_bounds_gap": True}]})
        assert "predictive beats fixed keep-alive: NO" in report


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
