"""The continuous-performance gate: record, compare, exit codes.

Every gated value is a pure function of the seed, so ``compare`` is
exact: a one-ulp change of any recorded field, in either direction,
fails it, and so does a metric that vanished or has no baseline. The
heavy collectors (fig3 / restore-sweep / chaos) are exercised
elsewhere; the gate mechanics are tested here against a registered
in-memory bench so the full CLI path runs in milliseconds.
"""

import json
import math

import pytest

from repro.bench import baseline
from repro.bench.baseline import (
    BENCHES,
    Bench,
    MetricBaseline,
    baseline_path,
    compare_metrics,
    load_baseline,
    metric_from_values,
    record,
    scalar_metric,
)


def fake_collect(repetitions, seed):
    """Deterministic pseudo-bench: values derive from (reps, seed)."""
    values = [100.0 + seed + i for i in range(repetitions)]
    return {
        "startup_ms": metric_from_values(values),
        "success_rate": scalar_metric(0.99, direction=baseline.HIGHER),
    }


@pytest.fixture
def fake_bench(monkeypatch):
    monkeypatch.setitem(BENCHES, "fake",
                        Bench("fake", fake_collect, default_repetitions=8))
    return "fake"


class TestMetricSummaries:
    def test_distribution_metric_fields(self):
        metric = metric_from_values([1.0, 2.0, 3.0, 4.0, 5.0])
        assert metric.p50 == 3.0
        assert metric.n == 5
        assert metric.ci_low is not None and metric.ci_low <= metric.p50
        assert metric.ci_high >= metric.p50

    def test_scalar_metric_collapses(self):
        metric = scalar_metric(0.5, direction=baseline.HIGHER)
        assert metric.p50 == metric.p99 == metric.mean == 0.5
        assert metric.n == 1 and metric.ci_low is None

    def test_round_trip_through_dict(self):
        metric = metric_from_values([1.0, 2.0, 3.0])
        assert MetricBaseline.from_dict(metric.to_dict()) == metric


def _ulp(value, upward):
    return math.nextafter(value, math.inf if upward else -math.inf)


class TestCompareMetrics:
    def base(self, p50=100.0, direction=baseline.LOWER, n=10):
        return {"m": MetricBaseline(p50=p50, p99=p50 * 1.1, mean=p50,
                                    n=n, direction=direction,
                                    ci_low=p50 * 0.99, ci_high=p50 * 1.01)}

    def test_identical_metrics_pass(self):
        assert compare_metrics(self.base(), self.base()) == ([], [], [])

    @pytest.mark.parametrize("upward", [True, False])
    @pytest.mark.parametrize("field",
                             ["p50", "p99", "mean", "ci_low", "ci_high"])
    def test_one_ulp_in_either_direction_trips(self, field, upward):
        current = self.base()
        was = getattr(current["m"], field)
        setattr(current["m"], field, _ulp(was, upward))
        (mismatch,), missing, new = compare_metrics(self.base(), current)
        assert (mismatch.metric, mismatch.field) == ("m", field)
        assert (mismatch.baseline, missing, new) == (was, [], [])
        assert (mismatch.delta > 0) == upward

    def test_sample_count_change_trips(self):
        (mismatch,), _, _ = compare_metrics(self.base(), self.base(n=11))
        assert (mismatch.field, mismatch.delta) == ("n", 1)

    def test_improvement_trips_and_reads_better(self):
        mismatches, _, _ = compare_metrics(self.base(), self.base(p50=50.0))
        assert {m.field for m in mismatches} == {
            "p50", "p99", "mean", "ci_low", "ci_high"}
        assert {m.verdict for m in mismatches} == {"better"}

    def test_higher_direction_reads_a_drop_as_worse(self):
        base = self.base(p50=1.0, direction=baseline.HIGHER, n=1)
        mismatches, _, _ = compare_metrics(base, self.base(
            p50=0.7, direction=baseline.HIGHER, n=1))
        assert mismatches and {m.verdict for m in mismatches} == {"worse"}

    def test_a_ci_that_appears_trips_without_a_sign(self):
        current = self.base()
        base = self.base()
        base["m"].ci_low = base["m"].ci_high = None
        mismatches, _, _ = compare_metrics(base, current)
        assert [(m.field, m.delta, m.verdict) for m in mismatches] == [
            ("ci_low", None, "changed"), ("ci_high", None, "changed")]

    def test_missing_and_new_metrics_are_reported(self):
        current = {"n2": self.base()["m"]}
        assert compare_metrics(self.base(), current) == ([], ["m"], ["n2"])


class TestRecordAndCompareCli:
    def test_identical_seed_rerun_exits_zero(self, fake_bench, tmp_path):
        assert baseline.main(["record", fake_bench,
                              "--dir", str(tmp_path)]) == 0
        assert baseline.main(["compare", fake_bench,
                              "--dir", str(tmp_path)]) == 0

    def test_one_ulp_edited_baseline_exits_two(self, fake_bench, tmp_path,
                                               capsys):
        record(fake_bench, directory=str(tmp_path))
        path = baseline_path(str(tmp_path), fake_bench)
        payload = json.loads(path.read_text())
        entry = payload["metrics"]["startup_ms"]
        was = entry["p50"]
        entry["p50"] = _ulp(was, upward=False)
        path.write_text(json.dumps(payload))
        assert baseline.main(["compare", fake_bench,
                              "--dir", str(tmp_path)]) == 2
        out = capsys.readouterr().out
        delta = was - entry["p50"]
        assert "startup_ms" in out and "p50" in out
        assert repr(was) in out and f"{delta:+.6g}" in out
        assert "worse" in out

    def test_metric_without_a_baseline_exits_two(self, fake_bench, tmp_path,
                                                 capsys):
        record(fake_bench, directory=str(tmp_path))
        path = baseline_path(str(tmp_path), fake_bench)
        payload = json.loads(path.read_text())
        del payload["metrics"]["success_rate"]
        path.write_text(json.dumps(payload))
        assert baseline.main(["compare", fake_bench,
                              "--dir", str(tmp_path)]) == 2
        assert "'success_rate' has no baseline" in capsys.readouterr().out

    def test_missing_baseline_exits_three(self, fake_bench, tmp_path):
        assert baseline.main(["compare", fake_bench,
                              "--dir", str(tmp_path)]) == 3

    @pytest.mark.parametrize("argv,message", [
        (["record", "--repetitions", "0"],
         "--repetitions must be a positive integer"),
        (["record", "-r", "-3"], "--repetitions must be a positive integer"),
        (["record", "--seed", "0"], "--seed must be a positive integer"),
        (["record", "-s", "-1"], "--seed must be a positive integer"),
        (["record", "fig3", "-r", "1"],
         "--repetitions must be at least 2 for fig3, got 1"),
        (["record", "-r", "1"],
         "--repetitions must be at least 2 for fig3, got 1"),
    ])
    def test_bad_overrides_exit_two(self, capsys, argv, message, tmp_path):
        assert baseline.main(argv + ["--dir", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())  # nothing recorded

    def test_unknown_bench_exits_three(self, tmp_path):
        assert baseline.main(["record", "no-such-bench",
                              "--dir", str(tmp_path)]) == 3

    def test_schema_version_mismatch_refuses(self, fake_bench, tmp_path):
        record(fake_bench, directory=str(tmp_path))
        path = baseline_path(str(tmp_path), fake_bench)
        payload = json.loads(path.read_text())
        payload["schema_version"] = 0
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="schema"):
            load_baseline(path)
        assert baseline.main(["compare", fake_bench,
                              "--dir", str(tmp_path)]) == 3

    def test_baseline_records_seed_and_repetitions(self, fake_bench,
                                                   tmp_path):
        record(fake_bench, directory=str(tmp_path), repetitions=5, seed=7)
        payload, metrics = load_baseline(
            baseline_path(str(tmp_path), fake_bench))
        assert payload["seed"] == 7 and payload["repetitions"] == 5
        assert metrics["startup_ms"].n == 5

    def test_compare_reruns_at_recorded_seed(self, fake_bench, tmp_path):
        # Record at a non-default seed; compare must reproduce it (the
        # fake collector folds the seed into every value, so a re-run
        # at any other seed would regress).
        record(fake_bench, directory=str(tmp_path), seed=900)
        assert baseline.main(["compare", fake_bench,
                              "--dir", str(tmp_path)]) == 0


class TestCommittedBaselines:
    def test_repo_baselines_exist_and_parse(self):
        for name in ("fig3", "restore-sweep", "chaos"):
            path = baseline_path(baseline.DEFAULT_DIR, name)
            assert path.exists(), f"missing committed baseline {path}"
            payload, metrics = load_baseline(path)
            assert payload["bench"] == name
            assert metrics, f"{name} baseline has no metrics"

    @pytest.mark.slow
    def test_fig3_identical_seed_rerun_is_clean(self):
        assert baseline.compare("fig3") == ([], [], [])
