"""Tests for the kernel throughput microbenchmark and its gate (X11)."""

import json

import pytest

from repro.bench.baseline import (
    HIGHER,
    baseline_path,
    collect_kernel_throughput,
    load_baseline,
)
from repro.bench.cli import main as cli_main
from repro.bench.kernelbench import kernel_bench, write_kernel_bench_json

# Small budget: the workload still runs at least one full index of
# every component, which is all determinism needs.
TINY = 1_000


class TestKernelBench:
    def test_event_count_is_deterministic(self):
        first = kernel_bench(target_events=TINY, seed=7)
        second = kernel_bench(target_events=TINY, seed=7)
        assert first.events_total == second.events_total
        assert first.fast.events == first.reference.events

    def test_vectorized_backend_is_faster(self):
        # A loose floor — the recorded baseline enforces the real one
        # (SPEEDUP_HARD_FLOOR); this only guards against the backends
        # being accidentally swapped or the switch being a no-op.
        result = kernel_bench(target_events=TINY, seed=7)
        assert result.speedup_vs_reference > 1.5

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError, match="positive"):
            kernel_bench(target_events=0)

    def test_render_mentions_both_backends(self):
        result = kernel_bench(target_events=TINY, seed=7)
        text = result.render()
        assert "fast" in text and "reference" in text
        assert "speedup" in text

    def test_profile_json_round_trips(self, tmp_path):
        result = kernel_bench(target_events=TINY, seed=7)
        path = write_kernel_bench_json(tmp_path / "kb.json", result)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["bench"] == "kernel-throughput"
        assert payload["events_total"] == result.events_total
        assert len(payload["runs"]) == 2


class TestCli:
    def test_kernel_bench_runs(self, capsys, tmp_path):
        out_path = tmp_path / "kb.json"
        assert cli_main(["kernel-bench", "--events", str(TINY),
                         "--profile-out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "Kernel throughput" in out
        assert out_path.exists()

    @pytest.mark.parametrize("bad", ["0", "-3"])
    def test_nonpositive_events_rejected(self, capsys, bad):
        assert cli_main(["kernel-bench", "--events", bad]) == 2
        assert "positive" in capsys.readouterr().err


class TestBaselineGate:
    def test_committed_baseline_exists_and_parses(self):
        path = baseline_path("benchmarks/baselines", "kernel-throughput")
        assert path.exists(), f"missing committed baseline {path}"
        payload, metrics = load_baseline(path)
        assert payload["bench"] == "kernel-throughput"
        assert set(metrics) == {"kernel/events_total",
                                "kernel/speedup_vs_floor"}
        for metric in metrics.values():
            assert metric.direction == HIGHER
        # recorded while clearing the hard floor with margin
        assert metrics["kernel/speedup_vs_floor"].p50 == 1.0

    def test_collector_emits_gated_metrics(self):
        metrics = collect_kernel_throughput(repetitions=1, seed=7)
        assert set(metrics) == {"kernel/events_total",
                                "kernel/speedup_vs_floor"}
        assert metrics["kernel/events_total"].p50 > 0
        # clamped at 1.0: normal wall-clock noise can't move the gate
        assert 0.0 < metrics["kernel/speedup_vs_floor"].p50 <= 1.0

    def test_committed_events_total_matches_a_fresh_run(self):
        """The deterministic half of the baseline must reproduce."""
        path = baseline_path("benchmarks/baselines", "kernel-throughput")
        payload, metrics = load_baseline(path)
        result = kernel_bench(seed=int(payload["seed"]))
        assert float(result.events_total) == \
            metrics["kernel/events_total"].p50
