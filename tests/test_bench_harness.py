"""Tests for probe-measured phases, the load generator, harness and
report helpers."""

import pytest

from repro.bench.harness import run_service_experiment, run_startup_experiment
from repro.bench.profile import ProfileAccountingError
from repro.bench.report import format_interval, format_table, stacked_bar
from repro.bench.workload import LoadGenerator
from repro.core.manager import PrebakeManager
from repro.core.policy import AfterReady, AfterWarmup
from repro.core.starters import VanillaStarter
from repro.functions import make_app
from repro.obs import profile as prof
from repro.sim.costmodel import DEFAULT_COST_MODEL


def _phases(kernel, start):
    """Probe-measured phases of one start (the profile fold)."""
    profiler = prof.install(kernel)
    handle = start()
    phases = prof.fold(profiler.reset())
    prof.uninstall(kernel)
    return handle, phases


class TestProbePhases:
    def test_vanilla_phase_breakdown(self, quiet_kernel):
        _, phases = _phases(quiet_kernel, lambda: VanillaStarter(
            quiet_kernel).start(make_app("noop")))
        m = DEFAULT_COST_MODEL
        assert phases["CLONE"] == pytest.approx(m.clone_ms)
        assert phases["EXEC"] == pytest.approx(m.exec_ms)
        assert phases["RTS"] == pytest.approx(m.jvm_rts_ms)
        assert phases["APPINIT"] == pytest.approx(31.3, abs=0.5)

    def test_prebake_rts_is_zero(self, quiet_kernel):
        manager = PrebakeManager(quiet_kernel)
        app = make_app("noop")
        manager.deploy(app)
        _, phases = _phases(quiet_kernel, lambda: manager.start_replica(
            app, technique="prebake"))
        assert phases["RTS"] == 0.0
        assert phases["APPINIT"] == pytest.approx(60.0, abs=0.5)

    def test_breakdown_total(self, quiet_kernel):
        handle, phases = _phases(quiet_kernel, lambda: VanillaStarter(
            quiet_kernel).start(make_app("noop")))
        total = sum(phases[phase] for phase in prof.STARTUP_PHASES)
        assert total == pytest.approx(handle.startup_ms("ready"), rel=0.01)


class TestLoadGenerator:
    def test_holds_first_request_until_ready(self, kernel):
        generator = LoadGenerator(kernel)
        result = generator.run(VanillaStarter(kernel), make_app("noop"),
                               requests=5, interval_ms=10.0)
        first = result.responses[0]
        assert first.started_ms >= result.handle.ready_at_ms

    def test_constant_rate_spacing(self, kernel):
        generator = LoadGenerator(kernel)
        result = generator.run(VanillaStarter(kernel), make_app("noop"),
                               requests=3, interval_ms=50.0)
        gaps = [
            result.responses[i + 1].started_ms - result.responses[i].finished_ms
            for i in range(2)
        ]
        assert all(g == pytest.approx(50.0) for g in gaps)

    def test_collects_all_service_times(self, kernel):
        result = LoadGenerator(kernel).run(
            VanillaStarter(kernel), make_app("markdown"), requests=20)
        assert len(result.service_times) == 20
        assert result.errors == 0

    def test_zero_requests_allowed(self, kernel):
        result = LoadGenerator(kernel).run(
            VanillaStarter(kernel), make_app("noop"), requests=0)
        assert result.responses == []

    def test_negative_requests_rejected(self, kernel):
        with pytest.raises(ValueError):
            LoadGenerator(kernel).run(VanillaStarter(kernel),
                                      make_app("noop"), requests=-1)


class TestStartupExperiment:
    def test_sample_count(self):
        summary = run_startup_experiment("noop", "vanilla", repetitions=10, seed=1)
        assert len(summary.samples) == 10
        assert summary.metric == "ready"

    def test_deterministic_per_seed(self):
        a = run_startup_experiment("noop", "vanilla", repetitions=5, seed=9)
        b = run_startup_experiment("noop", "vanilla", repetitions=5, seed=9)
        assert a.values == b.values

    def test_different_seeds_differ(self):
        a = run_startup_experiment("noop", "vanilla", repetitions=5, seed=1)
        b = run_startup_experiment("noop", "vanilla", repetitions=5, seed=2)
        assert a.values != b.values

    def test_repetitions_vary_within_run(self):
        summary = run_startup_experiment("noop", "vanilla", repetitions=10, seed=1)
        assert len(set(summary.values)) > 1

    def test_synthetic_uses_first_response(self):
        summary = run_startup_experiment("synthetic-small", "vanilla",
                                         repetitions=3, seed=1)
        assert summary.metric == "first_response"

    def test_prebake_records_snapshot_size(self):
        summary = run_startup_experiment("noop", "prebake", repetitions=3, seed=1)
        assert all(s.snapshot_mib > 10 for s in summary.samples)

    def test_phase_tracing(self):
        summary = run_startup_experiment("noop", "vanilla", repetitions=3,
                                         seed=1, trace_phases=True)
        phases = summary.phase_medians()
        assert phases["RTS"] == pytest.approx(70.0, rel=0.05)

    def test_phases_missing_from_the_probes_rejected(self, monkeypatch):
        """A traced repetition whose phases do not sum to its ready
        window (here: the execve exits go unobserved) fails loudly."""
        monkeypatch.setattr(prof, "PHASE_PROBES", tuple(
            point for point in prof.PHASE_PROBES if point[1] != "execve"))
        with pytest.raises(ProfileAccountingError, match="start-up measured"):
            run_startup_experiment("noop", "vanilla", repetitions=1,
                                   seed=1, trace_phases=True)

    def test_phase_medians_without_tracing_rejected(self):
        summary = run_startup_experiment("noop", "vanilla", repetitions=3, seed=1)
        with pytest.raises(ValueError):
            summary.phase_medians()

    def test_warm_policy_faster_than_nowarm(self):
        nowarm = run_startup_experiment("synthetic-small", "prebake",
                                        policy=AfterReady(),
                                        repetitions=5, seed=1)
        warm = run_startup_experiment("synthetic-small", "prebake",
                                      policy=AfterWarmup(1),
                                      repetitions=5, seed=1)
        assert warm.median_ms < 0.5 * nowarm.median_ms


class TestServiceExperiment:
    def test_service_samples_collected(self):
        summary = run_service_experiment("noop", "vanilla", requests=30, seed=1)
        assert len(summary.service_times_ms) == 30
        assert summary.errors == 0

    def test_techniques_have_similar_service_time(self):
        vanilla = run_service_experiment("markdown", "vanilla", requests=50, seed=2)
        prebake = run_service_experiment("markdown", "prebake", requests=50, seed=2)
        ratio = prebake.median_ms / vanilla.median_ms
        assert 0.9 < ratio < 1.1


class TestReportHelpers:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_interval(self):
        assert format_interval(219.25, 220.32) == "(219.25;220.32)"

    def test_stacked_bar_proportions(self):
        bar = stacked_bar({"CLONE": 0, "EXEC": 0, "RTS": 50, "APPINIT": 50},
                          total_width=10)
        assert bar.count("R") == 5
        assert bar.count("A") == 5

    def test_stacked_bar_empty(self):
        assert stacked_bar({"RTS": 0.0}) == "(empty)"
