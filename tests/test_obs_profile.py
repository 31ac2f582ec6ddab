"""Phase profiler: taxonomy accounting, partitioning, zero-cost claim.

The acceptance bar: for both techniques the four top-level phases sum
to the measured start-up time exactly (float round-off only), restore
sub-phases partition the restore charge, the Figure 4 harness and the
profile experiment read the same fold, and an uninstalled profiler
leaves simulated time, RNG draws and the probe registry untouched.
"""

import pytest

from repro import faults, make_world
from repro.bench import harness
from repro.bench import profile as bench_profile
from repro.bench.profile import (
    ProfileAccountingError,
    ProfileRun,
    result_from_dict,
    run_profile_experiment,
)
from repro.core.manager import PrebakeManager
from repro.criu.restore import RestoreMode
from repro.faults import FaultPlan
from repro.functions import make_app
from repro.obs import profile as prof
from repro.obs.profile import PhaseSample
from repro.bench.fault_sweep import knob_plan

FAULT_PLANS = {
    "none": FaultPlan(),
    "restore_fail": knob_plan(1.0, {"restore.fail": 0.5}),
    "io_slow": knob_plan(1.0, {"io.slow": 1.0}),
    "image_corrupt": knob_plan(1.0, {"image.corrupt": 1.0}),  # vanilla fallback
}


def _top_level(phases):
    return {phase: phases[phase] for phase in prof.STARTUP_PHASES}


class TestTaxonomy:
    def test_restore_subphases_fold_under_appinit(self):
        assert prof.phase_stack("restore.chunk-fetch") == \
            ("APPINIT", "restore.chunk-fetch")
        assert prof.phase_stack("CLONE") == ("CLONE",)

    def test_phase_totals_fold_and_sum(self):
        totals = prof.fold([PhaseSample("CLONE", 1.0, at_ms=0.0),
                            PhaseSample("restore.digest-verify", 2.0, at_ms=1.0),
                            PhaseSample("restore.chunk-fetch", 3.0, at_ms=3.0)])
        assert _top_level(totals) == {"CLONE": 1.0, "EXEC": 0.0,
                                      "RTS": 0.0, "APPINIT": 5.0}
        # The sub-phases follow as a decomposition of APPINIT.
        assert totals["restore.digest-verify"] == 2.0
        assert totals["restore.chunk-fetch"] == 3.0

    def test_folded_lines_format(self):
        samples = [PhaseSample("CLONE", 0.5, at_ms=0.0),
                   PhaseSample("restore.chunk-fetch", 1.25, at_ms=1.0),
                   PhaseSample("restore.chunk-fetch", 0.75, at_ms=2.0)]
        lines = prof.folded_lines(samples, prefix="prebake;noop")
        assert "prebake;noop;CLONE 500" in lines
        # Same stack aggregates; value is integer microseconds.
        assert "prebake;noop;APPINIT;restore.chunk-fetch 2000" in lines
        for line in lines:
            stack, value = line.rsplit(" ", 1)
            assert value == str(int(value))


class TestExperimentAccounting:
    def test_phase_sums_equal_startup_both_techniques(self):
        result = run_profile_experiment("markdown", repetitions=2, seed=42)
        for run in result.runs:
            run.verify()  # raises on any accounting mismatch
        for technique in ("vanilla", "prebake"):
            runs = result.technique_runs(technique)
            assert len(runs) == 2
            for run in runs:
                totals = _top_level(prof.fold(run.samples))
                assert sum(totals.values()) == pytest.approx(
                    run.startup_ms, abs=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("plan", sorted(FAULT_PLANS))
    def test_fig4_phases_equal_the_profile_fold_under_faults(
            self, monkeypatch, plan, seed):
        """The Figure 4 harness and the profile experiment run the same
        faulted world; their phases agree and sum to ready - spawned.
        Retried attempts' clone/exec land in CLONE/EXEC, not APPINIT."""
        def faulted_world(**kwargs):
            world = make_world(**{**kwargs, "seed": seed})
            faults.install(world.kernel, FAULT_PLANS[plan])
            return world

        monkeypatch.setattr(harness, "make_world", faulted_world)
        monkeypatch.setattr(bench_profile, "make_world", faulted_world)
        summary = harness.run_startup_experiment(
            "markdown", "prebake", repetitions=1, trace_phases=True)
        (run,) = run_profile_experiment(
            "markdown", repetitions=1).technique_runs("prebake")
        phases = _top_level(summary.samples[0].phases)
        assert phases == pytest.approx(_top_level(prof.fold(run.samples)),
                                       abs=1e-6)
        assert sum(phases.values()) == pytest.approx(run.startup_ms,
                                                     abs=1e-6)

    def test_vanilla_has_no_restore_subphases_and_prebake_no_rts(self):
        result = run_profile_experiment("markdown", repetitions=1, seed=7)
        vanilla = result.technique_runs("vanilla")[0]
        assert not any(s.phase.startswith("restore.")
                       for s in vanilla.samples)
        prebake = result.technique_runs("prebake")[0]
        assert prof.fold(prebake.samples)["RTS"] == 0.0
        assert any(s.phase.startswith("restore.") for s in prebake.samples)

    def test_restore_subphases_partition_the_restore_span(self):
        """Recorded restore.* durations sum to exactly what the restore
        charged to the clock (the criu.restore span's window)."""
        kernel = make_world(seed=13, observe=True).kernel
        manager = PrebakeManager(kernel)
        app = make_app("markdown")
        manager.deploy(app)
        profiler = prof.install(kernel)
        manager.start_replica(app, technique="prebake")
        (restore_span,) = [s for s in kernel.obs.tracer.spans
                           if s.name == "criu.restore"]
        restore_ms = sum(s.duration_ms for s in profiler.samples
                         if s.phase.startswith("restore."))
        assert restore_ms == pytest.approx(restore_span.duration_ms,
                                           abs=1e-9)

    def test_working_set_restore_accounts_prefetch(self):
        kernel = make_world(seed=21, observe=True).kernel
        manager = PrebakeManager(kernel)
        app = make_app("markdown")
        manager.deploy(app)
        starter = manager.starter("prebake",
                                  restore_mode=RestoreMode.WORKING_SET)
        _, run = bench_profile.profiled_start(kernel, starter, app,
                                              "prebake", 0)
        phases = {s.phase for s in run.samples}
        assert prof.RESTORE_WS_PREFETCH in phases or \
            prof.RESTORE_CHUNK_FETCH in phases

    def test_accounting_violation_raises(self):
        run = ProfileRun(technique="vanilla", function="noop", rep=0,
                         startup_ms=10.0,
                         samples=[PhaseSample("CLONE", 3.0, at_ms=0.0)])
        with pytest.raises(ProfileAccountingError):
            run.verify()


class TestZeroCost:
    def test_uninstalled_profiler_changes_nothing(self):
        """Same seed with and without a profiler: identical clock and
        identical start-up measurement — instrumentation is free."""
        def startup(profiled):
            kernel = make_world(seed=99).kernel
            manager = PrebakeManager(kernel)
            app = make_app("markdown")
            manager.deploy(app)
            if profiled:
                prof.install(kernel)
            handle = manager.start_replica(app, technique="prebake")
            return handle.startup_ms("ready"), kernel.clock.now

        assert startup(profiled=False) == startup(profiled=True)

    def test_install_is_idempotent_and_uninstall_detaches(self):
        kernel = make_world(seed=3).kernel
        manager = PrebakeManager(kernel)
        app = make_app("noop")
        assert kernel.obs is None
        profiler = prof.install(kernel)
        assert prof.install(kernel) is profiler
        manager.start_replica(app, technique="vanilla")
        # One subscription: each phase of the start recorded once.
        assert [s.phase for s in profiler.samples] == \
            list(prof.STARTUP_PHASES)

        prof.uninstall(kernel)
        assert kernel.obs.profile is None
        manager.start_replica(make_app("noop"), technique="vanilla")
        assert len(profiler.samples) == len(prof.STARTUP_PHASES)
        subscribed = [callback
                      for table in (kernel.probes._enter, kernel.probes._exit)
                      for callbacks in table.values()
                      for callback in callbacks]
        assert profiler.on_probe not in subscribed


class TestSerialization:
    def test_profile_dump_round_trips(self):
        result = run_profile_experiment("noop", repetitions=1, seed=5)
        rebuilt = result_from_dict(result.as_dict())
        assert rebuilt.as_dict() == result.as_dict()
        for run in rebuilt.runs:
            run.verify()

    def test_schema_version_is_checked(self):
        result = run_profile_experiment("noop", repetitions=1, seed=5)
        payload = result.as_dict()
        payload["schema_version"] = 999
        with pytest.raises(ValueError, match="schema"):
            result_from_dict(payload)
