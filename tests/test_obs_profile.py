"""Phase profiler: taxonomy accounting, partitioning, zero-cost claim.

The acceptance bar: for both techniques the four top-level phases sum
to the measured start-up time exactly (float round-off only), restore
sub-phases partition the restore charge, and an uninstalled profiler
leaves simulated time and RNG draws untouched.
"""

import pytest

from repro import make_world
from repro.bench.profile import (
    ProfileAccountingError,
    ProfileRun,
    result_from_dict,
    run_profile_experiment,
)
from repro.core.manager import PrebakeManager
from repro.criu.restore import RestoreMode
from repro.functions import make_app
from repro.obs import profile as prof
from repro.obs.profile import PhaseSample, PhaseProfiler


class TestTaxonomy:
    def test_restore_subphases_fold_under_appinit(self):
        assert prof.phase_stack("restore.chunk-fetch") == \
            ("APPINIT", "restore.chunk-fetch")
        assert prof.phase_stack("CLONE") == ("CLONE",)

    def test_phase_totals_fold_and_sum(self):
        profiler = PhaseProfiler(clock=make_world(seed=1).kernel.clock)
        profiler.record("CLONE", 1.0)
        profiler.record("restore.digest-verify", 2.0)
        profiler.record("restore.chunk-fetch", 3.0)
        totals = profiler.phase_totals()
        assert totals["APPINIT"] == 5.0
        assert totals["RTS"] == 0.0
        assert sum(totals.values()) == profiler.total_ms() == 6.0
        # Raw totals keep the sub-phases distinct.
        raw = profiler.totals()
        assert raw["restore.chunk-fetch"] == 3.0

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
        result.verify()  # raises on any accounting mismatch
        for technique in ("vanilla", "prebake"):
            runs = result.technique_runs(technique)
            assert len(runs) == 2
            for run in runs:
                totals = run.phase_totals()
                assert sum(totals.values()) == pytest.approx(
                    run.startup_ms, abs=1e-6)

    def test_vanilla_has_no_restore_subphases_and_prebake_no_rts(self):
        result = run_profile_experiment("markdown", repetitions=1, seed=7)
        vanilla = result.technique_runs("vanilla")[0]
        assert not any(s.phase.startswith("restore.")
                       for s in vanilla.samples)
        prebake = result.technique_runs("prebake")[0]
        assert prebake.phase_totals()["RTS"] == 0.0
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
        (restore_span,) = kernel.obs.tracer.find("criu.restore")
        restore_ms = sum(s.duration_ms for s in profiler.samples
                         if s.phase.startswith("restore."))
        assert restore_ms == pytest.approx(restore_span.duration_ms,
                                           abs=1e-9)

    def test_working_set_restore_accounts_prefetch(self):
        result = run_profile_experiment(
            "markdown", repetitions=1, seed=21,
            restore_mode=RestoreMode.WORKING_SET)
        result.verify()
        prebake = result.technique_runs("prebake")[0]
        phases = {s.phase for s in prebake.samples}
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
        assert kernel.obs is None
        profiler = prof.install(kernel)
        assert prof.install(kernel) is profiler
        prof.uninstall(kernel)
        assert kernel.obs.profile is None
        prof.record(kernel, "CLONE", 1.0)  # no-op, must not raise


class TestSerialization:
    def test_profile_dump_round_trips(self):
        result = run_profile_experiment("noop", repetitions=1, seed=5)
        rebuilt = result_from_dict(result.as_dict())
        assert rebuilt.as_dict() == result.as_dict()
        rebuilt.verify()

    def test_schema_version_is_checked(self):
        result = run_profile_experiment("noop", repetitions=1, seed=5)
        payload = result.as_dict()
        payload["schema_version"] = 999
        with pytest.raises(ValueError, match="schema"):
            result_from_dict(payload)
