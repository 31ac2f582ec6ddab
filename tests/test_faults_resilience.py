"""End-to-end resilience: injected faults vs the platform's defenses.

Covers the retry/fallback starter, quarantine-and-rebake, router
crash re-dispatch and re-queue, replica health checks, and the
property the chaos experiment is built on: with restores failing 100 %
of the time, a prebake start degrades to vanilla speed plus exactly
the configured retry budget.
"""

from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults, make_world, obs
from repro.core.manager import PrebakeManager
from repro.faas.deployer import MAX_REPLICAS
from repro.faas.platform import FaaSPlatform, PlatformConfig
from repro.faas.replica import ReplicaState
from repro.faults import (
    CapacityExhausted,
    FaultPlan,
    FaultSpec,
    IMAGE_CORRUPT,
    OOM_KILL,
    REPLICA_CRASH,
    RESTORE_FAIL,
    RESTORE_HANG,
    RequestTimeout,
    RestoreFailed,
)
from repro.faults import retry
from repro.functions import make_app
from repro.sim.costmodel import DEFAULT_COST_MODEL
from repro.bench.fault_sweep import knob_plan
from tests.transient import install_transient

QUIET = replace(DEFAULT_COST_MODEL, noise_sigma=0.0)


def quiet_world(seed):
    world = make_world(seed=seed)
    world.kernel.costs = QUIET
    return world


def observed_manager(seed=77):
    world = make_world(seed=seed, observe=True)
    return world.kernel, PrebakeManager(world.kernel)


def deployed_prebake_starter(kernel, manager, app, plan, fires=None,
                             **starter_kwargs):
    """Deploy ``app`` and arm ``plan``; ``fires`` caps each site."""
    manager.deploy(app)
    if fires is None:
        faults.install(kernel, plan)
    else:
        install_transient(kernel, plan, fires)
    return manager.starter("prebake",
                           version=manager.current_version(app.name),
                           **starter_kwargs)


class TestRetryAndFallback:
    def test_persistent_restore_failure_falls_back_to_vanilla(self):
        kernel, manager = observed_manager()
        app = make_app("noop")
        starter = deployed_prebake_starter(
            kernel, manager, app, knob_plan(1.0, {"restore.fail": 1.0}))
        handle = starter.start(app)
        assert handle.technique == "vanilla"
        metrics = kernel.obs.metrics
        assert metrics.value("prebake_fallback_total") == 1
        assert metrics.value("prebake_restore_retries_total") == 2
        assert metrics.value("prebake_restore_failures_total",
                             labels={"reason": "RestoreFailed"}) == 3

    def test_transient_failure_recovers_within_budget(self):
        kernel, manager = observed_manager()
        app = make_app("noop")
        plan = FaultPlan(specs={RESTORE_FAIL: FaultSpec(
            RESTORE_FAIL, 1.0)})
        starter = deployed_prebake_starter(kernel, manager, app, plan,
                                           fires=1)
        handle = starter.start(app)
        assert handle.technique == "prebake"
        assert kernel.obs.metrics.value("prebake_fallback_total") == 0
        assert kernel.obs.metrics.value("prebake_restore_retries_total") == 1

    def test_startup_accounting_includes_retry_overhead(self):
        kernel, manager = observed_manager()
        app = make_app("noop")
        plan = FaultPlan(specs={RESTORE_FAIL: FaultSpec(
            RESTORE_FAIL, 1.0)})
        starter = deployed_prebake_starter(kernel, manager, app, plan,
                                           fires=1)
        before = kernel.clock.now
        handle = starter.start(app)
        # spawned_at is rewritten to the loop start, so the measured
        # start-up covers the failed attempt and its backoff too.
        assert handle.spawned_at_ms == before
        assert handle.startup_ms("ready") == kernel.clock.now - before

    def test_restore_hang_advances_clock_then_retries(self):
        kernel, manager = observed_manager()
        app = make_app("noop")
        plan = FaultPlan(specs={RESTORE_HANG: FaultSpec(
            RESTORE_HANG, 1.0, delay_ms=500.0)})
        starter = deployed_prebake_starter(kernel, manager, app, plan,
                                           fires=1)
        before = kernel.clock.now
        handle = starter.start(app)
        assert handle.technique == "prebake"
        assert kernel.clock.now - before >= 500.0
        assert kernel.obs.metrics.value(
            "criu_restore_failures_total", labels={"reason": "hang"}) == 1

    def test_io_slow_inflates_restore_latency_only(self):
        def startup(plan):
            world = quiet_world(5)
            manager = PrebakeManager(world.kernel)
            app = make_app("noop")
            manager.deploy(app)
            if plan is not None:
                faults.install(world.kernel, plan)
            starter = manager.starter(
                "prebake", version=manager.current_version(app.name))
            return starter.start(app).startup_ms("ready")

        baseline = startup(None)
        slowed = startup(FaultPlan(specs={
            "io.slow": FaultSpec("io.slow", 1.0, delay_ms=40.0)}))
        assert slowed == pytest.approx(baseline + 40.0)


class TestQuarantineAndRebake:
    def test_corruption_repairs_from_chunk_store(self):
        kernel, manager = observed_manager()
        app = make_app("noop")
        plan = FaultPlan(specs={IMAGE_CORRUPT: FaultSpec(
            IMAGE_CORRUPT, 1.0)})
        starter = deployed_prebake_starter(kernel, manager, app, plan,
                                           fires=1)
        handle = starter.start(app)
        # Page-level corruption is repaired in place from the
        # content-addressed chunk store — no quarantine, no rebake.
        assert handle.technique == "prebake"
        assert manager.store._quarantined == []
        metrics = kernel.obs.metrics
        assert metrics.value("prebake_snapshot_repaired_total") == 1
        assert metrics.value("snapshot_chunks_repaired_total") >= 1
        assert metrics.value("prebake_rebake_total") == 0
        assert metrics.value("snapshot_corruption_detected_total") == 1

    def test_a_repair_that_leaves_the_digest_wrong_quarantines(self):
        """Every repair is followed by a full re-verify: damage to the
        pages and to the argv gets its pages rewritten, fails the check
        and goes to quarantine + rebake."""
        kernel, manager = observed_manager()
        app = make_app("noop")
        starter = deployed_prebake_starter(kernel, manager, app,
                                           FaultPlan())
        image = manager.store.peek(starter.snapshot_key(app))
        image.tamper(pages=2)
        image.argv = image.argv + ["--corrupt"]
        handle = starter.start(app)
        assert handle.technique == "prebake"
        assert len(manager.store._quarantined) == 1
        metrics = kernel.obs.metrics
        assert metrics.value("prebake_snapshot_repaired_total") == 0
        assert metrics.value("prebake_rebake_total") == 1


class TestRouterResilience:
    def _platform(self, seed=31, technique="vanilla", **config_kwargs):
        world = make_world(seed=seed, observe=True)
        platform = FaaSPlatform(world.kernel,
                                PlatformConfig(**config_kwargs))
        platform.register_function(lambda: make_app("noop"),
                                   start_technique=technique)
        return world.kernel, platform

    def test_replica_crash_is_redispatched(self):
        kernel, platform = self._platform()
        install_transient(kernel, FaultPlan(specs={REPLICA_CRASH: FaultSpec(
            REPLICA_CRASH, 1.0)}))
        response = platform.invoke("noop")
        assert response.ok
        assert kernel.obs.metrics.value("replica_crashes_total") == 1
        assert kernel.obs.metrics.value("router_crash_retries_total") == 1

    def test_unrecoverable_crash_storm_raises_typed_error(self):
        from repro.faults import ReplicaCrashed
        kernel, platform = self._platform()
        platform.install_faults(knob_plan(1.0, {"replica.crash": 1.0}))
        with pytest.raises(ReplicaCrashed):
            platform.invoke("noop")

    def test_oom_kill_terminates_replica_and_records_event(self):
        kernel, platform = self._platform()
        install_transient(kernel, FaultPlan(specs={OOM_KILL: FaultSpec(
            OOM_KILL, 1.0)}))
        response = platform.invoke("noop")
        assert response.ok  # the request itself completed first
        assert platform.replica_count("noop") == 0
        assert kernel.obs.metrics.value("replica_oom_kills_total") == 1
        # The next request cold-starts a fresh replica.
        platform.invoke("noop")
        assert platform.router.stats.cold_starts == 2

    def test_capacity_exhaustion_times_out_with_typed_error(self):
        world = make_world(seed=31, observe=True)
        platform = FaaSPlatform(world.kernel, PlatformConfig())
        platform.register_function(lambda: make_app("noop"))
        # Every slot is held by an in-flight request for the whole
        # wait, so every dispatch try finds the function at its cap.
        for _ in range(MAX_REPLICAS):
            platform.deployer.provision("noop").state = ReplicaState.BUSY
        with pytest.raises(RequestTimeout):
            platform.invoke("noop")
        metrics = world.kernel.obs.metrics
        assert metrics.value("router_requeued_total") >= 1
        assert metrics.value("router_timeouts_total") == 1

    def test_provision_beyond_limit_raises_capacity_exhausted(self):
        _, platform = self._platform()
        for _ in range(MAX_REPLICAS):
            platform.deployer.provision("noop")
        with pytest.raises(CapacityExhausted) as exc_info:
            platform.deployer.provision("noop")
        assert exc_info.value.max_replicas == MAX_REPLICAS

    def test_health_check_reaps_dead_replicas(self):
        kernel, platform = self._platform()
        platform.invoke("noop")
        (replica,) = platform.deployer.replicas("noop")
        kernel.kill(replica.handle.process.pid)
        assert not replica.healthy
        assert len(platform.deployer.health_check()) == 1
        assert platform.replica_count("noop") == 0
        assert kernel.obs.metrics.value("deployer_reaped_total") == 1

    def test_autoscaler_reaps_a_dead_replica_without_replacing_it(self):
        kernel, platform = self._platform()
        platform.invoke("noop")
        (replica,) = platform.deployer.replicas("noop")
        kernel.kill(replica.handle.process.pid)
        platform.gc_tick()  # reap the corpse; the next request cold-starts
        assert platform.replica_count("noop") == 0
        assert kernel.obs.metrics.value("autoscaler_actions_total",
                                        {"action": "reap"}) == 1


class TestSpanErrorTagging:
    def test_error_exiting_span_records_exception_type(self):
        world = make_world(seed=3, observe=True)
        with pytest.raises(RestoreFailed):
            with obs.span(world.kernel, "doomed"):
                raise RestoreFailed("nope")
        (span,) = [s for s in world.kernel.obs.tracer.spans
                   if s.name == "doomed"]
        assert span.status == "error"
        assert span.attributes["error_type"] == "RestoreFailed"
        assert "nope" in span.attributes["error"]


class TestConvergenceProperty:
    """ISSUE satellite: with 100 % restore failure, prebake start-up is
    vanilla start-up plus exactly the configured retry budget."""

    @staticmethod
    def _startup(max_attempts, technique="prebake", seed=1234):
        world = quiet_world(seed)
        kernel = world.kernel
        manager = PrebakeManager(kernel)
        app = make_app("noop")
        if technique == "vanilla":
            return manager.starter("vanilla").start(app).startup_ms("ready")
        manager.deploy(app)
        faults.install(kernel, knob_plan(1.0, {"restore.fail": 1.0}))
        starter = manager.starter(
            "prebake", version=manager.current_version(app.name))
        # The starter reads the platform's one attempt budget; swap it
        # for this many attempts.
        with mock.patch.object(retry, "MAX_ATTEMPTS", max_attempts):
            return starter.start(app).startup_ms("ready")

    @settings(max_examples=10, deadline=None)
    @given(max_attempts=st.integers(min_value=1, max_value=6))
    def test_prebake_converges_to_vanilla_plus_retry_budget(self, max_attempts):
        vanilla = self._startup(0, technique="vanilla")
        one_attempt = self._startup(1)
        attempt_cost = one_attempt - vanilla  # one failed restore try
        measured = self._startup(max_attempts)
        predicted = (vanilla + max_attempts * attempt_cost
                     + sum(retry.backoff_ms(i) for i in range(1, max_attempts)))
        assert measured == pytest.approx(predicted, abs=1e-6)

    def test_backoff_budget_is_capped_exponential(self):
        assert [retry.backoff_ms(i) for i in range(1, 9)] == [
            10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0, 1_000.0]
        assert retry.total_backoff_ms() == 30.0  # three tries, two sleeps
        with pytest.raises(ValueError, match="1-based"):
            retry.backoff_ms(0)
