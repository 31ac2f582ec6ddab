"""Additional edge-case coverage: replica lifecycle, autoscaler
boundaries, engine interleavings used by the platform."""

import pytest

from repro import obs
from repro.faas import AutoscalerConfig, FaaSPlatform, PlatformConfig
from repro.faas.deployer import MAX_REPLICAS
from repro.faas.replica import FunctionReplica, ReplicaState
from repro.core.starters import VanillaStarter
from repro.functions import NoopFunction, make_app
from repro.runtime.base import Request


class TestReplicaLifecycle:
    def _replica(self, kernel):
        handle = VanillaStarter(kernel).start(make_app("noop"))
        return FunctionReplica("noop", handle)

    def test_serve_while_busy_rejected(self, kernel):
        replica = self._replica(kernel)
        replica.state = ReplicaState.BUSY
        with pytest.raises(RuntimeError, match="cannot serve"):
            replica.serve(Request())

    def test_serve_after_terminate_rejected(self, kernel):
        replica = self._replica(kernel)
        replica.terminate()
        with pytest.raises(RuntimeError):
            replica.serve(Request())

    def test_terminate_idempotent(self, kernel):
        replica = self._replica(kernel)
        replica.terminate()
        replica.terminate()
        assert replica.state is ReplicaState.TERMINATED

    def test_idle_for_tracks_last_activity(self, kernel):
        replica = self._replica(kernel)
        replica.serve(Request())
        kernel.clock.advance(123.0)
        assert replica.idle_for_ms(kernel.clock.now) == pytest.approx(123.0)

    def test_cold_start_recorded(self, kernel):
        replica = self._replica(kernel)
        assert replica.cold_start_ms > 90.0

    def test_replica_ids_unique(self, kernel):
        a = self._replica(kernel)
        b = self._replica(kernel)
        assert a.replica_id != b.replica_id


class TestAutoscalerBoundaries:
    def _platform(self, kernel, idle_timeout=1000.0):
        platform = FaaSPlatform(kernel, PlatformConfig(
            autoscaler=AutoscalerConfig(idle_timeout_ms=idle_timeout)))
        platform.register_function(NoopFunction)
        return platform

    def test_idle_gc_scales_to_zero(self, kernel):
        platform = self._platform(kernel)
        platform.scale("noop", 3)
        kernel.clock.advance(10_000.0)
        platform.gc_tick()
        assert platform.replica_count("noop") == 0

    def test_ensure_capacity_respects_the_replica_cap(self, kernel):
        platform = FaaSPlatform(kernel)
        platform.register_function(NoopFunction)
        added = platform.autoscaler.ensure_capacity("noop", MAX_REPLICAS + 4)
        assert added == MAX_REPLICAS
        assert platform.replica_count("noop") == MAX_REPLICAS

    def test_ensure_capacity_noop_when_satisfied(self, kernel):
        platform = self._platform(kernel)
        platform.scale("noop", 2)
        assert platform.autoscaler.ensure_capacity("noop", 2) == 0

    def test_scale_events_recorded(self, kernel):
        tape = obs.install_flight(kernel)
        platform = self._platform(kernel, idle_timeout=100.0)
        platform.scale("noop", 2)
        kernel.clock.advance(1_000.0)
        platform.gc_tick()
        actions = [e.attrs["action"] for e in tape.events()
                   if e.kind == obs.flight.AUTOSCALER_ACTION]
        assert "scale-up" in actions and "gc" in actions

    def test_busy_replica_not_collected(self, kernel):
        platform = self._platform(kernel, idle_timeout=1.0)
        platform.invoke("noop")
        replica = platform.deployer.replicas("noop")[0]
        replica.state = ReplicaState.BUSY
        kernel.clock.advance(10_000.0)
        platform.gc_tick()
        assert platform.replica_count("noop") == 1
        replica.state = ReplicaState.IDLE


class TestRouterEdgeCases:
    def test_route_to_unregistered_function(self, kernel):
        platform = FaaSPlatform(kernel)
        from repro.faas.registry import RegistryError
        with pytest.raises(RegistryError):
            platform.invoke("ghost")

    def test_provision_failure_releases_allocation(self, kernel):
        platform = FaaSPlatform(kernel, PlatformConfig(nodes=1))
        platform.register_function(NoopFunction)
        platform.scale("noop", MAX_REPLICAS)
        free_before = sum(n.free_mib for n in platform.resources.nodes)
        with pytest.raises(RuntimeError, match="max_replicas"):
            platform.deployer.provision("noop")
        assert sum(n.free_mib for n in platform.resources.nodes) == free_before

    def test_stats_latency_fields_consistent(self, kernel):
        platform = FaaSPlatform(kernel)
        platform.register_function(NoopFunction)
        for _ in range(5):
            platform.invoke("noop")
        for record in platform.router.stats.records:
            assert record.total_ms >= record.queued_ms
            assert record.total_ms >= record.service_ms
        stats = platform.router.stats
        assert stats.cold_starts / stats.invocations == pytest.approx(0.2)


class TestServiceExperimentConsistency:
    def test_interval_zero_back_to_back(self, kernel):
        from repro.bench.workload import LoadGenerator
        result = LoadGenerator(kernel).run(
            VanillaStarter(kernel), make_app("noop"),
            requests=3, interval_ms=0.0)
        for a, b in zip(result.responses, result.responses[1:]):
            assert b.started_ms == pytest.approx(a.finished_ms)
