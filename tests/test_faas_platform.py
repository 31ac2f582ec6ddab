"""Tests for the SPEC-RG platform layer: registry, resources, router,
deployer, autoscaler and the facade."""

import pytest

from repro.core.policy import AfterWarmup
from repro.faas import (
    AutoscalerConfig,
    ComputeNode,
    FaaSPlatform,
    FunctionMetadata,
    FunctionRegistry,
    PlatformConfig,
    RegistryError,
    ResourceError,
    ResourceManager,
)
from repro import make_world, obs
from repro.faas.replica import ReplicaState, next_replica_id, reset_replica_ids
from repro.functions import MarkdownFunction, NoopFunction
from repro.runtime.base import Request


class TestFunctionRegistry:
    def _meta(self, name="fn", version=1):
        return FunctionMetadata(
            name=name, runtime_kind="jvm", version=version,
            app_factory=NoopFunction,
        )

    def test_register_lookup(self):
        registry = FunctionRegistry()
        registry.register(self._meta())
        assert registry.lookup("fn").version == 1

    def test_new_version_supersedes(self):
        registry = FunctionRegistry()
        registry.register(self._meta(version=1))
        registry.register(self._meta(version=2))
        assert registry.lookup("fn").version == 2

    def test_stale_version_rejected(self):
        registry = FunctionRegistry()
        registry.register(self._meta(version=2))
        with pytest.raises(RegistryError, match="does not supersede"):
            registry.register(self._meta(version=2))

    def test_lookup_missing(self):
        with pytest.raises(RegistryError, match="not registered"):
            FunctionRegistry().lookup("ghost")

    def test_unregister(self):
        registry = FunctionRegistry()
        registry.register(self._meta())
        registry.unregister("fn")
        assert not registry.contains("fn")
        with pytest.raises(RegistryError):
            registry.unregister("fn")


class TestResources:
    def test_allocate_and_release(self):
        node = ComputeNode(name="n", memory_mib=1024)
        allocation = node.allocate("fn", 256.0)
        assert node.free_mib == 768.0
        allocation.release()
        assert node.free_mib == 1024.0

    def test_release_idempotent(self):
        node = ComputeNode(name="n", memory_mib=100)
        allocation = node.allocate("fn", 10.0)
        allocation.release()
        allocation.release()
        assert node.free_mib == 100.0

    def test_over_capacity_rejected(self):
        node = ComputeNode(name="n", memory_mib=100)
        with pytest.raises(ResourceError, match="free"):
            node.allocate("fn", 101.0)

    def test_privileged_gate(self):
        node = ComputeNode(name="n", memory_mib=100, allow_privileged=False)
        with pytest.raises(ResourceError, match="privileged"):
            node.allocate("fn", 10.0, privileged=True)

    def test_manager_places_on_freest_node(self):
        small = ComputeNode(name="small", memory_mib=512)
        big = ComputeNode(name="big", memory_mib=4096)
        manager = ResourceManager(nodes=[small, big])
        allocation = manager.place("fn", 128.0)
        assert allocation.node is big

    def test_manager_exhaustion(self):
        manager = ResourceManager(nodes=[ComputeNode(name="n", memory_mib=64)])
        with pytest.raises(ResourceError, match="no node"):
            manager.place("fn", 1000.0)

    def test_duplicate_node_name_rejected(self):
        manager = ResourceManager()
        with pytest.raises(ResourceError, match="duplicate"):
            manager.add_node(ComputeNode(name="node-0"))

    def test_utilization(self):
        node = ComputeNode(name="n", memory_mib=100)
        manager = ResourceManager(nodes=[node])
        manager.place("fn", 25.0)
        assert manager.utilization()["n"] == pytest.approx(0.25)


@pytest.fixture
def platform(kernel):
    return FaaSPlatform(kernel, PlatformConfig(
        nodes=2, autoscaler=AutoscalerConfig(idle_timeout_ms=1000.0)))


class TestPlatformFlow:
    def test_first_invoke_is_cold(self, platform):
        platform.register_function(NoopFunction)
        response = platform.invoke("noop")
        assert response.ok
        assert platform.router.stats.cold_starts == 1
        assert platform.replica_count("noop") == 1

    def test_second_invoke_is_warm(self, platform):
        platform.register_function(NoopFunction)
        platform.invoke("noop")
        platform.invoke("noop")
        assert platform.router.stats.invocations == 2
        assert platform.router.stats.cold_starts == 1
        assert platform.replica_count("noop") == 1

    def test_prebaked_cold_start_faster(self, kernel):
        platform = FaaSPlatform(kernel)
        platform.register_function(NoopFunction, start_technique="vanilla")
        platform.invoke("noop")
        vanilla_cold = platform.cold_start_latencies("noop")[0]

        platform2 = FaaSPlatform(kernel)
        platform2.register_function(NoopFunction, start_technique="prebake")
        platform2.invoke("noop")
        prebake_cold = platform2.cold_start_latencies("noop")[0]
        assert prebake_cold < 0.75 * vanilla_cold

    def test_warm_policy_via_platform(self, platform):
        platform.register_function(
            MarkdownFunction, start_technique="prebake",
            snapshot_policy=AfterWarmup(1),
        )
        response = platform.invoke("markdown", Request(body="# T"))
        assert "<h1>T</h1>" in response.body
        cold = platform.cold_start_latencies("markdown")[0]
        assert cold < 60.0  # warm snapshot restore, paper ~53ms

    def test_register_unknown_technique_rejected(self, platform):
        with pytest.raises(ValueError):
            platform.register_function(NoopFunction, start_technique="magic")

    def test_reregister_bumps_version(self, platform):
        platform.register_function(NoopFunction)
        meta = platform.register_function(NoopFunction)
        assert meta.version == 2

    def test_scale_up(self, platform):
        platform.register_function(NoopFunction)
        platform.scale("noop", 3)
        assert platform.replica_count("noop") == 3

    def test_gc_reclaims_idle_replicas(self, platform, kernel):
        tape = obs.install_flight(kernel)
        platform.register_function(NoopFunction)
        platform.invoke("noop")
        kernel.clock.advance(2000.0)  # beyond idle timeout
        platform.gc_tick()
        assert platform.replica_count("noop") == 0
        events = tape.events(obs.flight.AUTOSCALER_ACTION)
        assert any(e.attrs["action"] == "gc" for e in events)

    def test_gc_keeps_active_replicas(self, platform, kernel):
        platform.register_function(NoopFunction)
        platform.invoke("noop")
        kernel.clock.advance(10.0)  # well within timeout
        platform.gc_tick()
        assert platform.replica_count("noop") == 1

    def test_cold_start_after_gc(self, platform, kernel):
        platform.register_function(NoopFunction)
        platform.invoke("noop")
        kernel.clock.advance(2000.0)
        platform.gc_tick()
        platform.invoke("noop")
        assert platform.router.stats.cold_starts == 2

    def test_max_replica_cap(self, platform):
        platform.register_function(NoopFunction, max_replicas=2)
        platform.scale("noop", 10)
        assert platform.replica_count("noop") <= 2

    def test_replica_serve_states(self, platform):
        platform.register_function(NoopFunction)
        platform.invoke("noop")
        replica = platform.deployer.replicas("noop")[0]
        assert replica.state is ReplicaState.IDLE
        assert replica.requests_served == 1

    def test_terminated_replica_releases_node_memory(self, platform):
        platform.register_function(NoopFunction)
        platform.invoke("noop")
        free_before = platform.resources.total_free_mib
        platform.deployer.terminate_all("noop")
        assert platform.resources.total_free_mib > free_before

    def test_router_records_telemetry(self, platform):
        platform.register_function(NoopFunction)
        platform.invoke("noop")
        record = platform.router.stats.records[0]
        assert record.cold_start is True
        assert record.queued_ms > 0
        assert record.function == "noop"
        assert record.total_ms >= record.service_ms


class TestReplicaIds:
    """Replica IDs are allocated per simulated world, not globally."""

    def _ids(self, seed):
        platform = FaaSPlatform(make_world(seed=seed).kernel)
        platform.register_function(NoopFunction)
        platform.invoke("noop")
        platform.scale("noop", 3)
        return sorted(r.replica_id for r in platform.deployer.replicas("noop"))

    def test_fresh_world_numbers_from_one(self):
        assert self._ids(1) == [1, 2, 3]

    def test_ids_deterministic_across_identical_worlds(self):
        assert self._ids(7) == self._ids(7)

    def test_two_live_worlds_do_not_share_a_counter(self):
        k1 = make_world(seed=1).kernel
        k2 = make_world(seed=2).kernel
        assert next_replica_id(k1) == 1
        assert next_replica_id(k1) == 2
        assert next_replica_id(k2) == 1  # unaffected by k1's allocations

    def test_reset_restarts_one_world(self):
        kernel = make_world(seed=1).kernel
        next_replica_id(kernel)
        next_replica_id(kernel)
        reset_replica_ids(kernel)
        assert next_replica_id(kernel) == 1

    def test_reset_all_worlds(self):
        k1 = make_world(seed=1).kernel
        k2 = make_world(seed=2).kernel
        next_replica_id(k1)
        next_replica_id(k2)
        reset_replica_ids()
        assert next_replica_id(k1) == 1
        assert next_replica_id(k2) == 1
