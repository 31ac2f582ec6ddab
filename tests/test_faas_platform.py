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
from repro.faas.deployer import MAX_REPLICAS
from repro.faas.resources import NODE_MEMORY_MIB
from repro.faults.errors import CapacityExhausted
from repro.criu.checkpoint import CheckpointEngine
from repro.faas.replica import ReplicaState
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


class TestResources:
    def test_allocate_and_release(self):
        node = ComputeNode(name="n")
        allocation = node.allocate("fn", 256.0)
        assert node.free_mib == NODE_MEMORY_MIB - 256.0
        allocation.release()
        assert node.free_mib == NODE_MEMORY_MIB

    def test_release_idempotent(self):
        node = ComputeNode(name="n")
        allocation = node.allocate("fn", 10.0)
        allocation.release()
        allocation.release()
        assert node.free_mib == NODE_MEMORY_MIB

    def test_over_capacity_rejected(self):
        node = ComputeNode(name="n")
        with pytest.raises(ResourceError, match="free"):
            node.allocate("fn", NODE_MEMORY_MIB + 1.0)

    def test_privileged_gate(self):
        node = ComputeNode(name="n")
        node.allow_privileged = False
        with pytest.raises(ResourceError, match="privileged"):
            node.allocate("fn", 10.0, privileged=True)

    def test_manager_places_on_freest_node(self):
        busy = ComputeNode(name="busy")
        idle = ComputeNode(name="idle")
        busy.allocate("other", 1024.0)
        manager = ResourceManager(nodes=[busy, idle])
        allocation = manager.place("fn", 128.0)
        assert allocation.node is idle

    def test_manager_exhaustion(self):
        manager = ResourceManager(nodes=[ComputeNode(name="n")])
        with pytest.raises(ResourceError, match="no node"):
            manager.place("fn", NODE_MEMORY_MIB + 1.0)


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

    def test_new_version_retires_old_replicas(self):
        """No request routed after register_function(vN) returns is
        served by a replica of an older version; those processes die."""
        platform = FaaSPlatform(make_world(seed=5).kernel)
        for version in (1, 2, 3):
            old = platform.deployer.replicas("markdown")
            meta = platform.register_function(
                MarkdownFunction, start_technique="prebake")
            assert meta.version == version
            assert not any(r.handle.process.alive for r in old)
            assert all(r.allocation.released for r in old)
            platform.invoke("markdown")
            (served,) = platform.deployer.replicas("markdown")
            assert served not in old
            assert platform.router.stats.records[-1].replica_id \
                == served.replica_id
        assert platform.router.stats.cold_starts == 3

    def test_busy_replica_retires_when_released(self, platform):
        platform.register_function(NoopFunction)
        platform.invoke("noop")
        (replica,) = platform.deployer.replicas("noop")
        invoke = replica.handle.invoke

        def register_mid_request(request):
            platform.register_function(NoopFunction)
            assert replica.state is ReplicaState.DRAINING
            assert replica.handle.process.alive
            return invoke(request)

        replica.handle.invoke = register_mid_request
        assert platform.invoke("noop").ok
        assert replica.state is ReplicaState.TERMINATED
        assert not replica.handle.process.alive
        assert platform.replica_count("noop") == 0

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
        assert any(e.kind == obs.flight.AUTOSCALER_ACTION
                   and e.attrs["action"] == "gc" for e in tape.events())

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
        platform.register_function(NoopFunction)
        platform.scale("noop", MAX_REPLICAS + 4)
        assert platform.replica_count("noop") == MAX_REPLICAS

    def test_replica_serve_states(self, platform):
        platform.register_function(NoopFunction)
        platform.invoke("noop")
        replica = platform.deployer.replicas("noop")[0]
        assert replica.state is ReplicaState.IDLE
        assert replica.requests_served == 1

    def test_terminated_replica_releases_node_memory(self, platform):
        platform.register_function(NoopFunction)
        platform.invoke("noop")
        free_before = sum(n.free_mib for n in platform.resources.nodes)
        platform.deployer.retire(platform.deployer.replicas("noop"))
        assert sum(n.free_mib for n in platform.resources.nodes) > free_before

    def test_router_records_telemetry(self, platform):
        platform.register_function(NoopFunction)
        platform.invoke("noop")
        record = platform.router.stats.records[0]
        assert record.cold_start is True
        assert record.queued_ms > 0
        assert record.function == "noop"
        assert record.total_ms >= record.service_ms


class TestReplicaGauge:
    """``deployer_replicas{function}`` follows the live replica count
    through every way a replica ends, not only provision and reap."""

    @staticmethod
    def _observed_platform():
        kernel = make_world(seed=5, observe=True).kernel
        return kernel, FaaSPlatform(kernel, PlatformConfig(
            nodes=2, autoscaler=AutoscalerConfig(idle_timeout_ms=1000.0)))

    @staticmethod
    def _gauge(kernel):
        return kernel.obs.metrics.value("deployer_replicas",
                                        {"function": "noop"})

    def test_new_version_deploy_reads_zero(self):
        kernel, platform = self._observed_platform()
        platform.register_function(NoopFunction)
        platform.invoke("noop")
        assert self._gauge(kernel) == 1.0
        platform.register_function(NoopFunction)
        assert platform.replica_count("noop") == 0
        assert self._gauge(kernel) == 0.0

    def test_retiring_both_replicas_reads_zero(self):
        kernel, platform = self._observed_platform()
        platform.register_function(NoopFunction)
        platform.scale("noop", 2)
        assert self._gauge(kernel) == 2.0
        platform.deployer.retire(platform.deployer.replicas("noop"))
        assert platform.replica_count("noop") == 0
        assert self._gauge(kernel) == 0.0

    def test_idle_gc_reads_zero(self):
        kernel, platform = self._observed_platform()
        platform.register_function(NoopFunction)
        platform.invoke("noop")
        kernel.clock.advance(2000.0)  # beyond the idle timeout
        platform.gc_tick()
        assert platform.replica_count("noop") == 0
        assert self._gauge(kernel) == 0.0


class TestMaxReplicas:
    def test_a_provision_past_the_cap_raises(self, platform):
        platform.register_function(NoopFunction, start_technique="prebake")
        platform.scale("noop", MAX_REPLICAS)
        with pytest.raises(CapacityExhausted) as caught:
            platform.deployer.provision("noop")
        assert caught.value.max_replicas == MAX_REPLICAS
        assert platform.replica_count("noop") == MAX_REPLICAS


class TestCachePolicyValidation:
    def test_unknown_policy_rejected_before_baking(self, platform):
        # An unknown policy used to register and bake fine, then fail
        # the first invoke with a bare ValueError from the router.
        with pytest.raises(ValueError, match="unknown cache policy"):
            platform.register_function(NoopFunction,
                                       start_technique="prebake",
                                       cache_policy="LRU")
        assert not platform.registry.contains("noop")
        with pytest.raises(KeyError, match="never deployed"):
            platform.prebake_manager.current_version("noop")

    @pytest.mark.parametrize("policy", [None, "lru", "freq-over-size"])
    def test_known_values_register_and_serve(self, platform, policy):
        platform.register_function(NoopFunction, start_technique="prebake",
                                   cache_policy=policy)
        assert platform.invoke("noop").ok

    @pytest.mark.parametrize("policy", ["none", "off", ""])
    def test_only_none_means_no_cache(self, platform, policy):
        with pytest.raises(ValueError, match="unknown cache policy"):
            platform.register_function(NoopFunction,
                                       start_technique="prebake",
                                       cache_policy=policy)
        assert not platform.registry.contains("noop")


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
        assert k1.next_id("replica") == 1
        assert k1.next_id("replica") == 2
        assert k2.next_id("replica") == 1  # unaffected by k1's allocations


class TestWorldIds:
    """Image and request ids are numbered per world, like replica ids."""

    def _ids(self, seed):
        kernel = make_world(seed=seed).kernel
        process = kernel.clone(kernel.init_process)
        process.address_space.grow_anon("heap", 1.0)
        image = CheckpointEngine(kernel).dump(process)
        platform = FaaSPlatform(kernel)
        platform.register_function(NoopFunction)
        requests = [platform.invoke("noop").request_id,
                    platform.invoke("noop", Request()).request_id]
        return image.image_id, requests

    def test_each_world_numbers_from_one(self):
        assert self._ids(1) == ("img-000001", [1, 2])
        assert self._ids(2) == ("img-000001", [1, 2])

    def test_a_request_keeps_the_id_it_was_admitted_with(self):
        kernel = make_world(seed=1).kernel
        request = Request(request_id=7)
        platform = FaaSPlatform(kernel)
        platform.register_function(NoopFunction)
        assert platform.invoke("noop", request).request_id == 7
        assert platform.invoke("noop").request_id == 1
