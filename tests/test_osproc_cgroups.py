"""Tests for the memory cgroup controller and its platform wiring."""

import pytest

from repro.faas import FaaSPlatform
from repro.functions.base import FunctionApp
from repro.functions import register_app
from repro.osproc.cgroups import CgroupError, CgroupManager, MemoryCgroup
from repro.sim.costmodel import synthetic_costs


@pytest.fixture
def manager_cg(kernel):
    return CgroupManager(kernel)


def spawn(kernel, mib=1.0, comm="worker"):
    proc = kernel.clone(kernel.init_process, comm=comm)
    proc.address_space.grow_anon("heap", mib)
    return proc


class TestMemoryCgroup:
    def test_usage_sums_member_rss(self, kernel):
        group = MemoryCgroup(kernel, "g", limit_mib=100.0)
        group.attach(spawn(kernel, 2.0))
        group.attach(spawn(kernel, 3.0))
        assert group.usage_mib == pytest.approx(5.0)

    def test_attach_dead_rejected(self, kernel):
        group = MemoryCgroup(kernel, "g")
        proc = spawn(kernel)
        kernel.kill(proc.pid)
        with pytest.raises(CgroupError):
            group.attach(proc)

    def test_invalid_limit_rejected(self, kernel):
        with pytest.raises(CgroupError):
            MemoryCgroup(kernel, "g", limit_mib=0.0)

    def test_dead_members_drop_out(self, kernel):
        group = MemoryCgroup(kernel, "g")
        proc = spawn(kernel, 2.0)
        group.attach(proc)
        kernel.kill(proc.pid)
        assert group.members() == []
        assert group.usage_mib == 0.0

    def test_unlimited_never_enforces(self, kernel):
        group = MemoryCgroup(kernel, "g", limit_mib=None)
        group.attach(spawn(kernel, 500.0))
        assert group.enforce() == []

    def test_enforce_kills_largest_first(self, kernel):
        group = MemoryCgroup(kernel, "g", limit_mib=4.0)
        small = spawn(kernel, 2.0, comm="small")
        big = spawn(kernel, 3.0, comm="big")
        group.attach(small)
        group.attach(big)
        events = group.enforce()
        assert [e.comm for e in events] == ["big"]
        assert not big.alive
        assert small.alive

    def test_enforce_kills_until_under_limit(self, kernel):
        group = MemoryCgroup(kernel, "g", limit_mib=1.5)
        procs = [spawn(kernel, 1.0) for _ in range(3)]
        events = group.enforce()
        # Nothing attached yet → no kills.
        assert events == []
        for proc in procs:
            group.attach(proc)
        events = group.enforce()
        assert len(events) == 2
        assert group.usage_mib <= 1.5

    def test_under_limit_no_kill(self, kernel):
        group = MemoryCgroup(kernel, "g", limit_mib=10.0)
        proc = spawn(kernel, 2.0)
        group.attach(proc)
        assert group.enforce() == []
        assert proc.alive

    def test_peak_tracking(self, kernel):
        group = MemoryCgroup(kernel, "g", limit_mib=100.0)
        proc = spawn(kernel, 2.0)
        group.attach(proc)
        _ = group.usage_mib
        proc.address_space.grow_anon("more", 5.0)
        _ = group.usage_mib
        assert group.peak_mib == pytest.approx(7.0, abs=0.1)


class TestCgroupManager:
    def test_create_sets_the_limit(self, manager_cg):
        assert manager_cg.create("a", limit_mib=10.0).limit_mib == 10.0

    def test_duplicate_rejected(self, manager_cg):
        manager_cg.create("a")
        with pytest.raises(CgroupError, match="already exists"):
            manager_cg.create("a")


class HungryFunction(FunctionApp):
    """Grows its heap massively on every request (an OOM magnet)."""

    def __init__(self) -> None:
        profile = synthetic_costs("hungry", classes=1, class_kib=4.0,
                                  base_rss_mib=13.0, service_ms=1.0)
        super().__init__(profile)
        self.classes = []

    def execute(self, runtime, request):
        runtime.grow_heap(500.0)
        return "grew", 200


register_app("hungry", HungryFunction)


class TestPlatformOomIntegration:
    def test_replica_gets_cgroup(self, kernel):
        platform = FaaSPlatform(kernel)
        platform.register_function(HungryFunction)
        replica = platform.deployer.provision("hungry")
        assert replica.cgroup is not None
        assert replica.cgroup.limit_mib > 0
        assert replica.handle.process in replica.cgroup.members()

    def test_oom_kill_on_runaway_growth(self, kernel):
        platform = FaaSPlatform(kernel)
        platform.register_function(HungryFunction)
        # Each request adds 500 MiB against a ~64-128 MiB limit: the
        # first response still succeeds (OOM is post-request, like the
        # async OOM killer) but the replica dies.
        response = platform.invoke("hungry")
        assert response.ok
        assert platform.deployer.replicas("hungry") == []
        cgroups = platform.deployer.cgroups
        # Already enforced during serve: nothing is left over the limit.
        assert all(group.enforce() == []
                   for group in cgroups._groups.values())

    def test_platform_recovers_after_oom(self, kernel):
        platform = FaaSPlatform(kernel)
        platform.register_function(HungryFunction)
        platform.invoke("hungry")
        response = platform.invoke("hungry")  # fresh replica, cold start
        assert response.ok
        assert platform.router.stats.cold_starts == 2
