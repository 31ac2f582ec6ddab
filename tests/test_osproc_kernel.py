"""Tests for the simulated kernel: syscalls, freezer, ptrace, procfs."""

from dataclasses import replace

import pytest

from repro.osproc.kernel import Kernel, KernelError, PermissionDenied
from repro.osproc.process import Capability, ProcessState
from repro.sim.costmodel import DEFAULT_COST_MODEL


@pytest.fixture
def quiet():
    from repro.sim.rng import RandomStreams
    kernel = Kernel(RandomStreams(seed=0))
    kernel.costs = replace(DEFAULT_COST_MODEL, noise_sigma=0.0)
    return kernel


class TestClone:
    def test_clone_creates_child(self, kernel):
        child = kernel.clone(kernel.init_process, comm="worker")
        assert child.ppid == kernel.init_process.pid
        assert child.pid in kernel.processes
        assert child.pid in kernel.init_process.children

    def test_clone_advances_clock(self, quiet):
        before = quiet.clock.now
        quiet.clone(quiet.init_process)
        assert quiet.clock.now - before == pytest.approx(DEFAULT_COST_MODEL.clone_ms)

    def test_clone_emits_probes(self, kernel):
        seen = []
        kernel.probes.on_enter("clone", lambda r: seen.append(("in", r.pid)))
        kernel.probes.on_exit("clone", lambda r: seen.append(("out", r.pid)))
        kernel.clone(kernel.init_process)
        assert seen == [("in", 1), ("out", 1)]

    def test_clone_shares_every_parent_namespace(self, kernel):
        parent = kernel.clone(kernel.init_process)
        child = kernel.clone(parent)
        assert child.namespaces.ids() == parent.namespaces.ids()
        assert child.namespaces is not parent.namespaces

    def test_clone_copies_the_capability_set(self, kernel):
        parent = kernel.clone(kernel.init_process)
        parent.capabilities.add(Capability.CHECKPOINT_RESTORE)
        child = kernel.clone(parent)
        assert child.capabilities == parent.capabilities
        child.capabilities.clear()
        assert Capability.CHECKPOINT_RESTORE in parent.capabilities

    def test_clone_pids_are_fresh_and_increasing(self, kernel):
        pids = [kernel.clone(kernel.init_process).pid for _ in range(3)]
        assert pids == sorted(set(pids))
        assert kernel.init_process.pid not in pids

    def test_clone_comm_defaults_to_the_parents(self, kernel):
        parent = kernel.clone(kernel.init_process, comm="java")
        assert kernel.clone(parent).comm == "java"
        assert kernel.clone(parent, comm="criu").comm == "criu"

    def test_clone_dead_parent_rejected(self, kernel):
        child = kernel.clone(kernel.init_process)
        kernel.kill(child.pid)
        with pytest.raises(KernelError):
            kernel.clone(child)


class TestExec:
    def test_execve_replaces_image(self, kernel):
        kernel.fs.create("/bin/app", size=100_000)
        proc = kernel.clone(kernel.init_process)
        proc.payload["junk"] = 1
        proc.address_space.grow_anon("old", 1.0)
        kernel.execve(proc, "/bin/app", argv=["/bin/app", "-x"])
        assert proc.comm == "app"
        assert proc.argv == ["/bin/app", "-x"]
        assert proc.payload == {}
        assert proc.address_space.find_by_label("old") is None
        assert proc.address_space.find_by_label("text") is not None
        assert proc.address_space.find_by_label("stack") is not None

    def test_execve_missing_binary_rejected(self, kernel):
        proc = kernel.clone(kernel.init_process)
        with pytest.raises(Exception, match="no such file"):
            kernel.execve(proc, "/bin/missing")

    def test_execve_warms_binary_cache(self, kernel):
        binary = kernel.fs.create("/bin/app", size=50_000)
        proc = kernel.clone(kernel.init_process)
        kernel.execve(proc, "/bin/app")
        assert kernel.page_cache.warmth(binary) == 1.0


class TestKill:
    def test_kill_releases_memory(self, kernel):
        child = kernel.clone(kernel.init_process)
        child.address_space.grow_anon("heap", 4.0)
        kernel.kill(child.pid)
        assert child.state is ProcessState.DEAD
        assert child.address_space.rss_bytes == 0

    def test_kill_is_idempotent(self, kernel):
        child = kernel.clone(kernel.init_process)
        kernel.kill(child.pid)
        kernel.kill(child.pid)
        assert child.state is ProcessState.DEAD

    def test_kill_unknown_pid_rejected(self, kernel):
        with pytest.raises(KernelError, match="ESRCH"):
            kernel.kill(424242)


class TestFreezer:
    def test_freeze_thaw_cycle(self, kernel):
        child = kernel.clone(kernel.init_process)
        kernel.freeze(child)
        assert child.state is ProcessState.FROZEN
        assert all(t.state.value == "frozen" for t in child.threads)
        kernel.thaw(child)
        assert child.state is ProcessState.RUNNING

    def test_double_freeze_rejected(self, kernel):
        child = kernel.clone(kernel.init_process)
        kernel.freeze(child)
        with pytest.raises(KernelError):
            kernel.freeze(child)

    def test_thaw_running_rejected(self, kernel):
        child = kernel.clone(kernel.init_process)
        with pytest.raises(KernelError):
            kernel.thaw(child)


class TestPtrace:
    def _privileged(self, kernel):
        tracer = kernel.clone(kernel.init_process)
        tracer.capabilities.add(Capability.CHECKPOINT_RESTORE)
        return tracer

    def test_seize_requires_capability(self, kernel):
        tracer = kernel.clone(kernel.init_process)
        tracer.capabilities.clear()
        target = kernel.clone(kernel.init_process)
        with pytest.raises(PermissionDenied):
            kernel.ptrace_seize(tracer, target)

    def test_seize_inject_cure_detach(self, kernel):
        tracer = self._privileged(kernel)
        target = kernel.clone(kernel.init_process)
        kernel.ptrace_seize(tracer, target)
        assert kernel._tracees[target.pid] == tracer.pid
        vma = kernel.ptrace_inject_parasite(tracer, target)
        assert vma.label == "criu-parasite"
        assert target.address_space.find_by_label("criu-parasite") is vma
        kernel.ptrace_remove_parasite(tracer, target)
        assert target.address_space.find_by_label("criu-parasite") is None
        kernel.ptrace_detach(tracer, target)
        assert target.pid not in kernel._tracees

    def test_double_seize_rejected(self, kernel):
        tracer = self._privileged(kernel)
        other = self._privileged(kernel)
        target = kernel.clone(kernel.init_process)
        kernel.ptrace_seize(tracer, target)
        with pytest.raises(KernelError, match="already traced"):
            kernel.ptrace_seize(other, target)

    def test_inject_without_seize_rejected(self, kernel):
        tracer = self._privileged(kernel)
        target = kernel.clone(kernel.init_process)
        with pytest.raises(KernelError, match="does not trace"):
            kernel.ptrace_inject_parasite(tracer, target)

    def test_double_inject_rejected(self, kernel):
        tracer = self._privileged(kernel)
        target = kernel.clone(kernel.init_process)
        kernel.ptrace_seize(tracer, target)
        kernel.ptrace_inject_parasite(tracer, target)
        with pytest.raises(KernelError, match="already carries"):
            kernel.ptrace_inject_parasite(tracer, target)


class TestProcfs:
    def test_clear_refs(self, kernel):
        child = kernel.clone(kernel.init_process)
        vma = child.address_space.grow_anon("heap", 0.01)
        assert len(vma.touched_indices()) == vma.resident_pages
        child.address_space.clear_soft_dirty()
        assert len(vma.touched_indices()) == 0

    def test_get_unknown_pid(self, kernel):
        with pytest.raises(KernelError, match="ESRCH"):
            kernel.get(31337)
