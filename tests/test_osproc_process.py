"""Tests for processes, threads and descriptors."""

import pytest

from repro.osproc.filesystem import VirtualFile
from repro.osproc.process import Capability, Process, ProcessState, ThreadState


def make_process(pid=100):
    return Process(pid=pid, ppid=1, comm="test")


class TestProcess:
    def test_fresh_process_is_running(self):
        proc = make_process()
        assert proc.state is ProcessState.RUNNING
        assert proc.alive

    def test_has_one_initial_thread(self):
        proc = make_process()
        assert len(proc.threads) == 1
        assert proc.threads[0].state is ThreadState.RUNNING

    def test_spawn_thread(self):
        proc = make_process()
        t = proc.spawn_thread("worker")
        assert t in proc.threads
        assert t.name == "worker"

    def test_spawn_thread_requires_running(self):
        proc = make_process()
        proc.state = ProcessState.ZOMBIE
        with pytest.raises(RuntimeError):
            proc.spawn_thread()

    def test_thread_ids_unique(self):
        proc = make_process()
        tids = {proc.spawn_thread().tid for _ in range(10)}
        tids.add(proc.threads[0].tid)
        assert len(tids) == 11

    @pytest.mark.parametrize("state,alive", [
        (ProcessState.RUNNING, True),
        (ProcessState.FROZEN, True),
        (ProcessState.TRACED, True),
        (ProcessState.RESTORING, True),
        (ProcessState.ZOMBIE, False),
        (ProcessState.DEAD, False),
    ])
    def test_alive_by_state(self, state, alive):
        proc = make_process()
        proc.state = state
        assert proc.alive is alive


class TestDescriptors:
    def test_open_fd_numbers_start_at_3(self):
        proc = make_process()
        fd = proc.open_fd(VirtualFile("/f"))
        assert fd.fd == 3

    def test_fd_numbers_increment(self):
        proc = make_process()
        fds = [proc.open_fd(VirtualFile(f"/f{i}")).fd for i in range(3)]
        assert fds == [3, 4, 5]

    def test_close_fd(self):
        proc = make_process()
        fd = proc.open_fd(VirtualFile("/f"))
        proc.close_fd(fd.fd)
        assert fd.closed
        assert proc.open_files() == []

    def test_close_unknown_fd_rejected(self):
        with pytest.raises(KeyError):
            make_process().close_fd(7)

    def test_open_files_excludes_closed(self):
        proc = make_process()
        keep = proc.open_fd(VirtualFile("/keep"))
        drop = proc.open_fd(VirtualFile("/drop"))
        proc.close_fd(drop.fd)
        assert [d.fd for d in proc.open_files()] == [keep.fd]


class TestCapabilities:
    def test_default_no_capabilities(self):
        assert not make_process().has_capability(Capability.SYS_ADMIN)

    def test_granted_capability(self):
        proc = Process(pid=1, ppid=0, comm="x",
                       capabilities={Capability.CHECKPOINT_RESTORE})
        assert proc.has_capability(Capability.CHECKPOINT_RESTORE)
        assert not proc.has_capability(Capability.SYS_ADMIN)
