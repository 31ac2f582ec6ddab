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

    def test_initial_thread_is_named_after_the_command(self):
        proc = make_process()
        assert proc.threads[0].name == proc.comm

    @pytest.mark.parametrize("state,alive", [
        (ProcessState.RUNNING, True),
        (ProcessState.FROZEN, True),
        (ProcessState.TRACED, True),
        (ProcessState.RESTORING, True),
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


class TestCapabilities:
    def test_default_no_capabilities(self):
        assert not make_process().has_capability(Capability.SYS_ADMIN)

    def test_granted_capability(self):
        proc = Process(pid=1, ppid=0, comm="x",
                       capabilities={Capability.CHECKPOINT_RESTORE})
        assert proc.has_capability(Capability.CHECKPOINT_RESTORE)
        assert not proc.has_capability(Capability.SYS_ADMIN)
