"""Tests for the dump side of the CRIU protocol."""

import pytest

from repro.criu.checkpoint import CheckpointEngine, CheckpointError
from repro.osproc.process import ProcessState
from repro.sim.costmodel import DEFAULT_COST_MODEL


@pytest.fixture
def engine(kernel):
    return CheckpointEngine(kernel)


@pytest.fixture
def target(kernel):
    proc = kernel.clone(kernel.init_process, comm="java")
    kernel.fs.ensure("/bin/java", size=1000)
    kernel.execve(proc, "/bin/java")
    proc.address_space.grow_anon("heap", 2.0, content_tag="heap")
    jar = kernel.fs.ensure("/fn.jar", size=64 * 1024)
    proc.open_fd(jar, flags="r")
    return proc


class TestDumpProtocol:
    def test_dump_leaves_target_running(self, engine, target):
        image = engine.dump(target, leave_running=True)
        assert target.state is ProcessState.RUNNING
        assert image.pid == target.pid

    def test_dump_kill_on_request(self, engine, target, kernel):
        engine.dump(target, leave_running=False)
        assert target.state is ProcessState.DEAD

    def test_dump_captures_all_resident_pages(self, engine, target):
        expected = sum(v.resident_pages for v in target.address_space.vmas)
        image = engine.dump(target)
        assert sum(v.resident_pages for v in image.vmas) == expected

    def test_parasite_never_in_image(self, engine, target):
        image = engine.dump(target)
        assert all(v.kind != "parasite" for v in image.vmas)
        # And the parasite is cured from the live process too.
        assert target.address_space.find_by_label("criu-parasite") is None

    def test_dump_records_fds(self, engine, target):
        image = engine.dump(target)
        paths = [fd.path for fd in image.fds]
        assert "/fn.jar" in paths

    def test_dump_records_namespaces(self, engine, target):
        image = engine.dump(target)
        assert image.namespace_ids == target.namespaces.ids()

    def test_dump_dead_target_rejected(self, engine, target, kernel):
        kernel.kill(target.pid)
        with pytest.raises(CheckpointError):
            engine.dump(target)

    def test_dump_frozen_target_rejected(self, engine, target, kernel):
        kernel.freeze(target)
        with pytest.raises(CheckpointError, match="must be running"):
            engine.dump(target)

    def test_dump_advances_clock(self, engine, target, kernel):
        before = kernel.clock.now
        engine.dump(target)
        assert kernel.clock.now > before

    def test_dump_cost_scales_with_rss(self, quiet_kernel):
        engine = CheckpointEngine(quiet_kernel)
        small = quiet_kernel.clone(quiet_kernel.init_process)
        small.address_space.grow_anon("heap", 1.0)
        big = quiet_kernel.clone(quiet_kernel.init_process)
        big.address_space.grow_anon("heap", 50.0)
        t0 = quiet_kernel.clock.now
        engine.dump(small)
        small_cost = quiet_kernel.clock.now - t0
        t0 = quiet_kernel.clock.now
        engine.dump(big)
        big_cost = quiet_kernel.clock.now - t0
        # The 49 extra MiB cost dump_per_mib_ms each.
        assert big_cost - small_cost == pytest.approx(
            49.0 * DEFAULT_COST_MODEL.dump_per_mib_ms, rel=0.05)

    def test_image_size_tracks_rss(self, engine, kernel):
        proc = kernel.clone(kernel.init_process)
        proc.address_space.grow_anon("heap", 8.0)
        image = engine.dump(proc)
        assert image.total_mib == pytest.approx(8.0, abs=0.5)

    def test_warm_flag_propagates(self, engine, target):
        assert engine.dump(target, warm=True).warm is True

    def test_unique_image_ids(self, engine, target):
        a = engine.dump(target)
        b = engine.dump(target)
        assert a.image_id != b.image_id
