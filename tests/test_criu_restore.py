"""Tests for the restore side of the CRIU protocol."""

import pytest

from repro.criu.checkpoint import CheckpointEngine
from repro.criu.pagestore import image_chunk_count
from repro.criu.restore import LAZY_EAGER_FRACTION, RestoreEngine, RestoreMode
from repro.osproc.process import ProcessState
from repro.sim.costmodel import DEFAULT_COST_MODEL


@pytest.fixture
def engines(kernel):
    return CheckpointEngine(kernel), RestoreEngine(kernel)


@pytest.fixture
def donor(kernel):
    proc = kernel.clone(kernel.init_process, comm="java")
    kernel.fs.ensure("/bin/java", size=1000)
    kernel.execve(proc, "/bin/java", argv=["java", "-jar", "fn.jar"])
    proc.address_space.grow_anon("heap", 3.0, content_tag="heap-data")
    jar = kernel.fs.ensure("/fn.jar", size=128 * 1024)
    proc.open_fd(jar, flags="r")
    return proc


class TestRestoreProtocol:
    def test_restore_produces_running_process(self, engines, donor, kernel):
        dump, restore = engines
        image = dump.dump(donor, leave_running=False)
        proc = restore.restore(image)
        assert proc.state is ProcessState.RUNNING
        assert proc.comm == donor.comm
        assert proc.argv == ["java", "-jar", "fn.jar"]

    def test_restored_memory_matches_dump(self, engines, donor):
        dump, restore = engines
        expected_rss = donor.address_space.rss_bytes
        expected_labels = sorted(v.label for v in donor.address_space.vmas)
        image = dump.dump(donor, leave_running=False)
        proc = restore.restore(image)
        assert proc.address_space.rss_bytes == expected_rss
        assert sorted(v.label for v in proc.address_space.vmas) == expected_labels

    def test_restored_page_tags_match(self, engines, donor):
        dump, restore = engines
        image = dump.dump(donor, leave_running=False)
        proc = restore.restore(image)
        heap = proc.address_space.find_by_label("heap")
        indices, tags = heap.dump_pages()
        assert indices and set(tags) == {"heap-data"}

    def test_restored_fds_reopened(self, engines, donor):
        dump, restore = engines
        image = dump.dump(donor, leave_running=False)
        proc = restore.restore(image)
        assert [d.file.path for d in proc.open_files()] == ["/fn.jar"]

    def test_restore_gets_fresh_pid_by_default(self, engines, donor):
        dump, restore = engines
        original_pid = donor.pid
        image = dump.dump(donor, leave_running=False)
        proc = restore.restore(image)
        assert proc.pid != original_pid

    def test_restore_beside_a_live_donor(self, engines, donor):
        dump, restore = engines
        image = dump.dump(donor, leave_running=True)
        proc = restore.restore(image)
        assert donor.state is ProcessState.RUNNING
        assert proc.state is ProcessState.RUNNING
        assert proc.pid != donor.pid

    def test_restore_gets_fresh_namespaces(self, engines, donor):
        dump, restore = engines
        image = dump.dump(donor, leave_running=False)
        proc = restore.restore(image)
        assert proc.namespaces.ids() != image.namespace_ids

    def test_restore_warms_file_backed_pages(self, engines, donor, kernel):
        dump, restore = engines
        libjvm = kernel.fs.lookup("/bin/java")
        image = dump.dump(donor, leave_running=False)
        kernel.page_cache._entries.clear()  # drop the page cache
        assert kernel.page_cache.warmth(libjvm) == 0.0
        restore.restore(image)
        assert kernel.page_cache.warmth(libjvm) == 1.0

    def test_many_replicas_from_one_snapshot(self, engines, donor):
        """§3.1: one snapshot restores any number of replicas."""
        dump, restore = engines
        image = dump.dump(donor, leave_running=False)
        procs = [restore.restore(image) for _ in range(5)]
        assert len({p.pid for p in procs}) == 5
        rss = {p.address_space.rss_bytes for p in procs}
        assert len(rss) == 1


class TestRestoreCosts:
    def _image(self, kernel, mib):
        dump = CheckpointEngine(kernel)
        proc = kernel.clone(kernel.init_process)
        proc.address_space.grow_anon("heap", mib)
        return dump.dump(proc, leave_running=False)

    def test_restore_duration_scales_with_size(self, quiet_kernel):
        restore = RestoreEngine(quiet_kernel)
        small = self._image(quiet_kernel, 5.0)
        big = self._image(quiet_kernel, 80.0)
        t0 = quiet_kernel.clock.now
        restore.restore(small)
        small_ms = quiet_kernel.clock.now - t0
        t0 = quiet_kernel.clock.now
        restore.restore(big)
        big_ms = quiet_kernel.clock.now - t0
        m = DEFAULT_COST_MODEL
        assert big_ms - small_ms == pytest.approx(
            (big.total_mib - small.total_mib) * m.restore_per_mib_ms, rel=0.05)

    def test_override_duration(self, quiet_kernel):
        restore = RestoreEngine(quiet_kernel)
        image = self._image(quiet_kernel, 50.0)
        t0 = quiet_kernel.clock.now
        restore.restore(image, duration_override_ms=10.0)
        elapsed = quiet_kernel.clock.now - t0
        # 10ms + criu clone/exec spawn.
        assert elapsed == pytest.approx(
            10.0 + DEFAULT_COST_MODEL.clone_ms + DEFAULT_COST_MODEL.exec_ms, rel=0.01)

    def test_in_memory_restore_cheaper(self, quiet_kernel):
        restore = RestoreEngine(quiet_kernel)
        image = self._image(quiet_kernel, 60.0)
        t0 = quiet_kernel.clock.now
        restore.restore(image, in_memory=False)
        disk_ms = quiet_kernel.clock.now - t0
        t0 = quiet_kernel.clock.now
        restore.restore(image, in_memory=True)
        mem_ms = quiet_kernel.clock.now - t0
        assert mem_ms < disk_ms

    def test_lazy_restore_defers_cost(self, quiet_kernel):
        restore = RestoreEngine(quiet_kernel)
        image = self._image(quiet_kernel, 60.0)
        t0 = quiet_kernel.clock.now
        eager_proc = restore.restore(image, mode=RestoreMode.EAGER)
        eager_ms = quiet_kernel.clock.now - t0
        t0 = quiet_kernel.clock.now
        lazy_proc = restore.restore(image, mode=RestoreMode.LAZY)
        lazy_ms = quiet_kernel.clock.now - t0
        assert lazy_ms < eager_ms
        debt = lazy_proc.payload["lazy_restore_debt_ms"]
        assert debt > 0
        assert lazy_ms + debt == pytest.approx(eager_ms, rel=0.02)
        assert "lazy_restore_debt_ms" not in eager_proc.payload


def term_by_term_price(costs, image_mib, override_ms, in_memory,
                       page_fraction, workers, chunk_count, cached_fraction):
    """The restore charge built up one term at a time, in the order the
    engine has always applied them."""
    full = costs.restore_cost(image_mib, override_ms)
    base = min(costs.restore_base_ms, full)
    pages_ms = full - base
    if in_memory:
        pages_ms *= costs.restore_in_memory_factor
    pages_ms *= page_fraction
    plan = costs.plan_restore_pipeline(pages_ms, workers, chunk_count,
                                       cached_fraction)
    return base, plan, base + pages_ms


class TestRestorePrice:
    """The engine charges exactly ``CostModel.restore_price``."""

    @pytest.mark.parametrize("mode,in_memory,override_ms,page_fraction", [
        (RestoreMode.EAGER, False, None, 1.0),
        (RestoreMode.EAGER, True, None, 1.0),
        (RestoreMode.EAGER, False, 55.0, 1.0),
        (RestoreMode.LAZY, False, None, LAZY_EAGER_FRACTION),
        (RestoreMode.WORKING_SET, False, None, 1.0),  # no record: all pages
    ])
    def test_duration_matches_the_term_by_term_charge(
            self, kernel, donor, mode, in_memory, override_ms, page_fraction):
        image = CheckpointEngine(kernel).dump(donor, leave_running=False)
        engine = RestoreEngine(kernel, pipeline_workers=2)
        got = engine._restore_duration(image, mode, in_memory, override_ms,
                                       None, 0.3)
        assert got == term_by_term_price(
            kernel.costs, image.total_mib, override_ms, in_memory,
            page_fraction, 2, image_chunk_count(image), 0.3)
