"""Tests for image diffing."""

from repro.criu.checkpoint import CheckpointEngine
from repro.criu.imgdiff import diff_images


class TestImageDiff:
    def _dump(self, kernel, proc):
        return CheckpointEngine(kernel).dump(proc, leave_running=True)

    def test_identical_images(self, kernel):
        proc = kernel.clone(kernel.init_process)
        proc.address_space.grow_anon("heap", 1.0, content_tag="v0")
        old = self._dump(kernel, proc)
        new = self._dump(kernel, proc)
        diff = diff_images(old, new)
        assert diff.pages_added == 0
        assert diff.pages_removed == 0
        assert diff.pages_retagged == 0
        assert diff.dedup_ratio == 1.0

    def test_growth_detected(self, kernel):
        from repro.osproc.memory import VMAKind
        proc = kernel.clone(kernel.init_process)
        vma = proc.address_space.mmap(1024 * 4096, VMAKind.ANON, label="heap")
        vma.touch_range(0, 100, content_tag="v0")
        old = self._dump(kernel, proc)
        vma.touch_range(100, 50, content_tag="v0")
        new = self._dump(kernel, proc)
        diff = diff_images(old, new)
        assert diff.pages_added == 50
        assert diff.pages_unchanged == 100

    def test_retag_detected(self, kernel):
        from repro.osproc.memory import VMAKind
        proc = kernel.clone(kernel.init_process)
        vma = proc.address_space.mmap(64 * 4096, VMAKind.ANON, label="heap")
        vma.touch_range(0, 20, content_tag="v0")
        old = self._dump(kernel, proc)
        for index in range(5):
            vma.touch_range(index, 1, content_tag="v1")
        new = self._dump(kernel, proc)
        diff = diff_images(old, new)
        assert diff.pages_retagged == 5
        assert diff.pages_unchanged == 15
        assert diff.delta_bytes == 5 * 4096

    def test_added_and_removed_vmas(self, kernel):
        from repro.osproc.memory import VMAKind
        proc = kernel.clone(kernel.init_process)
        proc.address_space.grow_anon("old-only", 0.1)
        old = self._dump(kernel, proc)
        gone = proc.address_space.find_by_label("old-only")
        proc.address_space.munmap(gone)
        proc.address_space.grow_anon("new-only", 0.2)
        new = self._dump(kernel, proc)
        diff = diff_images(old, new)
        by_label = {v.label: v for v in diff.vmas}
        assert by_label["old-only"].status == "removed"
        assert by_label["new-only"].status == "added"

    def test_version_bake_diff_mostly_shared(self, kernel):
        """Two bakes of the same function share nearly every page —
        the registry argument for content-addressed snapshot storage."""
        from repro.core.bake import Prebaker
        from repro.functions import make_app
        prebaker = Prebaker(kernel)
        v1 = prebaker.bake(make_app("markdown"), version=1)
        v2 = prebaker.bake(make_app("markdown"), version=2)
        diff = diff_images(v1.image, v2.image)
        assert diff.dedup_ratio > 0.95

    def test_summary_text(self, kernel):
        proc = kernel.clone(kernel.init_process)
        proc.address_space.grow_anon("heap", 0.05)
        old = self._dump(kernel, proc)
        proc.address_space.grow_anon("extra", 0.05)
        new = self._dump(kernel, proc)
        text = diff_images(old, new).summary()
        assert "diff" in text and "extra" in text and "dedup" in text
