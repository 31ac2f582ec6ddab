"""Tests for snapshot serialization and the evicting/archiving store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import make_world
from repro.core.bake import Prebaker
from repro.core.persistence import (
    DirBackend,
    EvictingSnapshotStore,
    SnapshotArchive,
    VfsBackend,
)
from repro.core.policy import AfterWarmup
from repro.core.starters import PrebakeStarter
from repro.core.store import SnapshotKey, SnapshotNotFound
from repro.criu.checkpoint import CheckpointEngine
from repro.criu.serialize import (
    SerializationError,
    deserialize_image,
    serialize_image,
)
from repro.functions import make_app
from repro.osproc.memory import PAGE_SIZE, VMAKind
from repro.runtime.base import Request


def dump_process(kernel, mib=1.0, warm=False):
    proc = kernel.clone(kernel.init_process, comm="subject")
    proc.address_space.grow_anon("heap", mib, content_tag="h")
    return CheckpointEngine(kernel).dump(proc, leave_running=False, warm=warm)


class TestSerializeRoundTrip:
    def test_basic_roundtrip(self, kernel):
        image = dump_process(kernel, 2.0, warm=True)
        clone = deserialize_image(serialize_image(image))
        assert clone.image_id == image.image_id
        assert clone.pid == image.pid
        assert clone.comm == image.comm
        assert clone.warm is True
        assert clone.resident_pages == image.resident_pages
        assert clone.total_bytes == image.total_bytes
        assert [v.label for v in clone.vmas] == [v.label for v in image.vmas]

    def test_roundtrip_preserves_page_tags(self, kernel):
        image = dump_process(kernel, 0.5)
        clone = deserialize_image(serialize_image(image))
        for original, restored in zip(image.vmas, clone.vmas):
            assert restored.resident_indices.tolist() == \
                original.resident_indices.tolist()
            assert restored.content_tags == original.content_tags

    def test_roundtrip_with_runtime_state(self, kernel):
        prebaker = Prebaker(kernel)
        app = make_app("synthetic-small")
        report = prebaker.bake(app, policy=AfterWarmup(1))
        clone = deserialize_image(serialize_image(report.image))
        state = clone.runtime_state
        assert state["kind"] == "jvm"
        assert state["ready"] is True
        assert state["app"].name == "synthetic-small"
        assert len(state["extra"]["loaded_class_names"]) == 374

    def test_deserialized_image_restores(self, kernel):
        prebaker = Prebaker(kernel)
        app = make_app("markdown")
        report = prebaker.bake(app, policy=AfterWarmup(1))
        clone = deserialize_image(serialize_image(report.image))
        from repro.criu.restore import RestoreEngine
        proc = RestoreEngine(kernel).restore(clone)
        runtime = proc.payload["runtime"]
        assert runtime.ready
        response = runtime.handle(Request(body="# s11n"))
        assert "<h1>s11n</h1>" in response.body

    def test_bad_magic_rejected(self):
        with pytest.raises(SerializationError, match="magic"):
            deserialize_image(b"NOTANIMG" + b"\x00" * 64)

    def test_truncated_rejected(self, kernel):
        blob = serialize_image(dump_process(kernel))
        with pytest.raises(SerializationError, match="truncated|short"):
            deserialize_image(blob[:20])

    def test_bad_version_rejected(self, kernel):
        blob = bytearray(serialize_image(dump_process(kernel)))
        blob[8:10] = (99).to_bytes(2, "big")
        with pytest.raises(SerializationError, match="version"):
            deserialize_image(bytes(blob))

    def test_corrupt_header_rejected(self, kernel):
        blob = bytearray(serialize_image(dump_process(kernel)))
        blob[20] ^= 0xFF
        with pytest.raises(SerializationError):
            deserialize_image(bytes(blob))

    def test_rle_compression_effective(self, kernel):
        """Contiguous same-tag pages must not serialize per-page."""
        image = dump_process(kernel, 50.0)  # 12800 pages, one tag
        blob = serialize_image(image)
        assert len(blob) < 8 * 1024  # tiny header, not per-page records

    @given(layout=st.lists(
        st.tuples(st.integers(1, 32), st.integers(0, 32)),
        min_size=1, max_size=5,
    ), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, layout, seed):
        world = make_world(seed=seed)
        kernel = world.kernel
        proc = kernel.clone(kernel.init_process)
        for i, (pages, resident) in enumerate(layout):
            vma = proc.address_space.mmap(pages * PAGE_SIZE, VMAKind.ANON,
                                          label=f"v{i}")
            vma.touch_range(0, min(resident, pages), content_tag=f"t{i % 3}")
        image = CheckpointEngine(kernel).dump(proc, leave_running=False)
        clone = deserialize_image(serialize_image(image))
        assert clone.resident_pages == image.resident_pages
        for original, restored in zip(image.vmas, clone.vmas):
            assert restored == original


class TestArchive:
    def test_vfs_archive_roundtrip(self, kernel):
        archive = SnapshotArchive(VfsBackend(kernel.fs))
        key = SnapshotKey("fn", "jvm", "after-ready")
        image = dump_process(kernel, 1.0)
        size = archive.save(key, image)
        assert size > 0
        assert archive.contains(key)
        loaded = archive.load(key)
        assert loaded.resident_pages == image.resident_pages
        archive.delete(key)
        assert not archive.contains(key)

    def test_dir_archive_roundtrip(self, kernel, tmp_path):
        archive = SnapshotArchive(DirBackend(str(tmp_path)))
        key = SnapshotKey("fn", "jvm", "after-ready")
        image = dump_process(kernel, 1.0)
        archive.save(key, image)
        assert len(archive) == 1
        loaded = archive.load(key)
        assert loaded.comm == image.comm

    def test_dir_archive_missing(self, tmp_path):
        archive = SnapshotArchive(DirBackend(str(tmp_path)))
        with pytest.raises(SnapshotNotFound):
            archive.load(SnapshotKey("ghost", "jvm", "after-ready"))

    def test_save_overwrites(self, kernel):
        archive = SnapshotArchive(VfsBackend(kernel.fs))
        key = SnapshotKey("fn", "jvm", "after-ready")
        archive.save(key, dump_process(kernel, 1.0))
        bigger = dump_process(kernel, 2.0)
        archive.save(key, bigger)
        assert archive.load(key).resident_pages == bigger.resident_pages


class TestEvictingStore:
    def _key(self, name, version=1):
        return SnapshotKey(name, "jvm", "after-ready", version)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EvictingSnapshotStore(0.0)

    def test_oversized_snapshot_rejected(self, kernel):
        store = EvictingSnapshotStore(capacity_mib=1.0)
        with pytest.raises(ValueError, match="exceeds"):
            store.put(self._key("big"), dump_process(kernel, 5.0))

    def test_evicts_lru_to_archive(self, kernel):
        archive = SnapshotArchive(VfsBackend(kernel.fs))
        store = EvictingSnapshotStore(capacity_mib=5.0, archive=archive)
        a, b, c = (self._key(n) for n in "abc")
        store.put(a, dump_process(kernel, 2.0))
        store.put(b, dump_process(kernel, 2.0))
        store.get(a)  # a is now more recently used than b
        store.put(c, dump_process(kernel, 2.0))  # evicts b
        assert store.evictions == 1
        assert archive.contains(b)
        assert store.total_mib <= 5.0

    def test_fault_back_from_archive(self, kernel):
        archive = SnapshotArchive(VfsBackend(kernel.fs))
        store = EvictingSnapshotStore(capacity_mib=5.0, archive=archive)
        a, b, c = (self._key(n) for n in "abc")
        for key in (a, b, c):
            store.put(key, dump_process(kernel, 2.0))
        # a was evicted; getting it faults it back (evicting another).
        image = store.get(a)
        assert image.comm == "subject"
        assert store.faults == 1

    def test_get_missing_everywhere(self, kernel):
        store = EvictingSnapshotStore(
            capacity_mib=5.0, archive=SnapshotArchive(VfsBackend(kernel.fs)))
        with pytest.raises(SnapshotNotFound):
            store.get(self._key("ghost"))

    def test_eviction_without_archive_drops(self, kernel):
        store = EvictingSnapshotStore(capacity_mib=4.0)
        a, b = self._key("a"), self._key("b")
        store.put(a, dump_process(kernel, 2.0))
        store.put(b, dump_process(kernel, 2.5))
        assert store.evictions == 1
        with pytest.raises(SnapshotNotFound):
            store.get(a)

    def test_contains_checks_archive(self, kernel):
        archive = SnapshotArchive(VfsBackend(kernel.fs))
        store = EvictingSnapshotStore(capacity_mib=4.0, archive=archive)
        a, b = self._key("a"), self._key("b")
        store.put(a, dump_process(kernel, 2.0))
        store.put(b, dump_process(kernel, 2.5))  # a spills
        assert store.contains(a)

    def test_delete_clears_both_tiers(self, kernel):
        archive = SnapshotArchive(VfsBackend(kernel.fs))
        store = EvictingSnapshotStore(capacity_mib=10.0, archive=archive)
        key = self._key("a")
        image = dump_process(kernel, 2.0)
        store.put(key, image)
        archive.save(key, image)
        store.delete(key)
        assert not store.contains(key)
        assert not archive.contains(key)

    def test_works_with_prebake_starter(self, kernel):
        """The evicting store drops into the standard restore path."""
        archive = SnapshotArchive(VfsBackend(kernel.fs))
        store = EvictingSnapshotStore(capacity_mib=200.0, archive=archive)
        prebaker = Prebaker(kernel, store)
        app = make_app("noop")
        prebaker.bake(app)
        starter = PrebakeStarter(kernel, store)
        handle = starter.start(app)
        assert handle.runtime.ready
