"""Tests for the snapshot store."""

import pytest

from repro.core.store import SnapshotKey, SnapshotNotFound, SnapshotStore
from repro.criu.checkpoint import CheckpointEngine


@pytest.fixture
def image(kernel):
    proc = kernel.clone(kernel.init_process)
    proc.address_space.grow_anon("heap", 1.0)
    return CheckpointEngine(kernel).dump(proc, leave_running=False)


KEY = SnapshotKey(function="fn", runtime_kind="jvm", policy="after-ready")


class TestSnapshotStore:
    def test_put_get_roundtrip(self, image):
        store = SnapshotStore()
        store.put(KEY, image)
        assert store.get(KEY) is image

    def test_get_missing_raises_with_inventory(self, image):
        store = SnapshotStore()
        store.put(KEY, image)
        missing = SnapshotKey("other", "jvm", "after-ready")
        with pytest.raises(SnapshotNotFound, match="fn@v1"):
            store.get(missing)

    def test_get_increments_restore_count(self, image):
        store = SnapshotStore()
        store.put(KEY, image)
        store.get(KEY)
        store.get(KEY)
        assert store.restore_count(KEY) == 2

    def test_peek_does_not_count(self, image):
        store = SnapshotStore()
        store.put(KEY, image)
        assert store.peek(KEY) is image
        assert store.restore_count(KEY) == 0

    def test_peek_missing_is_none(self):
        assert SnapshotStore().peek(KEY) is None

    def test_replace_same_key(self, image, kernel):
        store = SnapshotStore()
        store.put(KEY, image)
        proc = kernel.clone(kernel.init_process)
        proc.address_space.grow_anon("heap", 2.0)
        other = CheckpointEngine(kernel).dump(proc, leave_running=False)
        store.put(KEY, other)
        assert store.get(KEY) is other
        assert len(store) == 1

    def test_versions_are_distinct_keys(self, image):
        store = SnapshotStore()
        v1 = SnapshotKey("fn", "jvm", "after-ready", version=1)
        v2 = SnapshotKey("fn", "jvm", "after-ready", version=2)
        store.put(v1, image)
        store.put(v2, image)
        assert len(store) == 2

    def test_total_bytes(self, image):
        store = SnapshotStore()
        store.put(KEY, image)
        assert store.total_bytes == image.total_bytes
        assert store.total_mib == pytest.approx(image.total_mib)

    def test_keys_sorted(self, image):
        store = SnapshotStore()
        b = SnapshotKey("b", "jvm", "after-ready")
        a = SnapshotKey("a", "jvm", "after-ready")
        store.put(b, image)
        store.put(a, image)
        assert store.keys() == [a, b]

    def test_empty_store_is_falsy_but_usable(self, image):
        """Regression for the `store or SnapshotStore()` bug."""
        store = SnapshotStore()
        assert len(store) == 0
        assert not store  # falsy when empty (defines __len__)
        store.put(KEY, image)
        assert store.contains(KEY)

    def test_key_str(self):
        assert str(KEY) == "fn@v1/jvm/after-ready"
