"""Tests for the simulated VFS and page cache."""

import pytest

from repro import make_world
from repro.core.bake import Prebaker
from repro.core.policy import AfterReady
from repro.criu.restore import RestoreEngine
from repro.functions import make_app
from repro.osproc.filesystem import FileSystem, FileSystemError, PageCache, VirtualFile


class TestFileSystem:
    def test_create_and_lookup(self):
        fs = FileSystem()
        fs.create("/a/b", size=100)
        assert fs.lookup("/a/b").size == 100
        assert fs.exists("/a/b") and not fs.exists("/a")

    def test_create_duplicate_rejected(self):
        fs = FileSystem()
        fs.create("/x")
        with pytest.raises(FileSystemError):
            fs.create("/x")

    def test_lookup_missing_rejected(self):
        with pytest.raises(FileSystemError, match="no such file"):
            FileSystem().lookup("/missing")

    def test_ensure_is_idempotent(self):
        fs = FileSystem()
        first = fs.ensure("/f", size=10)
        second = fs.ensure("/f", size=999)
        assert first is second
        assert second.size == 10  # existing file untouched

    def test_ensure_creates_a_missing_file(self):
        fs = FileSystem()
        f = fs.ensure("/new", size=42)
        assert fs.lookup("/new") is f
        assert f.size == 42

    def test_baked_image_holds_one_socket_and_restore_reopens_it(self):
        # The runtime marks its listening socket; the image records the
        # flag and a restore in a world without that file marks it again.
        world = make_world(seed=1)
        image = Prebaker(world.kernel).bake(make_app("noop"), policy=AfterReady()).image
        sockets = [f for f in image.fds if f.is_socket]
        assert len(sockets) == 1
        fresh = make_world(seed=2)
        assert not fresh.kernel.fs.exists(sockets[0].path)
        proc = RestoreEngine(fresh.kernel).restore(image)
        reopened = {d.file.path: d.file.is_socket for d in proc.open_files()}
        assert reopened == {f.path: f.is_socket for f in image.fds}
        assert fresh.kernel.fs.lookup(sockets[0].path).is_socket


class TestPageCache:
    def test_unknown_file_is_cold(self):
        cache = PageCache()
        assert cache.warmth(VirtualFile("/f", size=4096)) == 0.0

    def test_warm_full_file(self):
        cache = PageCache()
        f = VirtualFile("/f", size=10 * 4096)
        cache.warm(f)
        assert cache.warmth(f) == 1.0

    def test_warm_fraction(self):
        cache = PageCache()
        f = VirtualFile("/f", size=10 * 4096)
        cache.warm(f, fraction=0.5)
        assert cache.warmth(f) == pytest.approx(0.5)

    def test_warm_never_cools(self):
        cache = PageCache()
        f = VirtualFile("/f", size=10 * 4096)
        cache.warm(f, fraction=0.8)
        cache.warm(f, fraction=0.2)
        assert cache.warmth(f) == pytest.approx(0.8)

    def test_warm_fraction_clamped(self):
        cache = PageCache()
        f = VirtualFile("/f", size=4 * 4096)
        cache.warm(f, fraction=5.0)
        assert cache.warmth(f) == 1.0

    def test_partial_page_counts_as_a_page(self):
        cache = PageCache()
        f = VirtualFile("/f", size=4096 + 1)
        cache.warm(f, fraction=0.5)
        assert cache.warmth(f) == pytest.approx(0.5)

    def test_unread_file_is_cold(self):
        cache = PageCache()
        assert cache.warmth(VirtualFile("/never-read", size=4096)) == 0.0

    def test_entries_are_keyed_by_path(self):
        cache = PageCache()
        cache.warm(VirtualFile("/lib.jar", size=8 * 4096))
        assert cache.warmth(VirtualFile("/lib.jar", size=8 * 4096)) == 1.0

    def test_empty_file_has_one_page_slot(self):
        cache = PageCache()
        f = VirtualFile("/empty", size=0)
        cache.warm(f)
        assert cache.warmth(f) == 1.0
