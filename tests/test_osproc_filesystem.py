"""Tests for the simulated VFS and page cache."""

import pytest

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

    def test_socket_and_pipe_flags(self):
        fs = FileSystem()
        sock = fs.create("/run/sock", is_socket=True)
        pipe = fs.create("/run/pipe", is_pipe=True)
        plain = fs.create("/run/file")
        assert (sock.is_socket, sock.is_pipe) == (True, False)
        assert (pipe.is_socket, pipe.is_pipe) == (False, True)
        assert (plain.is_socket, plain.is_pipe) == (False, False)


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

    def test_evict(self):
        cache = PageCache()
        f = VirtualFile("/f", size=4096)
        cache.warm(f)
        cache.evict(f)
        assert cache.warmth(f) == 0.0

    def test_drop_all(self):
        cache = PageCache()
        files = [VirtualFile(f"/f{i}", size=4096) for i in range(3)]
        for f in files:
            cache.warm(f)
        cache.drop_all()
        assert all(cache.warmth(f) == 0.0 for f in files)

    def test_partial_page_counts_as_a_page(self):
        cache = PageCache()
        f = VirtualFile("/f", size=4096 + 1)
        cache.warm(f, fraction=0.5)
        assert cache.warmth(f) == pytest.approx(0.5)

    def test_evict_unknown_file_is_noop(self):
        cache = PageCache()
        f = VirtualFile("/never-read", size=4096)
        cache.evict(f)
        assert cache.warmth(f) == 0.0

    def test_entries_are_keyed_by_path(self):
        cache = PageCache()
        cache.warm(VirtualFile("/lib.jar", size=8 * 4096))
        assert cache.warmth(VirtualFile("/lib.jar", size=8 * 4096)) == 1.0

    def test_empty_file_has_one_page_slot(self):
        cache = PageCache()
        f = VirtualFile("/empty", size=0)
        cache.warm(f)
        assert cache.warmth(f) == 1.0
