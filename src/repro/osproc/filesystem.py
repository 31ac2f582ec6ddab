"""In-simulation filesystem, file descriptors and page cache.

CRIU records every open file descriptor in its image set and re-opens
them at restore time, so the process model needs a real (if small) VFS:
files with sizes, per-process descriptor tables, and a page cache whose
warm/cold state matters — the paper's post-restore class-loading
speed-up comes from restore leaving file pages warm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional


class FileSystemError(Exception):
    """VFS-level failure (missing path, bad descriptor...)."""


@dataclass
class VirtualFile:
    """A file in the simulated VFS. Content is optional (size matters)."""

    path: str
    size: int = 0
    content: Optional[bytes] = None
    is_socket: bool = False
    is_pipe: bool = False

    def __post_init__(self) -> None:
        if self.content is not None:
            self.size = len(self.content)


@dataclass
class FileDescriptor:
    """One entry in a process's descriptor table."""

    fd: int
    file: VirtualFile
    offset: int = 0
    flags: str = "r"
    closed: bool = False


class FileSystem:
    """Flat path → file namespace shared by all simulated processes."""

    def __init__(self) -> None:
        self._files: Dict[str, VirtualFile] = {}

    def create(self, path: str, size: int = 0, content: Optional[bytes] = None,
               is_socket: bool = False, is_pipe: bool = False) -> VirtualFile:
        if path in self._files:
            raise FileSystemError(f"path already exists: {path}")
        f = VirtualFile(path=path, size=size, content=content,
                        is_socket=is_socket, is_pipe=is_pipe)
        self._files[path] = f
        return f

    def ensure(self, path: str, size: int = 0) -> VirtualFile:
        """Create the file if missing; otherwise return the existing one."""
        existing = self._files.get(path)
        if existing is not None:
            return existing
        return self.create(path, size=size)

    def lookup(self, path: str) -> VirtualFile:
        f = self._files.get(path)
        if f is None:
            raise FileSystemError(f"no such file: {path}")
        return f

    def exists(self, path: str) -> bool:
        return path in self._files

    def remove(self, path: str) -> None:
        if path not in self._files:
            raise FileSystemError(f"no such file: {path}")
        del self._files[path]

    def iter_paths(self) -> Iterator[str]:
        return iter(sorted(self._files))


@dataclass
class _CacheEntry:
    resident_pages: int = 0
    total_pages: int = 0


class PageCache:
    """Tracks which file pages are memory-resident.

    ``warmth(path)`` in [0, 1] feeds the runtime's class-loading cost:
    reading a file whose pages are warm skips the per-byte I/O cost —
    the mechanism behind the paper's PB-NOWarmup numbers.
    """

    PAGE = 4096

    def __init__(self) -> None:
        self._entries: Dict[str, _CacheEntry] = {}

    def _entry(self, file: VirtualFile) -> _CacheEntry:
        entry = self._entries.get(file.path)
        if entry is None:
            entry = _CacheEntry(total_pages=max(1, -(-file.size // self.PAGE)))
            self._entries[file.path] = entry
        return entry

    def warm(self, file: VirtualFile, fraction: float = 1.0) -> None:
        """Bring ``fraction`` of the file's pages into the cache."""
        entry = self._entry(file)
        target = int(round(entry.total_pages * max(0.0, min(1.0, fraction))))
        entry.resident_pages = max(entry.resident_pages, target)

    def evict(self, file: VirtualFile) -> None:
        entry = self._entries.get(file.path)
        if entry is not None:
            entry.resident_pages = 0

    def drop_all(self) -> None:
        """Model ``echo 3 > /proc/sys/vm/drop_caches``."""
        for entry in self._entries.values():
            entry.resident_pages = 0

    def warmth(self, file: VirtualFile) -> float:
        entry = self._entries.get(file.path)
        if entry is None or entry.total_pages == 0:
            return 0.0
        return entry.resident_pages / entry.total_pages
