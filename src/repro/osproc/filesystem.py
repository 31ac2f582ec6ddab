"""In-simulation filesystem, file descriptors and page cache.

CRIU records every open file descriptor in its image set and re-opens
them at restore time, so the process model needs a real (if small) VFS:
files with sizes, per-process descriptor tables, and a page cache whose
warm/cold state matters — the paper's post-restore class-loading
speed-up comes from restore leaving file pages warm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


class FileSystemError(Exception):
    """VFS-level failure (missing path, bad descriptor...)."""


@dataclass
class VirtualFile:
    """A file in the simulated VFS: a path and a size, no content."""

    path: str
    size: int = 0
    is_socket: bool = False  # a runtime's listening socket; restore re-marks it


@dataclass
class FileDescriptor:
    """One entry in a process's descriptor table."""

    fd: int
    file: VirtualFile
    offset: int = 0
    flags: str = "r"


class FileSystem:
    """Flat path → file namespace shared by all simulated processes."""

    def __init__(self) -> None:
        self._files: Dict[str, VirtualFile] = {}

    def create(self, path: str, size: int = 0) -> VirtualFile:
        if path in self._files:
            raise FileSystemError(f"path already exists: {path}")
        f = VirtualFile(path=path, size=size)
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

    def warmth(self, file: VirtualFile) -> float:
        entry = self._entries.get(file.path)
        if entry is None or entry.total_pages == 0:
            return 0.0
        return entry.resident_pages / entry.total_pages
