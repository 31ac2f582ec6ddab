"""Snapshot persistence and capacity management.

The paper's §7 asks how checkpoint/restore behaves "as a service",
including "even bigger function code sizes and concurrent snapshots" —
which makes the snapshot registry's footprint a real concern. This
module adds:

* :class:`SnapshotArchive` — serialized snapshots stored through a
  pluggable blob backend (the simulated VFS, or a real directory on
  the host);
* :class:`EvictingSnapshotStore` — a capacity-bounded store that spills
  least-recently-used snapshots to the archive and faults them back in
  transparently on the next restore.
"""

from __future__ import annotations

import os
import pathlib
from collections import OrderedDict
from typing import List, Optional, Protocol

from repro.core.store import SnapshotKey, SnapshotNotFound, SnapshotStore
from repro.criu.images import CheckpointImage
from repro.criu.serialize import deserialize_image, serialize_image
from repro.osproc.filesystem import FileSystem


class BlobBackend(Protocol):
    """Where serialized snapshots live."""

    def write(self, name: str, blob: bytes) -> None: ...
    def read(self, name: str) -> bytes: ...
    def delete(self, name: str) -> None: ...
    def exists(self, name: str) -> bool: ...
    def names(self) -> List[str]: ...


class VfsBackend:
    """Blob storage inside the simulated VFS."""

    def __init__(self, fs: FileSystem, root: str = "/var/lib/prebake") -> None:
        self.fs = fs
        self.root = root.rstrip("/")

    def _path(self, name: str) -> str:
        return f"{self.root}/{name}.img"

    def write(self, name: str, blob: bytes) -> None:
        path = self._path(name)
        if self.fs.exists(path):
            self.fs.remove(path)
        self.fs.create(path, content=blob)

    def read(self, name: str) -> bytes:
        file = self.fs.lookup(self._path(name))
        if file.content is None:
            raise SnapshotNotFound(f"archive entry {name!r} has no content")
        return file.content

    def delete(self, name: str) -> None:
        self.fs.remove(self._path(name))

    def exists(self, name: str) -> bool:
        return self.fs.exists(self._path(name))

    def names(self) -> List[str]:
        prefix = f"{self.root}/"
        return [p[len(prefix):-4] for p in self.fs.iter_paths()
                if p.startswith(prefix) and p.endswith(".img")]


class DirBackend:
    """Blob storage in a real directory on the host."""

    def __init__(self, root: str) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, name: str) -> pathlib.Path:
        return self.root / f"{name}.img"

    def write(self, name: str, blob: bytes) -> None:
        self._path(name).write_bytes(blob)

    def read(self, name: str) -> bytes:
        path = self._path(name)
        if not path.exists():
            raise SnapshotNotFound(f"no archived snapshot {name!r}")
        return path.read_bytes()

    def delete(self, name: str) -> None:
        os.unlink(self._path(name))

    def exists(self, name: str) -> bool:
        return self._path(name).exists()

    def names(self) -> List[str]:
        return sorted(p.stem for p in self.root.glob("*.img"))


def _archive_name(key: SnapshotKey) -> str:
    return f"{key.function}--v{key.version}--{key.runtime_kind}--{key.policy}"


class SnapshotArchive:
    """Serialized snapshot storage keyed by :class:`SnapshotKey`."""

    def __init__(self, backend: BlobBackend) -> None:
        self.backend = backend

    def save(self, key: SnapshotKey, image: CheckpointImage) -> int:
        """Serialize and store; returns the blob size in bytes."""
        blob = serialize_image(image)
        self.backend.write(_archive_name(key), blob)
        return len(blob)

    def load(self, key: SnapshotKey) -> CheckpointImage:
        return deserialize_image(self.backend.read(_archive_name(key)))

    def delete(self, key: SnapshotKey) -> None:
        self.backend.delete(_archive_name(key))

    def contains(self, key: SnapshotKey) -> bool:
        return self.backend.exists(_archive_name(key))

    def __len__(self) -> int:
        return len(self.backend.names())


class EvictingSnapshotStore(SnapshotStore):
    """A snapshot store bounded by in-memory capacity.

    When adding a snapshot would exceed ``capacity_mib``, the least
    recently *used* (stored or restored) snapshots spill to the archive;
    a later ``get`` faults them back in (and may evict others in turn).
    """

    def __init__(self, capacity_mib: float,
                 archive: Optional[SnapshotArchive] = None) -> None:
        super().__init__()
        if capacity_mib <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_mib}")
        self.capacity_mib = capacity_mib
        self.archive = archive
        self._lru: "OrderedDict[SnapshotKey, None]" = OrderedDict()
        self.evictions = 0
        self.faults = 0

    # -- internals -------------------------------------------------------------

    def _touch(self, key: SnapshotKey) -> None:
        self._lru.pop(key, None)
        self._lru[key] = None

    def _evict_until_fits(self, incoming_mib: float, protect: SnapshotKey) -> None:
        while self._lru and self.total_mib + incoming_mib > self.capacity_mib:
            victim = next((k for k in self._lru if k != protect), None)
            if victim is None:
                break
            image = self.peek(victim)
            if self.archive is not None and image is not None:
                self.archive.save(victim, image)
            super().delete(victim)
            del self._lru[victim]
            self.evictions += 1

    # -- overridden API ------------------------------------------------------------

    def put(self, key: SnapshotKey, image: CheckpointImage, now_ms: float = 0.0) -> None:
        if image.total_mib > self.capacity_mib:
            raise ValueError(
                f"snapshot {key} ({image.total_mib:.1f} MiB) exceeds the "
                f"store capacity ({self.capacity_mib:.1f} MiB)"
            )
        self._evict_until_fits(image.total_mib, protect=key)
        super().put(key, image, now_ms=now_ms)
        self._touch(key)

    def get(self, key: SnapshotKey) -> CheckpointImage:
        if not super().contains(key):
            if self.archive is None or not self.archive.contains(key):
                raise SnapshotNotFound(str(key))
            image = self.archive.load(key)
            self.faults += 1
            self.put(key, image)
        self._touch(key)
        return super().get(key)

    def contains(self, key: SnapshotKey) -> bool:
        if super().contains(key):
            return True
        return self.archive is not None and self.archive.contains(key)

    def delete(self, key: SnapshotKey) -> None:
        if super().contains(key):
            super().delete(key)
            self._lru.pop(key, None)
        if self.archive is not None and self.archive.contains(key):
            self.archive.delete(key)
