"""Snapshot store: the registry function replicas restore from.

"The same snapshot can be used to restore different Function Replicas
because all of them have the same state at the beginning of the
execution" (§3.1). The store keys snapshots by (function, runtime,
policy, version) and tracks restore counts and byte usage so platform
operators can reason about registry growth.

Storage is content-addressed: every stored image is decomposed into
layered chunks in a shared :class:`~repro.criu.pagestore.PageStore`,
so the registry's *physical* footprint grows sublinearly in function
count when functions share a runtime base — ``logical_bytes`` is what
monolithic storage would hold, ``physical_bytes`` what the chunk store
actually holds, and ``dedup_ratio`` their quotient. The chunk payloads
double as parity data: :meth:`repair` compares every window of an
active image with its chunks and rewrites corrupted pages from the
store instead of forcing a full rebake; the caller then re-checks the
image's one sealed digest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.criu.images import CheckpointImage, build_image_files
from repro.criu.pagestore import (
    LayeredImage,
    PageStore,
    layer_image,
    rebuild_vma_pages,
)


class SnapshotNotFound(KeyError):
    """No snapshot stored under the requested key."""


@dataclass(frozen=True, order=True)
class SnapshotKey:
    """Identity of one baked snapshot."""

    function: str
    runtime_kind: str
    policy: str
    version: int = 1

    def __str__(self) -> str:
        return f"{self.function}@v{self.version}/{self.runtime_kind}/{self.policy}"


@dataclass
class StoredSnapshot:
    key: SnapshotKey
    image: CheckpointImage
    stored_at_ms: float
    restore_count: int = 0


class SnapshotStore:
    """In-memory snapshot registry with content-addressed accounting."""

    def __init__(self) -> None:
        self._snapshots: Dict[SnapshotKey, StoredSnapshot] = {}
        self._quarantined: List[StoredSnapshot] = []
        self.pages = PageStore()
        self._layered: Dict[SnapshotKey, LayeredImage] = {}

    def put(self, key: SnapshotKey, image: CheckpointImage, now_ms: float = 0.0) -> None:
        """Store (or replace — new function version) a snapshot."""
        image.validate()
        self._release_layers(key)
        self._snapshots[key] = StoredSnapshot(key=key, image=image, stored_at_ms=now_ms)
        self._layered[key] = layer_image(image, self.pages,
                                         base=self._delta_base(key, image))

    def get(self, key: SnapshotKey) -> CheckpointImage:
        entry = self._snapshots.get(key)
        if entry is None:
            raise SnapshotNotFound(
                f"no snapshot for {key}; stored: {[str(k) for k in sorted(self._snapshots)]}"
            )
        entry.restore_count += 1
        return entry.image

    def peek(self, key: SnapshotKey) -> Optional[CheckpointImage]:
        entry = self._snapshots.get(key)
        return entry.image if entry else None

    def contains(self, key: SnapshotKey) -> bool:
        return key in self._snapshots

    def quarantine(self, key: SnapshotKey) -> bool:
        """Pull a (corrupted) snapshot out of circulation.

        The entry is kept on a quarantine list for forensics rather
        than deleted (its chunk references are released — quarantined
        bytes should not count as registry content); returns whether
        anything was stored under the key. Missing keys are tolerated —
        two replicas may race to quarantine the same poisoned image.
        """
        entry = self._snapshots.pop(key, None)
        if entry is None:
            return False
        self._release_layers(key)
        self._quarantined.append(entry)
        return True

    def restore_count(self, key: SnapshotKey) -> int:
        entry = self._snapshots.get(key)
        return entry.restore_count if entry else 0

    def keys(self) -> List[SnapshotKey]:
        return sorted(self._snapshots)

    @property
    def total_bytes(self) -> int:
        return sum(e.image.total_bytes for e in self._snapshots.values())

    @property
    def total_mib(self) -> float:
        return self.total_bytes / (1024 * 1024)

    def __len__(self) -> int:
        return len(self._snapshots)

    # -- content-addressed layering ----------------------------------------------

    def layered(self, key: SnapshotKey) -> Optional[LayeredImage]:
        """The layer manifest of an active snapshot (None if absent)."""
        return self._layered.get(key)

    @property
    def logical_bytes(self) -> int:
        """Page bytes as monolithic storage would hold them."""
        return sum(e.image.pages_bytes for e in self._snapshots.values())

    @property
    def physical_bytes(self) -> int:
        """Distinct chunk bytes actually held by the page store."""
        return self.pages.physical_bytes

    @property
    def dedup_ratio(self) -> float:
        """Cross-snapshot dedup factor (> 1 whenever content is shared)."""
        physical = self.physical_bytes
        return self.logical_bytes / physical if physical else 1.0

    def materialize(self, key: SnapshotKey) -> CheckpointImage:
        """Rebuild the stored image's page content purely from chunks.

        What a registry pull does: descriptors come from the manifest,
        page tags from the content-addressed chunks. The result is a
        fresh image object carrying the original sealed digest, so any
        chunk-store corruption would fail integrity verification.
        """
        entry = self._snapshots.get(key)
        layered = self._layered.get(key)
        if entry is None or layered is None:
            raise SnapshotNotFound(str(key))
        source = entry.image
        rebuilt_pages = rebuild_vma_pages(source, layered, self.pages)
        vmas = [vma.with_pages(*rebuilt_pages[i])
                for i, vma in enumerate(source.vmas)]
        image = CheckpointImage(
            image_id=source.image_id,
            pid=source.pid,
            comm=source.comm,
            argv=list(source.argv),
            created_at_ms=source.created_at_ms,
            namespace_ids=dict(source.namespace_ids),
            vmas=vmas,
            fds=list(source.fds),
            runtime_state=source.runtime_state,
            warm=source.warm,
            digest=source.digest,
        )
        build_image_files(image)
        return image

    def repair(self, key: SnapshotKey) -> int:
        """Rewrite corrupted pages of an active image from the chunk store.

        The layer manifest was built from the image as sealed at bake
        time, so the chunk payloads are known-good parity data: any
        chunk window whose current page content drifted from the store
        is rewritten in place. Returns the number of chunks repaired —
        0 means nothing differed (the corruption lies outside the page
        data and only quarantine + rebake can recover). Every window of
        the manifest is compared, so no record of where the damage
        landed is needed; the caller re-verifies the sealed digest.
        """
        entry = self._snapshots.get(key)
        layered = self._layered.get(key)
        if entry is None or layered is None:
            return 0
        image = entry.image
        current: Dict[int, Dict[int, str]] = {
            i: dict(zip(vma.resident_indices.tolist(), vma.content_tags))
            for i, vma in enumerate(image.vmas)
        }
        repaired_chunks = 0
        for ref in layered.chunk_refs:
            chunk = self.pages.chunk(ref.chunk_id)
            pages = current[ref.vma_index]
            if any(pages.get(ref.window_start + rel) != tag
                   for rel, tag in chunk.pairs):
                repaired_chunks += 1
        if repaired_chunks == 0:
            return 0
        rebuilt_pages = rebuild_vma_pages(image, layered, self.pages)
        for i, vma in enumerate(image.vmas):
            rebuilt = vma.with_pages(*rebuilt_pages[i])
            if rebuilt != vma:
                image.vmas[i] = rebuilt
        image.generation += 1
        return repaired_chunks

    # -- internals ---------------------------------------------------------------

    def _release_layers(self, key: SnapshotKey) -> None:
        layered = self._layered.pop(key, None)
        if layered is None:
            return
        for cid in layered.chunk_ids:
            self.pages.release(cid)

    def _delta_base(self, key: SnapshotKey,
                    image: CheckpointImage) -> Optional[CheckpointImage]:
        """The ready-state sibling a warm image's delta layer diffs against."""
        if not image.warm:
            return None
        for other_key, entry in self._snapshots.items():
            if (other_key != key
                    and other_key.function == key.function
                    and other_key.runtime_kind == key.runtime_kind
                    and not entry.image.warm):
                return entry.image
        return None
