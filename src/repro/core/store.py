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
double as parity data: :meth:`repair` rewrites corrupted pages of an
active image from the store instead of forcing a full rebake.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.criu.images import CheckpointImage, build_image_files
from repro.criu.merkle import ImageMerkle
from repro.criu.pagestore import (
    LayeredImage,
    PageStore,
    chunk_id as compute_chunk_id,
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


@dataclass
class RepairStats:
    """Accounting of one :meth:`SnapshotStore.repair` run.

    ``targeted`` is True when the Merkle-guided path ran (only the
    damaged subtrees were checked and re-verified); ``verified_ok``
    reports the incremental verification outcome — sealed Merkle root
    plus meta digest both matching — or ``None`` when the full-scan
    fallback ran and the caller must re-verify the whole image.
    ``hash_ops`` counts the Merkle combines spent, the currency the
    sublinear-repair property is asserted in.
    """

    repaired_chunks: int = 0
    checked_chunks: int = 0
    hash_ops: int = 0
    targeted: bool = False
    verified_ok: Optional[bool] = None


class SnapshotStore:
    """In-memory snapshot registry with content-addressed accounting."""

    def __init__(self, page_store: Optional[PageStore] = None) -> None:
        self._snapshots: Dict[SnapshotKey, StoredSnapshot] = {}
        self._quarantined: List[StoredSnapshot] = []
        self.pages = page_store if page_store is not None else PageStore()
        self._layered: Dict[SnapshotKey, LayeredImage] = {}
        self._merkle: Dict[SnapshotKey, ImageMerkle] = {}
        self.last_repair_stats = RepairStats()

    def put(self, key: SnapshotKey, image: CheckpointImage, now_ms: float = 0.0) -> None:
        """Store (or replace — new function version) a snapshot."""
        image.validate()
        self._release_layers(key)
        self._snapshots[key] = StoredSnapshot(key=key, image=image, stored_at_ms=now_ms)
        layered = layer_image(image, self.pages,
                              base=self._delta_base(key, image))
        self._layered[key] = layered
        # Seal the layer manifest in a Merkle tree at the moment the
        # registry trusts the content; repairs re-verify against it
        # without re-hashing undamaged chunks.
        self._merkle[key] = ImageMerkle.from_layered(layered)

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

    def delete(self, key: SnapshotKey) -> None:
        if key not in self._snapshots:
            raise SnapshotNotFound(str(key))
        self._release_layers(key)
        del self._snapshots[key]

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

    @property
    def quarantined_count(self) -> int:
        return len(self._quarantined)

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

    def merkle(self, key: SnapshotKey) -> Optional[ImageMerkle]:
        """The sealed Merkle trees of an active snapshot (None if absent)."""
        return self._merkle.get(key)

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
        vmas = [
            replace(vma,
                    resident_indices=rebuilt_pages[i][0],
                    content_tags=rebuilt_pages[i][1])
            for i, vma in enumerate(source.vmas)
        ]
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
            parent_image_id=source.parent_image_id,
            warm=source.warm,
            digest=source.digest,
            meta_digest=source.meta_digest,
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
        data and only quarantine + rebake can recover).

        When the image carries damage hints (``dirty_pages`` from
        fault injection) and a sealed Merkle tree exists, only the
        damaged chunk windows are checked and re-verified — repaired
        leaf digests fold back into the tree along their ancestor
        paths and the new root is compared against the sealed one, so
        the cost is O(damage × tree depth) hash operations instead of
        a full-image re-hash. :attr:`last_repair_stats` records which
        path ran and whether incremental verification already proved
        the repair (callers can then skip the flat digest pass).
        """
        entry = self._snapshots.get(key)
        layered = self._layered.get(key)
        if entry is None or layered is None:
            self.last_repair_stats = RepairStats()
            return 0
        image = entry.image
        merkle = self._merkle.get(key)
        if merkle is not None and image.dirty_pages and not image.dirty_meta:
            stats = self._repair_targeted(image, layered, merkle)
            if stats is not None:
                self.last_repair_stats = stats
                return stats.repaired_chunks
        repaired_chunks = self._repair_full_scan(image, layered)
        self.last_repair_stats = RepairStats(
            repaired_chunks=repaired_chunks,
            checked_chunks=len(layered.chunk_refs),
            targeted=False,
        )
        return repaired_chunks

    def _repair_targeted(self, image: CheckpointImage, layered: LayeredImage,
                         merkle: ImageMerkle) -> Optional[RepairStats]:
        """Merkle-guided repair of just the damaged chunk windows.

        Returns None when any damage hint falls outside the sealed
        manifest (e.g. pages resident only after the dump) — the
        caller falls back to the full scan.
        """
        chunk_pages = self.pages.chunk_pages
        damaged: Dict[Tuple[int, int], object] = {}
        for vma_index, page_index in sorted(image.dirty_pages):
            window_start = (page_index // chunk_pages) * chunk_pages
            ref = layered.ref_at(vma_index, window_start)
            if ref is None:
                return None
            damaged[(vma_index, window_start)] = ref
        repaired_chunks = 0
        hash_ops = 0
        for (vma_index, window_start), ref in damaged.items():
            chunk = self.pages.chunk(ref.chunk_id)
            vma = image.vmas[vma_index]
            pages = dict(zip(vma.resident_indices.tolist(), vma.content_tags))
            if all(pages.get(window_start + rel) == tag
                   for rel, tag in chunk.pairs):
                continue
            repaired_chunks += 1
            for rel, tag in chunk.pairs:
                pages[window_start + rel] = tag
            ordered = sorted(pages.items())
            image.vmas[vma_index] = replace(
                vma,
                resident_indices=tuple(i for i, _ in ordered),
                content_tags=tuple(t for _, t in ordered),
            )
            # Fold the repaired window back into the tree: the digest
            # is recomputed from the *rewritten image pages* (not the
            # store chunk), so a botched rewrite cannot verify.
            window_pairs = [
                (i - window_start, t) for i, t in ordered
                if window_start <= i < window_start + chunk_pages
            ]
            digest = compute_chunk_id(vma.kind, vma.prot, window_pairs)
            hash_ops += merkle.reverify_subtree(vma_index, window_start, digest)
        if repaired_chunks == 0:
            return RepairStats(checked_chunks=len(damaged), targeted=True)
        image.generation += 1
        verified_ok = merkle.root_matches_seal() and (
            image.meta_digest is None
            or image.compute_meta_digest() == image.meta_digest)
        if verified_ok:
            image.dirty_pages.clear()
        return RepairStats(
            repaired_chunks=repaired_chunks,
            checked_chunks=len(damaged),
            hash_ops=hash_ops,
            targeted=True,
            verified_ok=verified_ok,
        )

    def _repair_full_scan(self, image: CheckpointImage,
                          layered: LayeredImage) -> int:
        """Legacy manifest-wide repair (no damage hints available)."""
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
            indices, tags = rebuilt_pages[i]
            if (tuple(vma.resident_indices.tolist()),
                    tuple(vma.content_tags)) != (indices, tags):
                image.vmas[i] = replace(vma, resident_indices=indices,
                                        content_tags=tags)
        image.generation += 1
        image.dirty_pages.clear()
        return repaired_chunks

    # -- internals ---------------------------------------------------------------

    def _release_layers(self, key: SnapshotKey) -> None:
        self._merkle.pop(key, None)
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
