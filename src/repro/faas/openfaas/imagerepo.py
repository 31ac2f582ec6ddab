"""Container Image Repository — OpenFaaS's Function Registry (§5.1).

"push: stores the function deployable artifacts into the Function
Registry which is a Container Image Repository."

Like a real OCI registry, blobs are content-addressed: a push uploads
only the layers whose digest the registry does not already hold, so
``physical_bytes`` (distinct blobs) grows sublinearly in image count
when images share layers — the base and criu-deps layers dedup across
every function, snapshot layers dedup only when byte-identical.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.faas.openfaas.containers import ContainerImage, ImageLayer


class ImageNotFound(KeyError):
    """Pull of an unknown image reference."""


class ImageRepository:
    """A name:tag → image store with content-addressed blob accounting."""

    def __init__(self) -> None:
        self._images: Dict[str, ContainerImage] = {}
        self._pulls: Dict[str, int] = {}
        self._blobs: Dict[str, ImageLayer] = {}   # digest -> one stored copy
        self.pushed_bytes = 0      # bytes actually uploaded by pushes
        self.deduped_bytes = 0     # bytes skipped because the blob existed

    def push(self, image: ContainerImage) -> int:
        """Store an image; returns the bytes actually uploaded.

        Layers whose blob digest is already present are not re-sent —
        the registry-side "layer already exists" fast path.
        """
        uploaded = 0
        for layer in image.layers:
            digest = layer.blob_digest
            if digest in self._blobs:
                self.deduped_bytes += layer.size_bytes
            else:
                self._blobs[digest] = layer
                uploaded += layer.size_bytes
        self.pushed_bytes += uploaded
        self._images[image.reference] = image
        return uploaded

    def pull(self, reference: str,
             node_cache: Optional[Set[str]] = None) -> ContainerImage:
        """Fetch an image; with ``node_cache`` (a set of blob digests
        the puller already holds) only missing layers count as
        transferred, and the cache is updated in place."""
        image = self._images.get(reference)
        if image is None:
            raise ImageNotFound(
                f"no image {reference!r}; repository holds {sorted(self._images)}"
            )
        self._pulls[reference] = self._pulls.get(reference, 0) + 1
        if node_cache is not None:
            node_cache.update(l.blob_digest for l in image.layers)
        return image

    def contains(self, reference: str) -> bool:
        return reference in self._images

    def pull_count(self, reference: str) -> int:
        return self._pulls.get(reference, 0)

    def references(self) -> List[str]:
        return sorted(self._images)

    @property
    def total_bytes(self) -> int:
        """Logical bytes: every image's layers counted per image."""
        return sum(i.total_bytes for i in self._images.values())

    @property
    def physical_bytes(self) -> int:
        """Distinct blob bytes actually stored."""
        return sum(l.size_bytes for l in self._blobs.values())

    @property
    def dedup_ratio(self) -> float:
        physical = self.physical_bytes
        return self.total_bytes / physical if physical else 1.0
