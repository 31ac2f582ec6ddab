"""Container Image Repository — OpenFaaS's Function Registry (§5.1).

"push: stores the function deployable artifacts into the Function
Registry which is a Container Image Repository." A push stores an image
under its ``name:tag`` reference and a pull fetches it back.
"""

from __future__ import annotations

from typing import Dict

from repro.faas.openfaas.containers import ContainerImage


class ImageNotFound(KeyError):
    """Pull of an unknown image reference."""


class ImageRepository:
    """A name:tag → image store."""

    def __init__(self) -> None:
        self._images: Dict[str, ContainerImage] = {}

    def push(self, image: ContainerImage) -> None:
        """Store an image under its reference (replacing any older one)."""
        self._images[image.reference] = image

    def pull(self, reference: str) -> ContainerImage:
        """Fetch an image by reference."""
        image = self._images.get(reference)
        if image is None:
            raise ImageNotFound(
                f"no image {reference!r}; repository holds {sorted(self._images)}"
            )
        return image

    def contains(self, reference: str) -> bool:
        return reference in self._images

    @property
    def total_bytes(self) -> int:
        """Bytes of every stored image, its layers counted per image."""
        return sum(i.total_bytes for i in self._images.values())
