"""Container images.

"Prebaking templates start the function runtime and run an optional
post-processing script (e.g., warm-up requests), and checkpoint the
function process into the container image" (§5.2) — so an image here
is a list of layers, one of which may be a CRIU snapshot, and an image
with a snapshot needs ``--privileged`` (or CAP_CHECKPOINT_RESTORE) to
restore it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.store import SnapshotKey


@dataclass(frozen=True)
class ImageLayer:
    """One layer of a container image."""

    name: str
    size_bytes: int
    digest: str = ""  # content digest (a snapshot layer's sealed digest)


@dataclass
class ContainerImage:
    """An OCI-style image: base + function + (optional) snapshot layer."""

    repository: str
    tag: str
    layers: List[ImageLayer] = field(default_factory=list)
    snapshot_key: Optional[SnapshotKey] = None

    @property
    def reference(self) -> str:
        return f"{self.repository}:{self.tag}"

    @property
    def total_bytes(self) -> int:
        return sum(layer.size_bytes for layer in self.layers)

    @property
    def has_snapshot(self) -> bool:
        return self.snapshot_key is not None

    @property
    def requires_privileged(self) -> bool:
        """The restore is a privileged operation (§5.2)."""
        return self.has_snapshot

