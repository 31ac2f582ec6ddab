"""Checkpoint image diffing.

When a new function version bakes, how different is its snapshot from
the previous one? Image diffs answer registry-engineering questions
(how much would content-addressed/delta storage save?) and debugging
ones (which mapping grew?). The diff is structural: per-VMA page
residency and content-tag changes between two images.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.criu.images import CheckpointImage
from repro.osproc.memory import PAGE_SIZE


@dataclass
class VmaDiff:
    """Change summary for one VMA label."""

    label: str
    status: str                 # "added" | "removed" | "common"
    pages_added: int = 0
    pages_removed: int = 0
    pages_retagged: int = 0
    pages_unchanged: int = 0

    @property
    def changed(self) -> bool:
        return (self.status != "common" or self.pages_added
                or self.pages_removed or self.pages_retagged)


@dataclass
class ImageDiff:
    """Full structural diff between two checkpoint images."""

    old_id: str
    new_id: str
    vmas: List[VmaDiff] = field(default_factory=list)

    @property
    def pages_added(self) -> int:
        return sum(v.pages_added for v in self.vmas)

    @property
    def pages_removed(self) -> int:
        return sum(v.pages_removed for v in self.vmas)

    @property
    def pages_retagged(self) -> int:
        return sum(v.pages_retagged for v in self.vmas)

    @property
    def pages_unchanged(self) -> int:
        return sum(v.pages_unchanged for v in self.vmas)

    @property
    def delta_bytes(self) -> int:
        """Bytes a delta encoding would ship (added + retagged pages)."""
        return (self.pages_added + self.pages_retagged) * PAGE_SIZE

    @property
    def dedup_ratio(self) -> float:
        """Fraction of the new image's pages already present unchanged."""
        total_new = self.pages_added + self.pages_retagged + self.pages_unchanged
        return self.pages_unchanged / total_new if total_new else 1.0

    def summary(self) -> str:
        changed = [v for v in self.vmas if v.changed]
        lines = [
            f"diff {self.old_id} -> {self.new_id}: "
            f"+{self.pages_added}p -{self.pages_removed}p "
            f"~{self.pages_retagged}p ={self.pages_unchanged}p "
            f"(dedup {self.dedup_ratio:.0%}, delta "
            f"{self.delta_bytes / (1024 * 1024):.1f} MiB)"
        ]
        for vma in changed:
            lines.append(
                f"  {vma.label:20s} [{vma.status}] "
                f"+{vma.pages_added} -{vma.pages_removed} ~{vma.pages_retagged}"
            )
        return "\n".join(lines)


def diff_images(old: CheckpointImage, new: CheckpointImage) -> ImageDiff:
    """Compute the structural diff from ``old`` to ``new``.

    Per-VMA page sets intersect as sorted index arrays (descriptor
    indices are ascending and unique) and retag detection compares
    interned tag ids — no per-page dict or set construction.
    """
    old_by_label = {v.label: v for v in old.vmas}
    new_by_label = {v.label: v for v in new.vmas}
    diff = ImageDiff(old_id=old.image_id, new_id=new.image_id)

    for label in sorted(set(old_by_label) | set(new_by_label)):
        old_vma = old_by_label.get(label)
        new_vma = new_by_label.get(label)
        if old_vma is None:
            diff.vmas.append(VmaDiff(
                label=label, status="added",
                pages_added=new_vma.resident_pages,
            ))
            continue
        if new_vma is None:
            diff.vmas.append(VmaDiff(
                label=label, status="removed",
                pages_removed=old_vma.resident_pages,
            ))
            continue
        old_idx, old_ids = old_vma.resident_indices, old_vma.tag_ids
        new_idx, new_ids = new_vma.resident_indices, new_vma.tag_ids
        common, old_pos, new_pos = np.intersect1d(
            old_idx, new_idx, assume_unique=True, return_indices=True)
        retagged = int((old_ids[old_pos] != new_ids[new_pos]).sum())
        diff.vmas.append(VmaDiff(
            label=label, status="common",
            pages_added=len(new_idx) - len(common),
            pages_removed=len(old_idx) - len(common),
            pages_retagged=retagged,
            pages_unchanged=len(common) - retagged,
        ))
    return diff
