"""CRIU-style checkpoint/restore engine.

Implements the protocol described in the paper's §3.2 over the
simulated OS: freeze the target's threads, inject the parasite blob via
ptrace, walk ``/proc/<pid>/pagemap`` to dump every resident page into
an image file set, then detach; on restore, the criu process transmutes
itself into the checkpointed process by recreating namespaces, open
files and memory mappings. :mod:`repro.criu.cli` additionally drives a
*real* ``criu`` binary via subprocess when one is installed.
"""

from repro.criu.images import CheckpointImage, ImageFile, VMADescriptor, FdDescriptor
from repro.criu.checkpoint import CheckpointEngine, CheckpointError
from repro.criu.restore import RestoreEngine, RestoreError, RestoreMode
from repro.criu.cli import CriuCli, CriuUnavailableError
from repro.criu.imgdiff import ImageDiff, diff_images
from repro.criu.pagestore import (
    CHUNK_PAGES,
    LayeredImage,
    PageStore,
    layer_image,
    rebuild_vma_pages,
)
from repro.criu.shardstore import (
    DegradedRestoreReport,
    HashRing,
    ShardedSnapshotStore,
)
from repro.criu.workingset import WorkingSetRecord, WorkingSetTracker

__all__ = [
    "ImageDiff",
    "diff_images",
    "CheckpointImage",
    "ImageFile",
    "VMADescriptor",
    "FdDescriptor",
    "CheckpointEngine",
    "CheckpointError",
    "RestoreEngine",
    "RestoreError",
    "RestoreMode",
    "CriuCli",
    "CriuUnavailableError",
    "CHUNK_PAGES",
    "PageStore",
    "LayeredImage",
    "layer_image",
    "rebuild_vma_pages",
    "WorkingSetRecord",
    "WorkingSetTracker",
    "ShardedSnapshotStore",
    "DegradedRestoreReport",
    "HashRing",
]
