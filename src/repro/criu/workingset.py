"""REAP-style working-set tracking for snapshot restores.

Ustiugov et al. (REAP) observe that a restored function touches only a
small fraction of its snapshot's pages before producing its first
response; recording that working set on the first restore lets every
later restore eagerly map just the recorded pages and lazily fault the
rest. The tracker here implements that protocol over the simulated
memory model:

* a *recording* restore clears the soft-dirty bits after transmute and
  captures, at the first post-restore response, every page the replica
  touched (plus the stack/code/vdso floor criu always populates);
* a *prefetching* restore maps only the recorded set up front and, at
  its own first response, audits hits vs. misses — misses both charge
  a page-fault penalty and grow the record, so the set converges.

Records key on the image's sealed content digest: a rebaked (different)
image records afresh, while byte-identical snapshots share a record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Set, Tuple

from repro import obs
from repro.criu.images import CheckpointImage
from repro.osproc.kernel import Kernel
from repro.osproc.memory import VMAKind
from repro.osproc.process import Process

# Pages criu populates eagerly regardless of access history: stacks,
# executable text and the vdso (the restore trampoline runs on them).
_FLOOR_KINDS = {VMAKind.STACK, VMAKind.CODE, VMAKind.VDSO}

# Simulated penalty per prefetch-miss page fault (userfaultfd round
# trip); only charged when a prefetching restore mispredicted.
PREFETCH_MISS_FAULT_MS = 0.002

PageId = Tuple[int, int]  # (vma start address, page index)


def _image_key(image: CheckpointImage) -> str:
    return image.digest or image.image_id


@dataclass
class WorkingSetRecord:
    """The recorded first-response working set of one snapshot."""

    image_key: str
    pages: FrozenSet[PageId]
    recorded_at_ms: float
    resident_pages: int          # snapshot resident set at record time
    prefetch_restores: int = 0   # restores served from this record

    @property
    def page_count(self) -> int:
        return len(self.pages)

    @property
    def fraction(self) -> float:
        """Recorded working set as a fraction of the resident set."""
        if self.resident_pages <= 0:
            return 1.0
        return min(1.0, self.page_count / self.resident_pages)


@dataclass
class _PendingCapture:
    image_key: str
    process: Process
    record: Optional[WorkingSetRecord]  # None => recording restore


class WorkingSetTracker:
    """Per-world registry of working-set records and in-flight captures.

    Installed lazily on ``kernel.working_sets`` by the first
    WORKING_SET restore; subscribes to the runtime's post-restore
    response probe to finalize captures.
    """

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.records: Dict[str, WorkingSetRecord] = {}
        self._pending: Dict[int, _PendingCapture] = {}
        kernel.probes.on_enter("runtime.post_restore_response",
                               self._on_first_response)

    @classmethod
    def install(cls, kernel: Kernel) -> "WorkingSetTracker":
        if kernel.working_sets is None:
            kernel.working_sets = cls(kernel)
        return kernel.working_sets

    # -- restore-side API --------------------------------------------------------

    def record_for(self, image: CheckpointImage) -> Optional[WorkingSetRecord]:
        return self.records.get(_image_key(image))

    def begin_recording(self, proc: Process, image: CheckpointImage) -> None:
        """Arm a recording capture on a freshly restored process."""
        self._arm(proc, image, record=None)

    def begin_prefetch(self, proc: Process, image: CheckpointImage,
                       record: WorkingSetRecord) -> None:
        """Arm a hit/miss audit on a prefetching restore."""
        record.prefetch_restores += 1
        self._arm(proc, image, record=record)

    # -- internals ---------------------------------------------------------------

    def _arm(self, proc: Process, image: CheckpointImage,
             record: Optional[WorkingSetRecord]) -> None:
        # The restore engine touches every mapped page during
        # transmute; reset soft-dirty so the bits accumulated from here
        # on reflect what the *replica* touches, as clear_refs does.
        proc.address_space.clear_soft_dirty()
        proc.payload["ws_capture_pending"] = True
        self._pending[proc.pid] = _PendingCapture(
            image_key=_image_key(image), process=proc, record=record)

    def _touched_pages(self, proc: Process) -> Set[PageId]:
        touched: Set[PageId] = set()
        for vma in proc.address_space.vmas:
            floor = vma.kind in _FLOOR_KINDS
            start = vma.start
            for index in vma.touched_indices(floor=floor).tolist():
                touched.add((start, index))
        return touched

    def _on_first_response(self, probe_record) -> None:
        capture = self._pending.pop(probe_record.pid, None)
        if capture is None:
            return
        kernel = self.kernel
        proc = capture.process
        touched = self._touched_pages(proc)
        if capture.record is None:
            record = WorkingSetRecord(
                image_key=capture.image_key,
                pages=frozenset(touched),
                recorded_at_ms=kernel.clock.now,
                resident_pages=sum(v.resident_pages
                                   for v in proc.address_space.vmas),
            )
            self.records[capture.image_key] = record
            obs.count(kernel, "ws_record_created_total")
            obs.gauge(kernel, "ws_record_pages", float(record.page_count))
            return
        # Prefetch audit: pages touched but absent from the record were
        # demand-faulted after resume — charge them and grow the record.
        record = capture.record
        hits = len(touched & record.pages)
        misses = touched - record.pages
        obs.count(kernel, "ws_prefetch_hit_pages_total", value=float(hits))
        obs.count(kernel, "ws_prefetch_miss_pages_total",
                  value=float(len(misses)))
        if touched:
            obs.gauge(kernel, "ws_prefetch_hit_ratio",
                      hits / len(touched))
        if misses:
            fault_ms = len(misses) * PREFETCH_MISS_FAULT_MS
            kernel.clock.advance(fault_ms)
            if kernel.profile is not None:
                kernel.profile.record("restore.lazy-page-fault", fault_ms,
                                      pid=proc.pid, pages=len(misses),
                                      source="prefetch-miss")
            self.records[capture.image_key] = WorkingSetRecord(
                image_key=record.image_key,
                pages=record.pages | misses,
                recorded_at_ms=record.recorded_at_ms,
                resident_pages=record.resident_pages,
                prefetch_restores=record.prefetch_restores,
            )
