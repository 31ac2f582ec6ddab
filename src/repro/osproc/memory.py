"""Virtual-memory model: pages, VMAs, address spaces, pagemap.

This is the data CRIU walks during a dump: the checkpoint engine reads
``/proc/<pid>/pagemap`` to find resident pages and copies them out of
the target address space. The model keeps enough structure for that
protocol to be exercised faithfully (per-VMA kind/protection, resident
page sets, soft-dirty bits, file-backed vs anonymous mappings)
without storing real page contents — a page stores a small content tag
so snapshot/restore round-trips are verifiable.

Data layout (DESIGN.md §15): the default :class:`VMA` keeps residency
as an array-of-struct pagemap — parallel numpy arrays for the
resident and soft-dirty bits plus an ``int32`` array of content-tag
ids interned in the process-wide :data:`TAGS` table — so the hot
operations (``touch_range``, dump walks, restore transmute, soft-dirty
clears) are single vectorized passes instead of a Python loop
allocating a ``Page`` object per page. The original dict-of-``Page``
implementation survives as :class:`SlowVMA`, selected with
``REPRO_SLOW_PAGEMAP=1`` (or :func:`set_slow_pagemap` at runtime) as
the reference the equivalence suite and the kernel-bench speedup gate
measure against.
"""

from __future__ import annotations

import functools
import hashlib
import os
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

PAGE_SIZE = 4096
PAGES_PER_MIB = (1024 * 1024) // PAGE_SIZE


@functools.lru_cache(maxsize=262144)
def page_content_key(content_tag: str) -> str:
    """Stable content identity of one page.

    The model stores a small *content tag* instead of real page bytes;
    hashing the tag gives the content-addressed identity a dedupling
    page store keys on — two pages with equal tags are "the same page"
    for storage purposes, exactly as equal 4 KiB blocks would be.

    Memoized: the tag string *is* the page identity, and chunking the
    same snapshot layers re-hashes the same tags on every bake/restore
    — profiling the restore sweep put this at the top of the flat
    profile. The cache is bounded so long multi-world benches cannot
    grow it without limit.
    """
    return hashlib.sha256(content_tag.encode("utf-8")).hexdigest()[:16]


class MemoryError_(Exception):
    """Address-space manipulation error (name avoids builtin clash)."""


class _TagTable:
    """Process-wide interning table for page content tags.

    Tags repeat enormously (every page of a populated mapping carries
    the same tag), so the pagemap stores 4-byte ids instead of string
    references and the content key of each distinct tag is computed
    exactly once. Interning is append-only; id 0 is always the empty
    tag, so freshly zeroed pagemap arrays start out correct.
    """

    __slots__ = ("_ids", "_tags", "_keys")

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {"": 0}
        self._tags: List[str] = [""]
        self._keys: List[str] = [page_content_key("")]

    def intern(self, tag: str) -> int:
        tid = self._ids.get(tag)
        if tid is None:
            tid = len(self._tags)
            self._ids[tag] = tid
            self._tags.append(tag)
            self._keys.append(page_content_key(tag))
        return tid

    def intern_many(self, tags: Sequence[str]) -> np.ndarray:
        """Intern a tag sequence; returns their ids as an int32 array.

        Distinct tags are interned first, in order of first appearance
        (so ids are what interning one tag at a time would give); the
        per-page lookups then run as one ``map`` in C.
        """
        ids = self._ids
        for tag in dict.fromkeys(tags):
            if tag not in ids:
                self.intern(tag)
        return np.fromiter(map(ids.__getitem__, tags),
                           dtype=np.int32, count=len(tags))

    def tag(self, tid: int) -> str:
        return self._tags[tid]

    def tags_of(self, ids: np.ndarray) -> List[str]:
        tags = self._tags
        return [tags[i] for i in ids.tolist()]

    def keys_of(self, ids: np.ndarray) -> List[str]:
        keys = self._keys
        return [keys[i] for i in ids.tolist()]

    def __len__(self) -> int:
        return len(self._tags)


TAGS = _TagTable()


class VMAKind(Enum):
    """What a mapping backs — drives dump/restore behaviour."""

    ANON = "anon"              # heap, malloc arenas
    FILE = "file"              # mmap'ed files (class files, shared libs)
    STACK = "stack"
    CODE = "code"              # executable text (incl. JIT code cache)
    METASPACE = "metaspace"    # class metadata (JVM)
    VDSO = "vdso"
    PARASITE = "parasite"      # CRIU-injected blob


@dataclass
class Page:
    """A resident 4 KiB page of the reference backend (its index is
    its key in the VMA's page map)."""

    content_tag: str = ""      # opaque identity used to verify round-trips
    soft_dirty: bool = False


class _VMABase:
    """Geometry, validation and derived properties shared by both backends."""

    # The backends' own ``__slots__`` drop the per-mapping ``__dict__``
    # only if every base declares slots too; weak references stay.
    __slots__ = ("__weakref__",)

    start: int
    length: int
    kind: VMAKind
    prot: str
    file_path: Optional[str]
    file_offset: int
    label: str

    def _init_common(
        self,
        start: int,
        length: int,
        kind: VMAKind,
        prot: str,
        file_path: Optional[str],
        file_offset: int,
        label: str,
    ) -> None:
        if length <= 0 or length % PAGE_SIZE:
            raise MemoryError_(f"VMA length must be a positive page multiple, got {length}")
        if start % PAGE_SIZE:
            raise MemoryError_(f"VMA start must be page aligned, got {hex(start)}")
        if kind is VMAKind.FILE and not file_path:
            raise MemoryError_("file-backed VMA requires file_path")
        self.start = start
        self.length = length
        self.kind = kind
        self.prot = prot
        self.file_path = file_path
        self.file_offset = file_offset
        self.label = label

    @property
    def end(self) -> int:
        return self.start + self.length

    @property
    def page_count(self) -> int:
        return self.length // PAGE_SIZE

    @property
    def resident_bytes(self) -> int:
        return self.resident_pages * PAGE_SIZE

    resident_pages: int  # both backends provide an O(1) implementation

    def overlaps(self, other: "_VMABase") -> bool:
        return self.start < other.end and other.start < self.end

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}(start={hex(self.start)}, "
                f"length={self.length}, kind={self.kind.value}, "
                f"label={self.label!r}, rss={self.resident_pages}p)")


class VMA(_VMABase):
    """A contiguous virtual memory area (vectorized pagemap backend).

    Residency lives in parallel numpy arrays indexed by page number;
    content tags are interned ids into :data:`TAGS`. All the bulk
    operations (:meth:`touch_range`, :meth:`dump_pages`,
    :meth:`populate_pages`, :meth:`clear_soft_dirty`) are single
    vectorized passes.
    """

    __slots__ = ("start", "length", "kind", "prot", "file_path",
                 "file_offset", "label", "_resident", "_soft",
                 "_tag_ids", "_resident_count")

    def __init__(
        self,
        start: int,
        length: int,
        kind: VMAKind,
        prot: str,
        file_path: Optional[str],
        file_offset: int,
        label: str,
    ) -> None:
        self._init_common(start, length, kind, prot, file_path, file_offset, label)
        n = length // PAGE_SIZE
        self._resident = np.zeros(n, dtype=bool)
        self._soft = np.zeros(n, dtype=bool)
        self._tag_ids = np.zeros(n, dtype=np.int32)
        self._resident_count = 0

    # -- residency -----------------------------------------------------------

    @property
    def resident_pages(self) -> int:
        return self._resident_count

    def touch_range(self, first: int, count: int, content_tag: str = "") -> None:
        """Fault ``count`` pages starting at ``first`` in one pass."""
        if count <= 0:
            return
        if first < 0 or first + count > self.page_count:
            raise MemoryError_(
                f"page range [{first},{first + count}) out of range "
                f"for VMA of {self.page_count} pages"
            )
        window = slice(first, first + count)
        resident = self._resident[window]
        newly = count - int(resident.sum())
        if content_tag:
            self._tag_ids[window] = TAGS.intern(content_tag)
        # Empty tag: new pages keep tag id 0 (already zeroed), existing
        # pages keep their tag — nothing to write either way.
        self._resident[window] = True
        self._soft[window] = True
        self._resident_count += newly

    def populate_pages(self, indices: Sequence[int], tag_ids: np.ndarray) -> None:
        """Bulk-equivalent of ``touch_range(i, 1, TAGS.tag(t))`` per (index, tag id).

        ``indices`` must be unique (descriptor order from a dump is);
        ``tag_ids`` are :data:`TAGS` ids (``TAGS.intern_many(tags)``).
        The restore transmute path uses this to rebuild a mapping's
        resident set in one vectorized pass from the image descriptor's
        cached arrays.
        """
        count = len(indices)
        if count == 0:
            return
        idx = np.asarray(indices, dtype=np.int64)
        if int(idx.min()) < 0 or int(idx.max()) >= self.page_count:
            raise MemoryError_(
                f"page index out of range for VMA of {self.page_count} pages"
            )
        ids = np.asarray(tag_ids, dtype=np.int32)
        was_resident = self._resident[idx]
        self._resident[idx] = True
        self._resident_count += count - int(was_resident.sum())
        # A non-empty tag always lands; an empty tag only initializes
        # newly resident pages (which hold id 0 already) — matching the
        # per-page touch semantics exactly.
        overwrite = ~was_resident | (ids != 0)
        if overwrite.all():
            self._tag_ids[idx] = ids
        else:
            self._tag_ids[idx[overwrite]] = ids[overwrite]
        self._soft[idx] = True

    def restore_pages(self, runs: np.ndarray) -> None:
        """:meth:`populate_pages` on a fresh mapping.

        The restore transmute's write: the mapping has no resident page
        yet, and ``runs`` are a dump's :func:`page_runs` (disjoint), so
        each run's resident, tag and soft-dirty bits are written as one
        slice, with no residency read-back or overwrite mask.
        """
        runs = runs.tolist()
        _check_fresh_restore(self, runs)
        resident, tag_ids, soft = self._resident, self._tag_ids, self._soft
        for first, count, tid in runs:
            pages = slice(first, first + count)
            resident[pages] = True
            tag_ids[pages] = tid
            soft[pages] = True
        self._resident_count = sum(count for _, count, _ in runs)

    # -- bulk views ----------------------------------------------------------

    def dump_pages(self) -> Tuple[Tuple[int, ...], Tuple[str, ...]]:
        """(indices, content tags) of the pages a dump copies out."""
        idx, ids = self.dump_arrays()
        return tuple(idx.tolist()), tuple(TAGS.tags_of(ids))

    def dump_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`dump_pages` as fresh arrays: int64 indices, int32 :data:`TAGS` ids."""
        idx = np.nonzero(self._resident)[0].astype(np.int64, copy=False)
        return idx, self._tag_ids[idx]

    def touched_indices(self, floor: bool = False) -> np.ndarray:
        """Resident pages touched since the last soft-dirty clear.

        ``floor=True`` returns every resident page (kinds whose bits
        the working-set tracker treats as always-hot).
        """
        mask = self._resident if floor else self._resident & self._soft
        return np.nonzero(mask)[0]

    def clear_soft_dirty(self) -> None:
        self._soft[:] = False

class SlowVMA(_VMABase):
    """Reference dict-of-``Page`` pagemap (the pre-vectorization path).

    Selected with ``REPRO_SLOW_PAGEMAP=1`` or :func:`set_slow_pagemap`.
    Kept semantically identical to :class:`VMA` — the equivalence
    property suite pins the two together — and used by the kernel
    throughput bench as the speedup denominator.
    """

    __slots__ = ("start", "length", "kind", "prot", "file_path",
                 "file_offset", "label", "_pages")

    def __init__(
        self,
        start: int,
        length: int,
        kind: VMAKind,
        prot: str,
        file_path: Optional[str],
        file_offset: int,
        label: str,
    ) -> None:
        self._init_common(start, length, kind, prot, file_path, file_offset, label)
        self._pages: Dict[int, Page] = {}

    @property
    def resident_pages(self) -> int:
        return len(self._pages)

    def _touch(self, page_index: int, content_tag: str) -> None:
        page = self._pages.get(page_index)
        if page is None:
            page = self._pages[page_index] = Page(content_tag)
        elif content_tag:
            page.content_tag = content_tag
        page.soft_dirty = True

    def touch_range(self, first: int, count: int, content_tag: str = "") -> None:
        if count <= 0:
            return
        if first < 0 or first + count > self.page_count:
            raise MemoryError_(
                f"page range [{first},{first + count}) out of range "
                f"for VMA of {self.page_count} pages"
            )
        for i in range(first, first + count):
            self._touch(i, content_tag)

    def populate_pages(self, indices: Sequence[int], tag_ids: np.ndarray) -> None:
        for index, tid in zip(np.asarray(indices).tolist(),
                              np.asarray(tag_ids).tolist()):
            if not 0 <= index < self.page_count:
                raise MemoryError_(
                    f"page index out of range for VMA of {self.page_count} pages")
            self._touch(index, TAGS.tag(tid))

    def restore_pages(self, runs: np.ndarray) -> None:
        runs = runs.tolist()
        _check_fresh_restore(self, runs)
        tag = TAGS.tag
        self._pages = {
            index: Page(content_tag=tag(tid), soft_dirty=True)
            for first, count, tid in runs
            for index in range(first, first + count)
        }

    def dump_pages(self) -> Tuple[Tuple[int, ...], Tuple[str, ...]]:
        indices = sorted(self._pages)
        return (tuple(indices),
                tuple(self._pages[index].content_tag for index in indices))

    def dump_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        indices, tags = self.dump_pages()
        return (np.fromiter(indices, dtype=np.int64, count=len(indices)),
                TAGS.intern_many(tags))

    def touched_indices(self, floor: bool = False) -> np.ndarray:
        hits = sorted(
            index for index, page in self._pages.items()
            if floor or page.soft_dirty
        )
        return np.fromiter(hits, dtype=np.int64, count=len(hits))

    def clear_soft_dirty(self) -> None:
        for page in self._pages.values():
            page.soft_dirty = False

def _check_fresh_restore(vma: _VMABase, runs: List[List[int]]) -> None:
    """``restore_pages``' preconditions that cost O(runs) to check."""
    if vma.resident_pages:
        raise MemoryError_(
            f"restore_pages needs a fresh mapping; {vma.label!r} already "
            f"has {vma.resident_pages} resident pages")
    if runs and (min(first for first, _, _ in runs) < 0 or max(
            first + count for first, count, _ in runs) > vma.page_count):
        raise MemoryError_(
            f"page index out of range for VMA of {vma.page_count} pages")


def page_runs(indices: np.ndarray, tag_ids: np.ndarray) -> np.ndarray:
    """Run-length form of parallel page-index and :data:`TAGS`-id arrays.

    One ``(first index, page count, tag id)`` row per maximal stretch of
    pages whose indices step by one and whose tag ids are equal, in
    position order: a read-only int64 array of shape ``(runs, 3)``.
    Expanding the rows gives back both arrays exactly, whatever the
    order of the indices, and equal pages always give equal runs.
    """
    count = len(indices)
    cuts = np.flatnonzero((np.diff(indices) != 1)
                          | (np.diff(tag_ids) != 0)) + 1
    firsts = np.concatenate(([0], cuts)) if count else cuts
    runs = np.empty((len(firsts), 3), dtype=np.int64)
    runs[:, 0] = indices[firsts]
    runs[:, 1] = np.diff(np.append(firsts, count))
    runs[:, 2] = tag_ids[firsts]
    runs.setflags(write=False)
    return runs


# -- backend selection -------------------------------------------------------

_SLOW_PAGEMAP = os.environ.get("REPRO_SLOW_PAGEMAP", "") not in ("", "0")


def set_slow_pagemap(enabled: bool) -> None:
    """Switch the pagemap backend new mappings use (see module docs).

    Runtime switchable so the kernel bench can measure both paths in
    one process; existing VMAs keep whichever backend built them.
    """
    global _SLOW_PAGEMAP
    _SLOW_PAGEMAP = bool(enabled)


def slow_pagemap_enabled() -> bool:
    return _SLOW_PAGEMAP


def pagemap_backend() -> Type[_VMABase]:
    """The VMA class new mappings are built from."""
    return SlowVMA if _SLOW_PAGEMAP else VMA


class AddressSpace:
    """An ordered collection of non-overlapping VMAs."""

    def __init__(self) -> None:
        self._vmas: List[_VMABase] = []
        self._next_mmap_base = 0x7F00_0000_0000

    # -- mapping -------------------------------------------------------------

    def mmap(
        self,
        length: int,
        kind: VMAKind,
        prot: str = "rw-",
        start: Optional[int] = None,
        file_path: Optional[str] = None,
        file_offset: int = 0,
        label: str = "",
        populate: bool = False,
        content_tag: str = "",
    ) -> _VMABase:
        """Create a mapping; kernel picks the address unless ``start`` given."""
        length = -(-length // PAGE_SIZE) * PAGE_SIZE  # round up to page multiple
        if start is None:
            start = self._next_mmap_base
            self._next_mmap_base += length + PAGE_SIZE  # guard page gap
        vma = pagemap_backend()(
            start=start,
            length=length,
            kind=kind,
            prot=prot,
            file_path=file_path,
            file_offset=file_offset,
            label=label,
        )
        for existing in self._vmas:
            if existing.overlaps(vma):
                raise MemoryError_(
                    f"mapping [{hex(vma.start)},{hex(vma.end)}) overlaps "
                    f"[{hex(existing.start)},{hex(existing.end)}) ({existing.label})"
                )
        self._vmas.append(vma)
        self._vmas.sort(key=lambda v: v.start)
        # Keep the allocator above every mapping, including ones placed
        # at explicit addresses (e.g. by a checkpoint restore).
        self._next_mmap_base = max(self._next_mmap_base, vma.end + PAGE_SIZE)
        if populate:
            vma.touch_range(0, vma.page_count, content_tag=content_tag)
        return vma

    def munmap(self, vma: _VMABase) -> None:
        try:
            self._vmas.remove(vma)
        except ValueError:
            raise MemoryError_(f"VMA at {hex(vma.start)} not mapped in this address space")

    def clear(self) -> None:
        """Drop every mapping (the effect of ``execve``)."""
        self._vmas.clear()

    # -- inspection ----------------------------------------------------------

    @property
    def vmas(self) -> Tuple[_VMABase, ...]:
        return tuple(self._vmas)

    def find_by_label(self, label: str) -> Optional[_VMABase]:
        for vma in self._vmas:
            if vma.label == label:
                return vma
        return None

    @property
    def rss_bytes(self) -> int:
        return sum(v.resident_bytes for v in self._vmas)

    @property
    def rss_mib(self) -> float:
        return self.rss_bytes / (1024 * 1024)

    def clear_soft_dirty(self) -> None:
        """Model writing ``4`` to ``/proc/<pid>/clear_refs``."""
        for vma in self._vmas:
            vma.clear_soft_dirty()

    def grow_anon(self, label: str, mib: float,
                  content_tag: str = "") -> _VMABase:
        """Convenience: map and populate ``mib`` MiB of anonymous memory."""
        pages = max(1, int(round(mib * PAGES_PER_MIB)))
        return self.mmap(
            length=pages * PAGE_SIZE,
            kind=VMAKind.ANON,
            label=label,
            populate=True,
            content_tag=content_tag,
        )
