"""Content-addressed page storage and layered checkpoint images.

The monolithic ``pages-1.img`` of a :class:`CheckpointImage` dumps the
full resident set per snapshot, so a registry of N functions sharing a
runtime stores the runtime's pages N times. This module refactors that
into the layout real registries use:

* :class:`PageStore` — a refcounted chunk store keyed by a SHA over
  page content tags (see :func:`repro.osproc.memory.page_content_key`).
  Chunks are fixed windows of :data:`CHUNK_PAGES` pages within one VMA;
  two snapshots whose windows carry identical content share one chunk.
* :class:`LayeredImage` — an OCI-style manifest splitting one snapshot
  into a *runtime base* layer (JVM text/heap/metaspace and friends),
  a *function code* layer, and — for warm snapshots with a stored
  ready-state sibling — a *warm delta* layer computed with
  :mod:`repro.criu.imgdiff`.

Everything here is pure bookkeeping: no simulated time is charged and
no RNG stream is consumed, so layering a store changes no experiment
output.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.criu.images import CheckpointImage, VMADescriptor
from repro.criu.imgdiff import diff_images
from repro.osproc.memory import PAGE_SIZE, TAGS, VMAKind

# Pages per content-addressed chunk (64 pages = 256 KiB), the dedup
# granularity. Coarser chunks mean fewer hashes but less sharing.
CHUNK_PAGES = 64

# A chunk window's pages as (relative page index, content tag) pairs,
# and the exact content key its identity is memoized under: the mapping's
# "kind|prot" prefix, then the window's relative indices (int64) and
# interned tag ids (int32) as bytes.
Pairs = Tuple[Tuple[int, str], ...]
WindowKey = Tuple[str, bytes, bytes]

# A maximal stretch of consecutive manifest windows holding one chunk:
# (chunk id, size in bytes, window count).
ChunkRun = Tuple[str, int, int]

# Canonical layer names, most-shared first.
RUNTIME_BASE_LAYER = "runtime-base"
FUNCTION_CODE_LAYER = "function-code"
WARM_DELTA_LAYER = "warm-delta"

# VMA kinds whose contents come from the runtime image rather than the
# deployed function: text, class metadata, stacks, vdso. Their chunks
# dedup across every function on the same runtime.
_RUNTIME_BASE_KINDS = {
    VMAKind.CODE.value,
    VMAKind.METASPACE.value,
    VMAKind.STACK.value,
    VMAKind.VDSO.value,
}


def chunk_runs(windows: Iterable[Tuple[str, int]]) -> Tuple[ChunkRun, ...]:
    """Run-length form of a ``(chunk id, size bytes)`` window sequence.

    Consecutive equal windows fold into one ``(chunk id, size, count)``
    run, in manifest order. A long heap or a zero-filled mapping repeats
    one chunk window after window, so an image's few thousand windows
    fold into a few hundred runs.
    """
    return tuple((cid, size, sum(1 for _ in group))
                 for (cid, size), group in itertools.groupby(windows))


def chunk_id(kind: str, prot: str,
             pairs: Sequence[Tuple[int, str]]) -> str:
    """Content identity of one chunk window.

    Hashes the window's page content keys at their *relative* offsets
    plus the mapping's kind/protection — deliberately excluding the
    VMA's address and label so identical content dedups across
    functions whose mappings land at different addresses.

    The digest is computed over one joined byte string (identical bytes
    to the original per-page ``update`` sequence, so ids are stable
    across the vectorization) with content keys resolved through the
    interning table's key cache.
    """
    tags = TAGS
    keys = tags.keys_of(tags.intern_many([tag for _, tag in pairs]))
    body = "".join(
        f"|{rel_index}:{key}"
        for (rel_index, _), key in zip(pairs, keys)
    )
    return hashlib.sha256(f"{kind}|{prot}{body}".encode("utf-8")).hexdigest()


def _chunk_id_from_keys(prefix: str, rel_indices: Sequence[int],
                        keys: Sequence[str]) -> str:
    """``chunk_id`` fast path over pre-resolved content keys."""
    body = "".join(f"|{r}:{k}" for r, k in zip(rel_indices, keys))
    return hashlib.sha256((prefix + body).encode("utf-8")).hexdigest()


@dataclass
class PageChunk:
    """One stored chunk: identity plus the tags needed to rebuild it."""

    chunk_id: str
    kind: str
    prot: str
    pairs: Tuple[Tuple[int, str], ...]  # (relative page index, content tag)

    @property
    def page_count(self) -> int:
        return len(self.pairs)

    @property
    def size_bytes(self) -> int:
        return self.page_count * PAGE_SIZE


@dataclass(frozen=True)
class ChunkRef:
    """A layered image's pointer to one chunk of one VMA."""

    vma_index: int     # position in CheckpointImage.vmas
    window_start: int  # absolute index of the window's first page
    chunk_id: str
    page_count: int

    @property
    def size_bytes(self) -> int:
        return self.page_count * PAGE_SIZE


@dataclass
class SnapshotLayer:
    """One layer of a layered snapshot image."""

    name: str
    chunk_refs: Tuple[ChunkRef, ...] = ()


@dataclass
class LayeredImage:
    """A snapshot decomposed into content-addressed layers."""

    image_id: str
    layers: List[SnapshotLayer] = field(default_factory=list)

    @property
    def chunk_refs(self) -> List[ChunkRef]:
        return [ref for layer in self.layers for ref in layer.chunk_refs]

    @functools.cached_property
    def chunk_runs(self) -> Tuple[ChunkRun, ...]:
        """:func:`chunk_runs` of :attr:`chunk_refs`, computed once.

        A layered image is never changed after :func:`layer_image`
        builds it.
        """
        return chunk_runs((ref.chunk_id, ref.size_bytes)
                          for ref in self.chunk_refs)


class PageStore:
    """Content-addressed chunk storage.

    ``physical_bytes`` counts every distinct chunk once; a chunk stays
    for the store's lifetime, as registry layers do until a GC runs.
    """

    def __init__(self, chunk_pages: int = CHUNK_PAGES) -> None:
        if chunk_pages < 1:
            raise ValueError(f"chunk_pages must be >= 1, got {chunk_pages}")
        self.chunk_pages = chunk_pages
        self._chunks: Dict[str, PageChunk] = {}
        self.dedup_hits = 0  # add() calls resolved by an existing chunk
        # (pairs, chunk id) per distinct window content registered here
        # (see image_windows). Owned by the store, so it lives exactly
        # as long as the store and its world.
        self.window_memo: Dict[WindowKey, Tuple[Pairs, str]] = {}

    # -- chunk lifecycle ---------------------------------------------------------

    def add(self, kind: str, prot: str,
            pairs: Sequence[Tuple[int, str]],
            cid: Optional[str] = None, count: int = 1) -> str:
        """Store (or reference) ``count`` equal chunk windows; returns their id.

        ``cid`` lets callers that already hold the window's identity
        (the memoized :func:`image_windows` walk) skip re-hashing it.
        One call with ``count=n`` leaves the store as ``n`` calls would.
        """
        pairs = tuple(pairs)
        if cid is None:
            cid = chunk_id(kind, prot, pairs)
        if cid in self._chunks:
            self.dedup_hits += count
        else:
            self._chunks[cid] = PageChunk(chunk_id=cid, kind=kind,
                                          prot=prot, pairs=pairs)
            self.dedup_hits += count - 1
        return cid

    def chunk(self, cid: str) -> PageChunk:
        chunk = self._chunks.get(cid)
        if chunk is None:
            raise KeyError(f"no chunk {cid[:12]}... in page store")
        return chunk

    # -- accounting --------------------------------------------------------------

    @property
    def chunk_count(self) -> int:
        return len(self._chunks)

    @property
    def physical_bytes(self) -> int:
        return sum(c.size_bytes for c in self._chunks.values())


# ---------------------------------------------------------------------------
# Layering
# ---------------------------------------------------------------------------

def image_windows(
    image: CheckpointImage,
    chunk_pages: int = CHUNK_PAGES,
    memo: Optional[Dict[WindowKey, Tuple[Pairs, str]]] = None,
) -> Tuple[Tuple[int, int, Pairs, str], ...]:
    """Chunk windows of ``image`` with their identities, memoized.

    Returns ``(vma_index, window_start, pairs, chunk_id)`` per window.
    The window split is one vectorized pass over each descriptor's
    resident indices, expanded from its runs for the walk and dropped
    after it (no per-page Python walk), and the result is
    cached on the image instance keyed by its mutation ``generation``
    (bumped by :meth:`CheckpointImage.tamper` and repairs) — so
    layering, restore planning and the hot-chunk cache all share one
    walk per snapshot. Pure bookkeeping — no simulated time, no RNG.

    Each window's pairs and chunk id are computed once per distinct
    content: ``memo`` (a :attr:`PageStore.window_memo`; a fresh dict
    when omitted) maps the window's :data:`WindowKey` to them. A full
    heap window, or the runtime text every function maps, is formatted
    and hashed once per store. The key is exact: a chunk id is a pure
    function of the prefix, the relative indices and the tags, and an
    interned tag id never changes meaning. A run of full windows that
    all hold one tag shares one key, so it is looked up once per run.
    """
    generation = getattr(image, "generation", 0)
    cached = image.__dict__.get("_window_cache")
    if cached is not None and cached[0] == (generation, chunk_pages):
        return cached[1]
    if memo is None:
        memo = {}
    out: List[Tuple[int, int, Pairs, str]] = []
    for vma_index, vma in enumerate(image.vmas):
        count = vma.resident_pages
        if count == 0:
            continue
        indices, ids = vma.resident_indices, vma.tag_ids
        # A window ends wherever the chunk changes.
        his = np.append(np.flatnonzero(np.diff(indices // chunk_pages)) + 1, count)
        los = np.concatenate(([0], his[:-1]))
        heads = _distinct_windows(vma.runs, los, his, chunk_pages)
        window_starts = ((indices[los] // chunk_pages) * chunk_pages).tolist()
        los_list, his_list = los.tolist(), his.tolist()
        prefix = f"{vma.kind}|{vma.prot}"
        for first, end in zip(heads, heads[1:]):
            lo, hi = los_list[first], his_list[first]
            rel = indices[lo:hi] - window_starts[first]
            key = (prefix, rel.tobytes(), ids[lo:hi].tobytes())
            content = memo.get(key)
            if content is None:
                content = memo[key] = _window_content(prefix, rel, ids[lo:hi])
            pairs, cid = content
            out.extend(zip(itertools.repeat(vma_index), window_starts[first:end],
                           itertools.repeat(pairs), itertools.repeat(cid)))
    result = tuple(out)
    image.__dict__["_window_cache"] = ((generation, chunk_pages), result)
    return result


def _distinct_windows(runs: np.ndarray, los: np.ndarray, his: np.ndarray,
                      chunk_pages: int) -> List[int]:
    """Window numbers that start a run of equal windows, then the window count.

    ``runs`` are the descriptor's page runs. A window equals its
    predecessor when both are full (pages 0 .. ``chunk_pages - 1``,
    given ascending indices) and lie in one stretch of equal tag ids;
    any other window starts a new run.
    """
    count = len(los)
    ends = runs[:-1, 0] + runs[:-1, 1]
    if count == 1 or (runs[1:, 0] < ends).any():  # not ascending
        return list(range(count + 1))
    full = his - los == chunk_pages
    repeats = full[1:] & full[:-1]
    retagged = runs[1:, 2] != runs[:-1, 2]
    if retagged.any():
        # Positions where a new tag id starts.
        run_starts = np.cumsum(runs[:, 1]) - runs[:, 1]
        tag_los = run_starts[np.concatenate(([True], retagged))]
        repeats &= (np.searchsorted(tag_los, los[:-1], side="right")
                    == np.searchsorted(tag_los, his[1:] - 1, side="right"))
    return [0, *(np.flatnonzero(~repeats) + 1).tolist(), count]


def _window_content(prefix: str, rel: np.ndarray,
                    ids: np.ndarray) -> Tuple[Pairs, str]:
    """(pairs, chunk id) of one window from its relative indices and tag ids."""
    rel_list = rel.tolist()
    return (tuple(zip(rel_list, TAGS.tags_of(ids))),
            _chunk_id_from_keys(prefix, rel_list, TAGS.keys_of(ids)))


def image_chunk_runs(image: CheckpointImage) -> Tuple[ChunkRun, ...]:
    """``(chunk id, size bytes, count)`` runs of ``image``'s chunk windows.

    :func:`chunk_runs` over :func:`image_windows`, memoized on the image
    the same way (keyed by its mutation ``generation``). What every
    restore-time walk iterates: the hot-chunk cache and the shard store
    decide once per run of equal windows instead of once per window.
    """
    generation = getattr(image, "generation", 0)
    cached = image.__dict__.get("_chunk_runs_cache")
    if cached is not None and cached[0] == generation:
        return cached[1]
    runs = chunk_runs((cid, len(pairs) * PAGE_SIZE) for _vma_index,
                      _window_start, pairs, cid
                      in image_windows(image, CHUNK_PAGES))
    image.__dict__["_chunk_runs_cache"] = (generation, runs)
    return runs


def image_chunk_count(image: CheckpointImage) -> int:
    """Number of content-addressed chunk windows ``image`` spans.

    The unit the restore profiler reports chunk-fetch work in: an
    eager restore materializes every window, whatever fraction of
    them dedup to already-resident chunks. A sum over
    :func:`image_chunk_runs`' memo. Pure bookkeeping — no simulated
    time, no RNG.
    """
    return sum(count for _cid, _size, count
               in image_chunk_runs(image))


def _vma_layer(vma: VMADescriptor, warm_labels: frozenset) -> str:
    if vma.label in warm_labels:
        return WARM_DELTA_LAYER
    if vma.kind in _RUNTIME_BASE_KINDS:
        return RUNTIME_BASE_LAYER
    return FUNCTION_CODE_LAYER


def warm_delta_labels(base: CheckpointImage,
                      warm: CheckpointImage) -> frozenset:
    """VMA labels whose contents changed between ready and warm dumps.

    Computed with :mod:`repro.criu.imgdiff`: a VMA goes to the
    warm-delta layer when warming added, removed or retagged any of its
    pages (or mapped it fresh).
    """
    diff = diff_images(base, warm)
    return frozenset(v.label for v in diff.vmas
                     if v.changed and v.status != "removed")


def layer_image(image: CheckpointImage, store: PageStore,
                base: Optional[CheckpointImage] = None) -> LayeredImage:
    """Decompose ``image`` into layers, registering chunks in ``store``.

    ``base`` is the ready-state snapshot of the same function, when
    one exists and ``image`` is warm; VMAs it warmed go to the
    warm-delta layer. Pure bookkeeping — consumes no simulated time.
    """
    warm_labels = frozenset()
    if base is not None and image.warm:
        warm_labels = warm_delta_labels(base, image)
    refs: Dict[str, List[ChunkRef]] = {
        RUNTIME_BASE_LAYER: [],
        FUNCTION_CODE_LAYER: [],
        WARM_DELTA_LAYER: [],
    }
    layer_names = [_vma_layer(vma, warm_labels) for vma in image.vmas]
    windows = image_windows(image, store.chunk_pages, store.window_memo)
    # Consecutive windows of one VMA holding one chunk register at once.
    for (vma_index, cid), group in itertools.groupby(
            windows, key=lambda window: (window[0], window[3])):
        group = list(group)
        pairs = group[0][2]
        vma = image.vmas[vma_index]
        store.add(vma.kind, vma.prot, pairs, cid=cid, count=len(group))
        refs[layer_names[vma_index]].extend(
            ChunkRef(vma_index=vma_index, window_start=window_start,
                     chunk_id=cid, page_count=len(pairs))
            for _, window_start, _, _ in group)
    return LayeredImage(
        image_id=image.image_id,
        layers=[SnapshotLayer(name, tuple(chunk_refs))
                for name, chunk_refs in refs.items()],
    )


def rebuild_vma_pages(
    image: CheckpointImage,
    layered: LayeredImage,
    store: PageStore,
) -> Dict[int, Tuple[Tuple[int, ...], Tuple[str, ...]]]:
    """Reconstruct each VMA's (resident_indices, content_tags) from chunks.

    The inverse of :func:`layer_image`; sorted by absolute page index so
    the result matches the descriptor layout a dump produces.
    """
    per_vma: Dict[int, List[Tuple[int, str]]] = {}
    for ref in layered.chunk_refs:
        chunk = store.chunk(ref.chunk_id)
        pages = per_vma.setdefault(ref.vma_index, [])
        for rel_index, tag in chunk.pairs:
            pages.append((ref.window_start + rel_index, tag))
    rebuilt: Dict[int, Tuple[Tuple[int, ...], Tuple[str, ...]]] = {}
    for vma_index in range(len(image.vmas)):
        pages = sorted(per_vma.get(vma_index, []))
        rebuilt[vma_index] = (
            tuple(i for i, _ in pages),
            tuple(t for _, t in pages),
        )
    return rebuilt
