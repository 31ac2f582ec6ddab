"""Checkpoint image file set.

CRIU writes a directory of ``*.img`` files per dump; the model mirrors
the important ones (``pstree``, ``core``, ``mm``, ``pagemap``,
``pages-1``, ``files``, ``inventory``) with faithful size accounting —
the ``pages-1.img`` size is exactly the dumped resident set, which is
the quantity that drives restore latency in the paper.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.errors import SnapshotCorrupted
from repro.osproc.memory import PAGE_SIZE, TAGS, page_runs
from repro.runtime.classes import ClassNames, ClassTable


# Nesting depth past which the canonical form stops descending.
_MAX_DEPTH = 12
# Leaf types whose JSON text ``json.dumps`` produces exactly as the
# canonical encoder would (exact types: subclasses take the slow path).
_SCALARS = frozenset({str, int, float, bool, type(None)})
_CLASS_KEY = "__class__"
_encode_str = json.encoder.encode_basestring_ascii
_dumps = json.JSONEncoder().encode
_dumps_sorted = json.JSONEncoder(sort_keys=True).encode


def canonical_json(obj: Any) -> str:
    """The canonical JSON text of ``obj``, stable across runs.

    ``repr`` of plain objects embeds memory addresses, which would make
    content digests differ between identically seeded runs; instead,
    objects are encoded as their sorted attribute dict plus a
    ``"__class__"`` entry naming the type. Dicts encode every entry
    under ``str(key)``, sorted by ``(str(key), type name)``, so keys
    that collide under ``str`` all stay covered; sets encode as lists
    sorted by ``str``; anything nested deeper than 12 levels encodes as
    ``"<depth-capped TYPE>"``. The text is what ``json.dumps(...,
    sort_keys=True)`` writes for that projection, byte for byte.

    Immutable values supply their own text: a
    :class:`~repro.runtime.classes.ClassTable` is encoded as the list
    of its classes, once per table, and
    :class:`~repro.runtime.classes.ClassNames` joins its names.
    """
    out: List[str] = []
    _encode(obj, 0, out.append)
    return "".join(out)


def _encode(obj: Any, depth: int, out) -> None:
    if depth > _MAX_DEPTH:
        out(_encode_str(f"<depth-capped {type(obj).__name__}>"))
    elif obj is None:
        out("null")
    elif obj is True:
        out("true")
    elif obj is False:
        out("false")
    elif isinstance(obj, str):
        out(_encode_str(obj))
    elif isinstance(obj, int):
        out(int.__repr__(obj))
    elif isinstance(obj, float):
        out(_dumps(float(obj)))
    elif isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: (str(kv[0]), type(kv[0]).__name__))
        _encode_entries([(str(k), v) for k, v in items], depth, out)
    elif type(obj) is ClassTable:
        # A sequence of classes, each an object of two attributes.
        if depth + 2 <= _MAX_DEPTH:
            out(obj.canonical_json)
        else:
            _encode_items(obj, depth, out)
    elif isinstance(obj, (list, tuple)):
        if type(obj) is ClassNames and depth < _MAX_DEPTH:
            out(obj.canonical_json)
        elif depth < _MAX_DEPTH and all(type(v) in _SCALARS for v in obj):
            out(_dumps(obj))
        else:
            _encode_items(obj, depth, out)
    elif isinstance(obj, (set, frozenset)):
        _encode_items(sorted(obj, key=str), depth, out)
    else:
        attrs = getattr(obj, "__dict__", None)
        if attrs is None:
            out(_encode_str(f"<{type(obj).__name__}>"))
            return
        entries = [(k, v) for k, v in attrs.items() if k != _CLASS_KEY]
        entries.append((_CLASS_KEY, _ClassName(type(obj).__name__)))
        entries.sort(key=lambda entry: entry[0])
        _encode_entries(entries, depth, out)


class _ClassName(str):
    """The ``"__class__"`` entry: emitted as is, at any depth."""


def _encode_entries(entries, depth: int, out) -> None:
    out("{")
    for i, (key, value) in enumerate(entries):
        if i:
            out(", ")
        out(_encode_str(key))
        out(": ")
        if type(value) is _ClassName:
            out(_encode_str(value))
        else:
            _encode(value, depth + 1, out)
    out("}")


def _encode_items(items, depth: int, out) -> None:
    out("[")
    for i, value in enumerate(items):
        if i:
            out(", ")
        _encode(value, depth + 1, out)
    out("]")


# Resident indices at or past this are encoded item by item, so one
# sparse page at a high index cannot grow the shared decimal text. The
# largest VMA the perfbench workloads map is 160 MiB (40,960 pages),
# so every index they can dump is below it; the largest dumped is 17,432.
_DECIMAL_LIMIT = 1 << 16

# A run's repeated tag text is hashed in blocks of at most this many bytes.
_TAG_BLOCK = 1 << 14


class _DecimalText:
    """The JSON list items of 0, 1, 2, ...: ``b"0, 1, 2, "`` and on.

    A pure function of the integers, grown to the largest index yet
    asked of it and only ever appended to, like the generated class
    names of :mod:`repro.runtime.classes`. ``offsets[i]`` is where the
    item of ``i`` starts, so a run of consecutive indices is one slice.
    """

    __slots__ = ("text", "offsets")

    def __init__(self) -> None:
        self.text = b""
        self.offsets = np.zeros(1, dtype=np.int64)

    def grow(self, top: int) -> None:
        """Hold the items of every integer below ``top``."""
        count = len(self.offsets) - 1
        if top > count:
            items = [f"{i}, " for i in range(count, top)]
            self.text += "".join(items).encode("ascii")
            lengths = np.fromiter(map(len, items), dtype=np.int64, count=len(items))
            self.offsets = np.concatenate(
                (self.offsets, self.offsets[-1] + np.cumsum(lengths)))


_DECIMALS = _DecimalText()


@functools.lru_cache(maxsize=64)
def _tag_block(tag_id: int) -> Tuple[bytes, int]:
    """The JSON list item ``"<tag>", `` of a :data:`TAGS` id, and its length.

    The item comes repeated as often as fits in :data:`_TAG_BLOCK`
    bytes (at least once), so a run of pages with this tag is hashed
    as whole blocks and one zero-copy slice of a block. Tag ids never
    change meaning, so a block is shared by every descriptor.
    """
    item = (_encode_str(TAGS.tag(tag_id)) + ", ").encode("ascii")
    return item * (_TAG_BLOCK // len(item) or 1), len(item)


def _runs_of_pages(label: Optional[str], resident_indices: Sequence[int],
                   content_tags: Sequence[str]) -> np.ndarray:
    """:func:`page_runs` of pages listed one by one, ints and tags."""
    if len(resident_indices) != len(content_tags):
        raise ValueError(f"VMA {label!r}: resident indices and tags out of sync")
    return page_runs(np.asarray(resident_indices, dtype=np.int64),
                     TAGS.intern_many(content_tags))


@dataclass(frozen=True, eq=False)
class VMADescriptor:
    """Serialized form of one VMA.

    The resident pages are held as runs, not page by page: ``runs`` is
    a read-only int64 array of ``(first index, page count, tag id)``
    rows, one per maximal stretch of pages whose indices step by one
    and whose :data:`~repro.osproc.memory.TAGS` ids are equal
    (:func:`~repro.osproc.memory.page_runs`). A dumped VMA is a few
    runs, whatever its size. The per-page forms
    (:attr:`resident_indices`, :attr:`tag_ids`, :attr:`content_tags`)
    are built on each access and never kept.
    """

    start: int
    length: int
    kind: str
    prot: str
    label: str
    file_path: Optional[str]
    file_offset: int
    file_size: int
    runs: np.ndarray

    def __post_init__(self) -> None:
        self.runs.setflags(write=False)

    @classmethod
    def from_pages(cls, resident_indices: Sequence[int],
                   content_tags: Sequence[str], **fields) -> "VMADescriptor":
        """A descriptor of pages listed one by one: any ints, one tag each.

        Raises :class:`ValueError` when the two lists differ in length.
        """
        return cls(runs=_runs_of_pages(fields.get("label"), resident_indices,
                                       content_tags), **fields)

    def with_pages(self, resident_indices: Sequence[int],
                   content_tags: Sequence[str]) -> "VMADescriptor":
        """This descriptor holding the pages listed (see :meth:`from_pages`)."""
        return replace(self, runs=_runs_of_pages(self.label, resident_indices,
                                                 content_tags))

    def __eq__(self, other: object) -> bool:
        if type(other) is not VMADescriptor:
            return NotImplemented
        return (self._fields() == other._fields()
                and np.array_equal(self.runs, other.runs))

    @functools.cached_property
    def resident_pages(self) -> int:
        return int(self.runs[:, 1].sum())

    @property
    def resident_indices(self) -> np.ndarray:
        """Resident page indices in dump order (a fresh int64 array)."""
        counts = self.runs[:, 1]
        run_starts = np.cumsum(counts) - counts
        return (np.repeat(self.runs[:, 0] - run_starts, counts)
                + np.arange(self.resident_pages))

    @property
    def tag_ids(self) -> np.ndarray:
        """Each resident page's :data:`TAGS` id (a fresh int32 array)."""
        return np.repeat(self.runs[:, 2].astype(np.int32), self.runs[:, 1])

    @property
    def content_tags(self) -> Tuple[str, ...]:
        """Each resident page's content tag, parallel to :attr:`resident_indices`."""
        tag = TAGS.tag
        return tuple(itertools.chain.from_iterable(
            itertools.repeat(tag(tid), count)
            for _first, count, tid in self.runs.tolist()))

    def _fields(self) -> list:
        return [self.start, self.length, self.kind, self.prot, self.label,
                self.file_path, self.file_offset, self.file_size]

    @functools.cached_property
    def _header(self) -> bytes:
        """``json.dumps`` of :meth:`_fields`, without the closing bracket.

        Kept: it is a few dozen bytes whatever the VMA's size, and
        ``json`` takes longer to encode it than the hash takes to read
        it. A descriptor is frozen, so it cannot go stale.
        """
        return _dumps(self._fields())[:-1].encode("utf-8")

    def stream(self, out: Callable[[Any], Any]) -> None:
        """Feed this VMA's canonical JSON to ``out``, piece by piece.

        The text is ``json.dumps`` of the eight fields followed by the
        resident index list and the content tag list, and it is never
        built whole: each run of indices is one zero-copy slice of the
        shared decimal text (a run with an index that is negative or
        past :data:`_DECIMAL_LIMIT` is formatted item by item), and each
        run's tags are whole blocks and one slice of its tag's shared
        block (:func:`_tag_block`). :meth:`CheckpointImage.compute_digest`
        passes its hash's ``update``.
        """
        runs = self.runs.tolist()
        if not runs:
            out(self._header + b", [], []]")
            return
        out(self._header + b", [")
        decimals, last = _DECIMALS, len(runs) - 1
        for i, (first, count, _) in enumerate(runs):
            end = first + count
            if first >= 0 and end <= _DECIMAL_LIMIT:
                if end >= len(decimals.offsets):
                    decimals.grow(end)
                offsets = decimals.offsets
                items = memoryview(decimals.text)[offsets[first]:offsets[end]]
            else:
                items = "".join(f"{j}, " for j in range(first, end)).encode("ascii")
            out(items[:-2] if i == last else items)
        out(b"], [")
        for i, (_, count, tag_id) in enumerate(runs):
            block, width = _tag_block(tag_id)
            size = count * width - (2 if i == last else 0)
            while size > len(block):
                out(block)
                size -= len(block)
            out(memoryview(block)[:size])
        out(b"]]")


@dataclass(frozen=True)
class FdDescriptor:
    """Serialized form of one open file descriptor."""

    fd: int
    path: str
    offset: int
    flags: str
    is_socket: bool
    file_size: int = 0


@dataclass
class ImageFile:
    """One ``*.img`` file inside the image directory."""

    name: str
    size_bytes: int
    payload: Any = None


@dataclass
class CheckpointImage:
    """A complete dump of one process."""

    image_id: str
    pid: int
    comm: str
    argv: List[str]
    created_at_ms: float
    namespace_ids: Dict[str, int]
    vmas: List[VMADescriptor]
    fds: List[FdDescriptor]
    runtime_state: Optional[Dict[str, Any]]
    files: Dict[str, ImageFile] = field(default_factory=dict)
    warm: bool = False  # snapshot taken after >= 1 request (prebake-warmup)
    digest: Optional[str] = None  # content digest sealed at dump time
    # Mutation bookkeeping: bumped on any in-place content change so
    # memoized derived data (chunk indexes) invalidates itself.
    generation: int = 0

    # -- size accounting ----------------------------------------------------------

    @property
    def pages_bytes(self) -> int:
        return sum(v.resident_pages for v in self.vmas) * PAGE_SIZE

    @property
    def total_bytes(self) -> int:
        return sum(f.size_bytes for f in self.files.values())

    @property
    def total_mib(self) -> float:
        return self.total_bytes / (1024 * 1024)

    # -- integrity ---------------------------------------------------------------

    def compute_digest(self) -> str:
        """SHA-256 over everything a restore consumes.

        Covers the dumped memory contents (VMA layout + per-page
        content tags), the fd table, the runtime state and the image
        file sizes — any bit rot in those shows up as a mismatch
        against the sealed :attr:`digest`.

        The digest hashes the canonical JSON of one object with sorted
        keys, streamed in key order: the small mutable header, the
        runtime state, each VMA's fragment (:meth:`VMADescriptor.stream`),
        then ``warm``. Every byte is hashed on every call; only immutable
        values' encodings are reused.
        """
        header = _dumps_sorted({
            "argv": self.argv,
            "comm": self.comm,
            "fds": [[f.fd, f.path, f.offset, f.flags, f.is_socket, f.file_size]
                    for f in self.fds],
            "files": {name: f.size_bytes for name, f in self.files.items()},
            "namespaces": self.namespace_ids,
            "pid": self.pid,
        })
        sha = hashlib.sha256(header[:-1].encode("utf-8"))
        sha.update(b', "runtime_state": ')
        sha.update(canonical_json(self.runtime_state).encode("utf-8"))
        sha.update(b', "vmas": [')
        for i, vma in enumerate(self.vmas):
            if i:
                sha.update(b", ")
            vma.stream(sha.update)
        sha.update(f'], "warm": {_dumps(self.warm)}}}'.encode("utf-8"))
        return sha.hexdigest()

    def seal(self) -> str:
        """Record the content digest (done once, at dump time)."""
        self.digest = self.compute_digest()
        return self.digest

    def verify_integrity(self) -> None:
        """Check contents against the sealed digest.

        Unsealed images (hand-built in tests, pre-digest dumps) pass
        trivially; a sealed image whose contents drifted raises
        :class:`SnapshotCorrupted`.
        """
        if self.digest is None:
            return
        actual = self.compute_digest()
        if actual != self.digest:
            raise SnapshotCorrupted(
                f"image {self.image_id!r} failed integrity verification: "
                f"digest {actual[:12]}... != sealed {self.digest[:12]}...",
                image_id=self.image_id,
            )

    def tamper(self, pages: int = 1) -> None:
        """Corrupt the dumped page contents in place (fault injection).

        Flips the content tags of the first ``pages`` resident pages of
        the first VMA that has any — the smallest change that keeps
        :meth:`validate`'s structural checks passing while the content
        digest no longer matches, exactly like flipped bits in
        ``pages-1.img``. ``pages`` sized to a page-store chunk models
        losing one registry chunk.
        """
        self.generation += 1
        for index, vma in enumerate(self.vmas):
            if vma.resident_pages:
                tags = list(vma.content_tags)
                for offset in range(min(pages, len(tags))):
                    tags[offset] = tags[offset] + "\x00corrupt"
                self.vmas[index] = vma.with_pages(vma.resident_indices, tags)
                return
        self.comm = self.comm + "\x00corrupt"

    def validate(self) -> None:
        """Internal consistency checks a restore relies on."""
        if not self.vmas:
            raise ValueError(f"image {self.image_id!r} has no VMAs")
        pages_file = self.files.get("pages-1.img")
        if pages_file is None:
            raise ValueError(f"image {self.image_id!r} is missing pages-1.img")
        if pages_file.size_bytes != self.pages_bytes:
            raise ValueError(
                f"pages-1.img size {pages_file.size_bytes} != dumped pages "
                f"{self.pages_bytes}"
            )
        for vma in self.vmas:
            if vma.resident_pages * PAGE_SIZE > vma.length:
                raise ValueError(
                    f"VMA {vma.label!r}: more resident pages than the mapping holds"
                )


def build_image_files(image: CheckpointImage) -> None:
    """Populate the ``*.img`` file entries from the image's contents."""
    meta_per_vma = 64
    meta_per_fd = 48
    image.files = {
        "inventory.img": ImageFile("inventory.img", 128),
        "pstree.img": ImageFile("pstree.img", 96, payload={"pid": image.pid}),
        f"core-{image.pid}.img": ImageFile(f"core-{image.pid}.img", 512,
                                           payload={"comm": image.comm, "argv": image.argv}),
        f"mm-{image.pid}.img": ImageFile(
            f"mm-{image.pid}.img", meta_per_vma * len(image.vmas), payload=image.vmas
        ),
        f"pagemap-{image.pid}.img": ImageFile(
            f"pagemap-{image.pid}.img",
            16 * sum(v.resident_pages for v in image.vmas),
        ),
        "pages-1.img": ImageFile("pages-1.img", image.pages_bytes),
        "files.img": ImageFile("files.img", meta_per_fd * len(image.fds),
                               payload=image.fds),
        "namespaces.img": ImageFile("namespaces.img", 64,
                                    payload=image.namespace_ids),
    }
