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
import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.faults.errors import SnapshotCorrupted
from repro.osproc.memory import PAGE_SIZE, TAGS
from repro.runtime.classes import ClassNames, ClassTable


# Nesting depth past which the canonical form stops descending.
_MAX_DEPTH = 12
# Leaf types whose JSON text ``json.dumps`` produces exactly as the
# canonical encoder would (exact types: subclasses take the slow path).
_SCALARS = frozenset({str, int, float, bool, type(None)})
_CLASS_KEY = "__class__"
_encode_str = json.encoder.encode_basestring_ascii
_dumps = json.JSONEncoder().encode


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


class _DecimalText:
    """The JSON list items of 0, 1, 2, ...: ``b"0, 1, 2, "`` and on.

    A pure function of the integers, grown to the largest index yet
    asked of it and only ever appended to, like the generated class
    names of :mod:`repro.runtime.classes`. ``offsets[i]`` is where the
    item of ``i`` starts, so a run of consecutive indices is one slice.
    """

    __slots__ = ("text", "offsets")

    def __init__(self) -> None:
        self.text = bytearray()
        self.offsets = np.zeros(1, dtype=np.int64)

    def runs(self, firsts: np.ndarray, lasts: np.ndarray) -> List[bytearray]:
        """The text of each run ``firsts[i] .. lasts[i]`` (ascending, < limit)."""
        count = len(self.offsets) - 1
        top = int(lasts[-1]) + 1
        if top > count:
            items = [f"{i}, " for i in range(count, top)]
            self.text += "".join(items).encode("ascii")
            lengths = np.fromiter(map(len, items), dtype=np.int64, count=len(items))
            self.offsets = np.concatenate(
                (self.offsets, self.offsets[-1] + np.cumsum(lengths)))
        text, offsets = self.text, self.offsets
        return [text[lo:hi] for lo, hi in zip(offsets[firsts].tolist(),
                                              (offsets[lasts + 1] - 2).tolist())]


_DECIMALS = _DecimalText()


def _runs(values: np.ndarray) -> List[Tuple[int, int]]:
    """``(lo, hi)`` bounds of each run of equal neighbours in ``values``."""
    if not len(values):
        return []
    bounds = [0, *(np.flatnonzero(np.diff(values)) + 1).tolist(), len(values)]
    return list(zip(bounds, bounds[1:]))


def _index_text(indices: np.ndarray,
                runs: Optional[Tuple[np.ndarray, np.ndarray]]) -> bytes:
    """``_dumps(indices.tolist())``, one slice per run of consecutive indices.

    ``runs`` is :attr:`VMADescriptor.index_runs`. Indices that are
    empty, negative, not ascending or past the decimal limit take
    ``_dumps``.
    """
    if runs is None or indices[0] < 0 or indices[-1] >= _DECIMAL_LIMIT:
        return _dumps(indices.tolist()).encode("utf-8")
    return b"".join((b"[", b", ".join(_DECIMALS.runs(*runs)), b"]"))


def _tags_text(tags: Tuple[str, ...], runs: List[Tuple[int, int]]) -> bytes:
    """``_dumps(tags)``, each tag encoded once per run (:attr:`VMADescriptor.tag_runs`)."""
    if not tags:
        return b"[]"
    text = b"".join([(_encode_str(tags[lo]) + ", ").encode("ascii") * (hi - lo)
                     for lo, hi in runs])
    return b"".join((b"[", memoryview(text)[:-2], b"]"))


@dataclass(frozen=True, eq=False)
class VMADescriptor:
    """Serialized form of one VMA.

    The resident pages are held as arrays, not one Python int per page:
    ``resident_indices`` is a read-only, ascending int64 array. The
    constructor accepts any sequence of ints; an int64 array is adopted
    as is (and made read-only), anything else is copied into one.
    """

    start: int
    length: int
    kind: str
    prot: str
    label: str
    file_path: Optional[str]
    file_offset: int
    file_size: int
    resident_indices: np.ndarray
    content_tags: tuple  # parallel to resident_indices

    def __post_init__(self) -> None:
        indices = self.resident_indices
        if type(indices) is not np.ndarray or indices.dtype != np.int64:
            indices = np.array(indices, dtype=np.int64)
            object.__setattr__(self, "resident_indices", indices)
        indices.setflags(write=False)

    def __eq__(self, other: object) -> bool:
        if type(other) is not VMADescriptor:
            return NotImplemented
        return (self._fields() == other._fields()
                and self.content_tags == other.content_tags
                and np.array_equal(self.resident_indices,
                                   other.resident_indices))

    @property
    def resident_pages(self) -> int:
        return len(self.resident_indices)

    # Derived forms, computed on first use. A descriptor is frozen and
    # every change builds a new one (``dataclasses.replace``), so none
    # of these can go stale.

    @functools.cached_property
    def canonical(self) -> bytes:
        """This VMA's JSON as :meth:`CheckpointImage.compute_digest` hashes it.

        Each run of consecutive resident indices is one slice of the
        shared decimal text (see :func:`_index_text`), and the content
        tags are encoded once per run of :attr:`tag_runs`.
        """
        fields = _dumps(self._fields()).encode("utf-8")
        return b"".join((fields[:-1], b", ",
                         _index_text(self.resident_indices, self.index_runs),
                         b", ", _tags_text(self.content_tags, self.tag_runs),
                         b"]"))

    @functools.cached_property
    def tag_ids(self) -> np.ndarray:
        """Content tags interned in :data:`~repro.osproc.memory.TAGS` (read-only int32).

        The interning table is append-only, so an id never changes meaning.
        """
        ids = TAGS.intern_many(self.content_tags)
        ids.setflags(write=False)
        return ids

    @functools.cached_property
    def tag_runs(self) -> List[Tuple[int, int]]:
        """``(lo, hi)`` position bounds of each run of equal :attr:`tag_ids`."""
        return _runs(self.tag_ids)

    @functools.cached_property
    def index_runs(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """First and last index of each run of consecutive resident indices.

        None unless the indices strictly ascend (every step is 1 except
        at a cut, so they do unless a cut's step does not).
        """
        indices = self.resident_indices
        steps = np.diff(indices)
        cuts = np.flatnonzero(steps != 1)
        if not len(indices) or (cuts.size and steps[cuts].min() <= 0):
            return None
        return (indices[np.concatenate(([0], cuts + 1))],
                indices[np.append(cuts, len(indices) - 1)])

    def _fields(self) -> list:
        return [self.start, self.length, self.kind, self.prot, self.label,
                self.file_path, self.file_offset, self.file_size]

    @classmethod
    def from_dump(cls, index_array: np.ndarray, tag_ids: np.ndarray,
                  **fields) -> "VMADescriptor":
        """A descriptor of dumped pages, given as the dump's arrays.

        ``index_array`` (int64) becomes :attr:`resident_indices` and
        ``tag_ids`` (int32 :data:`TAGS` ids) seeds :attr:`tag_ids`, which
        is exactly what the content tags would derive: the bake reuses
        the dump's arrays instead of rebuilding them. Both arrays are
        made read-only. The content tags repeat one interned tag per
        run of equal ids.
        """
        tags, runs = TAGS.tag, _runs(tag_ids)
        content_tags: List[str] = []
        for lo, hi in runs:
            content_tags += [tags(tag_ids[lo])] * (hi - lo)
        desc = cls(resident_indices=index_array,
                   content_tags=tuple(content_tags), **fields)
        tag_ids.setflags(write=False)
        desc.__dict__["tag_ids"] = tag_ids
        desc.__dict__["tag_runs"] = runs
        return desc


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
    parent_image_id: Optional[str] = None  # set for incremental pre-dumps
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

    @property
    def resident_pages(self) -> int:
        return sum(v.resident_pages for v in self.vmas)

    def file(self, name: str) -> ImageFile:
        try:
            return self.files[name]
        except KeyError:
            raise KeyError(
                f"image {self.image_id!r} has no file {name!r}; has {sorted(self.files)}"
            ) from None

    # -- integrity ---------------------------------------------------------------

    def compute_digest(self) -> str:
        """SHA-256 over everything a restore consumes.

        Covers the dumped memory contents (VMA layout + per-page
        content tags), the fd table, the runtime state and the image
        file sizes — any bit rot in those shows up as a mismatch
        against the sealed :attr:`digest`.

        The digest hashes the canonical JSON of one object with sorted
        keys, streamed in key order: the small mutable header, the
        runtime state, each VMA's cached canonical fragment, then
        ``warm``. Every byte is hashed on every call; only immutable
        values' encodings are reused.
        """
        header = json.dumps({
            "argv": self.argv,
            "comm": self.comm,
            "fds": [[f.fd, f.path, f.offset, f.flags, f.is_socket, f.file_size]
                    for f in self.fds],
            "files": {name: f.size_bytes for name, f in self.files.items()},
            "namespaces": self.namespace_ids,
            "pid": self.pid,
        }, sort_keys=True)
        sha = hashlib.sha256(header[:-1].encode("utf-8"))
        sha.update(b', "runtime_state": ')
        sha.update(canonical_json(self.runtime_state).encode("utf-8"))
        sha.update(b', "vmas": [')
        for i, vma in enumerate(self.vmas):
            if i:
                sha.update(b", ")
            sha.update(vma.canonical)
        sha.update(f'], "warm": {json.dumps(self.warm)}}}'.encode("utf-8"))
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

    def tamper(self, pages: int = 1, first_page: int = 0) -> None:
        """Corrupt the dumped page contents in place (fault injection).

        Flips the content tags of ``pages`` resident pages starting at
        resident offset ``first_page`` in the first VMA that has any —
        the smallest change that keeps :meth:`validate`'s structural
        checks passing while the content digest no longer matches,
        exactly like flipped bits in ``pages-1.img``. ``pages`` sized
        to a page-store chunk models losing one registry chunk.
        """
        self.generation += 1
        for index, vma in enumerate(self.vmas):
            if vma.content_tags:
                tags = list(vma.content_tags)
                start = min(first_page, len(tags) - 1)
                for offset in range(start, min(start + pages, len(tags))):
                    tags[offset] = tags[offset] + "\x00corrupt"
                self.vmas[index] = replace(vma, content_tags=tuple(tags))
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
            if len(vma.resident_indices) != len(vma.content_tags):
                raise ValueError(
                    f"VMA {vma.label!r}: resident indices and tags out of sync"
                )
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
