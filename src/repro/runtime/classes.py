"""Synthetic class generation (paper §4.2.2).

The paper's sensitivity analysis uses "synthetically generated
functions, which vary in the code size": small = 374 classes / 2.8 MiB,
medium = 574 / 9.2 MiB, big = 1574 / 41 MiB. It notes that "the loaded
classes have different sizes, and that is the reason for the growth in
the number of classes does not match the size linearly" — so the
generator draws heterogeneous per-class sizes that sum exactly to the
requested total.

A generated set is a :class:`ClassTable` of two columns, names and
sizes: immutable, memoized per generator input, and shared by reference
between every copy of the app that carries it (snapshot state, restored
runtimes, sibling replicas). No per-class object is kept; the loader,
the recorded names and the integrity digest read the columns.

Every sum of class sizes runs left to right (:func:`_ltr_sum`). Since
Python 3.12 the builtin ``sum`` of floats is compensated, so it would
give other sizes, and other sealed digests, than 3.10 and 3.11.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Dict, Iterable, List, Optional, Tuple


def _check_sizes(sizes: Iterable[float]) -> None:
    """Refuse any size that is not positive and finite (NaN included)."""
    for size in sizes:
        if not 0.0 < size < math.inf:
            raise ValueError(
                f"class size must be positive and finite, got {size}")


def _ltr_sum(values: Iterable[float]) -> float:
    """``values`` summed left to right, as ``sum`` did before Python 3.12."""
    return functools.reduce(operator.add, values, 0.0)


@dataclass(frozen=True)
class SyntheticClass:
    """One generated class: a name and its classfile size."""

    name: str
    size_kib: float

    def __post_init__(self) -> None:
        _check_sizes((self.size_kib,))


class ClassTable:
    """An immutable class set held as two columns, shared, never copied.

    ``names`` and ``sizes`` (KiB) are parallel tuples; iterating or
    indexing yields :class:`SyntheticClass` values built on demand.
    Nothing mutates a class table, so ``copy`` and ``deepcopy`` return
    the table itself: a checkpoint's runtime state, every runtime
    restored from it and every sibling replica hold one object. Derived
    forms (the integrity digest's canonical text) are computed once per
    table.

    ``ClassTable(classes)`` builds a table by hand from any elements; it
    keeps them, derives its columns from them and is encoded element by
    element. :func:`generate_classes` builds tables from the columns
    alone.
    """

    def __init__(self, classes: Iterable[SyntheticClass] = ()) -> None:
        self._items: Optional[tuple] = tuple(classes)

    @classmethod
    def _generated(cls, sizes: Tuple[float, ...]) -> "ClassTable":
        """The table of classes ``0 .. len(sizes) - 1`` with ``sizes``."""
        _check_sizes(sizes)
        table = cls.__new__(cls)
        table._items = None
        table.names = tuple(_names(len(sizes))[:len(sizes)])
        table.sizes = sizes
        return table

    # A generated table sets these two directly; a hand-built one
    # derives them from its elements on first use.
    @functools.cached_property
    def names(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self._items)

    @functools.cached_property
    def sizes(self) -> Tuple[float, ...]:
        return tuple(c.size_kib for c in self._items)

    def __len__(self) -> int:
        return len(self.sizes) if self._items is None else len(self._items)

    def __iter__(self):
        if self._items is None:
            return map(SyntheticClass, self.names, self.sizes)
        return iter(self._items)

    def __getitem__(self, index):
        if isinstance(index, slice):
            if self._items is None:
                return ClassTable(map(SyntheticClass, self.names[index],
                                      self.sizes[index]))
            return ClassTable(self._items[index])
        if self._items is None:
            return SyntheticClass(self.names[index], self.sizes[index])
        return self._items[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClassTable):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"ClassTable(<{len(self)} classes>)"

    def __copy__(self) -> "ClassTable":
        return self

    def __deepcopy__(self, memo) -> "ClassTable":
        return self

    @property
    def _presorted(self) -> bool:
        """Whether ``names`` is already sorted and unique.

        Generated names ``com.synthetic.ClassNNNNN`` sort by index while
        every index prints with five digits, i.e. up to 100,000 classes.
        """
        return self._items is None and len(self.sizes) <= 100_000

    @functools.cached_property
    def canonical_json(self) -> str:
        """The table's canonical JSON text, as the image digest hashes it.

        Equal, byte for byte, to the generic encoder's text for
        ``tuple(self)``. A generated table joins each name's shared
        fragment with its size's ``repr``; a hand-built table of plain
        classes is written directly, and any other takes the generic
        path.
        """
        if self._items is None:
            return _columns_text(self.sizes)
        text = _class_table_text(self._items)
        if text is None:
            # Imported here: checkpoint images sit above the runtime layer.
            from repro.criu.images import canonical_json
            text = canonical_json(self._items)
        return text


class ClassNames(tuple):
    """The sorted names of a fully loaded :class:`ClassTable`.

    What a JVM snapshot records as its loaded classes when its loader
    holds exactly its app's table (see :meth:`of`). Immutable: it
    refuses in-place edits, and ``copy`` and ``deepcopy`` return it.
    ``table`` is that table, so a restore marks the whole table loaded
    without comparing names.
    """

    table: ClassTable

    @classmethod
    def of(cls, table: ClassTable) -> "ClassNames":
        if table._presorted:
            # Generated names are verbatim JSON by construction.
            names = cls(table.names)
            names._verbatim = True
        else:
            names = cls(sorted(set(table.names)))
            # Names JSON writes verbatim between quotes (printable ASCII
            # without quote or backslash) let the text be one join.
            names._verbatim = all(type(n) is str for n in names) \
                and _is_verbatim("".join(names))
        names.table = table
        return names

    def __copy__(self) -> "ClassNames":
        return self

    def __deepcopy__(self, memo) -> "ClassNames":
        return self

    @property
    def canonical_json(self) -> str:
        """The canonical JSON text of the names, as the image digest hashes it.

        Equal, byte for byte, to the generic encoder's text for the
        equivalent list. Verbatim names are joined directly, which is
        cheap enough that no copy of the text is kept.
        """
        if not self:
            return "[]"
        if self._verbatim:
            return '["' + '", "'.join(self) + '"]'
        from repro.criu.images import canonical_json
        return canonical_json(tuple(self))


def _is_verbatim(text: str) -> bool:
    return text.isascii() and text.isprintable() \
        and '"' not in text and "\\" not in text


# One class as the canonical encoder writes an object: its attributes
# sorted by name, with "__class__" (which sorts first) naming the type.
_CLASS_HEAD = '{"__class__": "SyntheticClass", "name": %s, "size_kib": '
_CLASS_TEXT = _CLASS_HEAD + '%s}'

# Generated class ``i`` is named ``_NAMES[i]``, and ``_FRAGMENTS[i]`` is
# its text up to its size. Both lists are shared by every table and only
# ever appended to, each up to the largest table asked of it.
_NAMES: List[str] = []
_FRAGMENTS: List[str] = []


def _names(count: int) -> List[str]:
    if len(_NAMES) < count:
        _NAMES.extend(f"com.synthetic.Class{i:05d}"
                      for i in range(len(_NAMES), count))
    return _NAMES


def _columns_text(sizes: Tuple[float, ...]) -> str:
    """The canonical text of the generated table with ``sizes``."""
    count = len(sizes)
    if len(_FRAGMENTS) < count:
        _FRAGMENTS.extend(_CLASS_HEAD % encode_basestring_ascii(name)
                          for name in _names(count)[len(_FRAGMENTS):count])
    # ``map`` stops at the shorter input: the table's own classes.
    return "[" + "}, ".join(map(str.__add__, _FRAGMENTS,
                                map(float.__repr__, sizes))) + "}]"


def _class_table_text(table: Iterable[SyntheticClass]) -> Optional[str]:
    """The canonical text of ``table`` if every element is a plain class.

    A plain class is an exact :class:`SyntheticClass` with a ``str``
    name and a ``float`` size (finite, by construction); the encoder
    writes each as :data:`_CLASS_TEXT`, the size as its ``repr``, as
    ``json`` does. Returns None if any element is not plain, so the
    caller takes the generic path.
    """
    parts = []
    for cls in table:
        if type(cls) is not SyntheticClass:
            return None
        name, size = cls.name, cls.size_kib
        if type(name) is not str or type(size) is not float:
            return None
        parts.append(_CLASS_TEXT % (encode_basestring_ascii(name),
                                    float.__repr__(size)))
    return "[" + ", ".join(parts) + "]"


def generate_classes(count: int, total_kib: float, seed: int = 7) -> ClassTable:
    """Generate ``count`` classes whose sizes sum to ``total_kib``.

    Sizes follow a log-normal draw re-normalized to the exact total, so
    the set is heterogeneous (as the paper describes) yet deterministic
    for a given seed and always sums to ``total_kib`` to within float
    rounding. The draws are those of ``random.Random(seed)``, so equal
    inputs give equal tables and the result is memoized: every app of
    one function shares one table.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    if not (math.isfinite(total_kib) and total_kib > 0):
        raise ValueError(f"total_kib must be positive and finite, got {total_kib}")
    return _generate(count, total_kib, seed)


# Per seed: its generator and every draw made from it, in order. A table
# of ``count`` classes uses the first ``count`` draws, so each draw is
# made once however many tables, of whatever sizes, a seed serves.
_DRAWS: Dict[int, Tuple[random.Random, List[float]]] = {}


def _draws(seed: int, count: int) -> List[float]:
    """The first ``count`` draws of ``random.Random(seed)``."""
    entry = _DRAWS.get(seed)
    if entry is None:
        entry = _DRAWS[seed] = (random.Random(seed), [])
    rng, draws = entry
    if len(draws) < count:
        draws.extend(rng.lognormvariate(0.0, 0.6)
                     for _ in range(count - len(draws)))
    return draws[:count]


@functools.lru_cache(maxsize=64)
def _generate(count: int, total_kib: float, seed: int) -> ClassTable:
    raw = _draws(seed, count)
    scale = total_kib / _ltr_sum(raw)
    return ClassTable._generated(tuple(map(scale.__mul__, raw)))


def total_size_kib(classes: ClassTable) -> float:
    """Sum of classfile sizes of a class table, left to right."""
    return _ltr_sum(classes.sizes)
