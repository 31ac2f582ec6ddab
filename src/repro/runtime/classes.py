"""Synthetic class generation (paper §4.2.2).

The paper's sensitivity analysis uses "synthetically generated
functions, which vary in the code size": small = 374 classes / 2.8 MiB,
medium = 574 / 9.2 MiB, big = 1574 / 41 MiB. It notes that "the loaded
classes have different sizes, and that is the reason for the growth in
the number of classes does not match the size linearly" — so the
generator draws heterogeneous per-class sizes that sum exactly to the
requested total.

A generated set is a :class:`ClassTable`: immutable, memoized per
generator input, and shared by reference between every copy of the app
that carries it (snapshot state, restored runtimes, sibling replicas).
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Iterable, Optional


@dataclass(frozen=True)
class SyntheticClass:
    """One generated class: a name and its classfile size."""

    name: str
    size_kib: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.size_kib) and self.size_kib > 0):
            raise ValueError(
                f"class size must be positive and finite, got {self.size_kib}")


class ClassTable(tuple):
    """An immutable tuple of :class:`SyntheticClass`, shared, never copied.

    Nothing mutates a class table after generation, so ``copy`` and
    ``deepcopy`` return the table itself: a checkpoint's runtime state,
    every runtime restored from it and every sibling replica hold one
    object. Derived forms that depend only on the contents (the
    integrity digest's canonical text) are computed once per table.
    """

    def __copy__(self) -> "ClassTable":
        return self

    def __deepcopy__(self, memo) -> "ClassTable":
        return self

    @functools.cached_property
    def canonical_json(self) -> str:
        """The table's canonical JSON text, as the image digest hashes it.

        Equal, byte for byte, to the generic encoder's text for
        ``tuple(self)``; a table of plain classes is written directly
        instead of walked attribute by attribute.
        """
        text = _class_table_text(self)
        if text is None:
            # Imported here: checkpoint images sit above the runtime layer.
            from repro.criu.images import canonical_json
            text = canonical_json(tuple(self))
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
        names = cls(sorted({c.name for c in table}))
        names.table = table
        # Names JSON writes verbatim between quotes (printable ASCII
        # without quote or backslash) let the text be one join.
        names._verbatim = all(type(n) is str for n in names) \
            and _is_verbatim("".join(names))
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
_CLASS_TEXT = '{"__class__": "SyntheticClass", "name": %s, "size_kib": %s}'


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
    rounding. The draw uses its own ``random.Random(seed)``, so equal
    inputs give equal tables and the result is memoized: every app of
    one function shares one table.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    if not (math.isfinite(total_kib) and total_kib > 0):
        raise ValueError(f"total_kib must be positive and finite, got {total_kib}")
    return _generate(count, total_kib, seed)


@functools.lru_cache(maxsize=64)
def _generate(count: int, total_kib: float, seed: int) -> ClassTable:
    rng = random.Random(seed)
    raw = [rng.lognormvariate(0.0, 0.6) for _ in range(count)]
    scale = total_kib / sum(raw)
    return ClassTable(
        SyntheticClass(name=f"com.synthetic.Class{i:05d}", size_kib=w * scale)
        for i, w in enumerate(raw)
    )


def total_size_kib(classes: Iterable[SyntheticClass]) -> float:
    """Sum of classfile sizes for a generated set."""
    return sum(c.size_kib for c in classes)
