"""The bake path does its work once per distinct content, exactly.

A class table's canonical text is written directly, a VMA's canonical
bytes are streamed from its page runs, tags are interned once per distinct tag, and
a page store memoizes each chunk window's pairs and id on its content.
Each shortcut is checked here against the generic computation it
replaces, so digests and chunk ids cannot drift.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import make_world
from repro.core.bake import Prebaker
from repro.core.policy import AfterReady, AfterWarmup
from repro.criu.images import VMADescriptor, canonical_json
from repro.criu.pagestore import (
    CHUNK_PAGES,
    PageStore,
    chunk_id,
    image_windows,
    layer_image,
)
from repro.functions import make_app
from repro.osproc.memory import PAGE_SIZE, _TagTable
from repro.runtime.classes import ClassTable, SyntheticClass, _class_table_text

_dumps = json.JSONEncoder().encode

# -- (a) class-table text -----------------------------------------------------

_names = st.text(alphabet=st.sampled_from(
    ['a', 'Z', '0', '.', '$', '"', '\\', '/', '\n', '\t', '\x00', '\x7f',
     'é', 'ß', '中', ' ', '\U0001f600']), max_size=12)
_sizes = st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(_names, _sizes), max_size=20))
@example([])
@example([('say "hi"\\', 5e-324), ("ü\x01", 1e16), ("x", 1e-7), ("y", 2.5)])
@example([("big", 1.7976931348623157e308), ("tiny", 2.2250738585072014e-308)])
@settings(max_examples=200, deadline=None)
def test_class_table_text_equals_the_generic_encoder(entries):
    table = ClassTable(SyntheticClass(name, size) for name, size in entries)
    assert _class_table_text(table) is not None  # the direct path ran
    assert table.canonical_json == canonical_json(tuple(table))


class _Sub(SyntheticClass):
    """A subclass: its ``__class__`` entry names the subclass."""


@pytest.mark.parametrize("odd", [
    "not-a-class",
    None,
    SyntheticClass("int-size", 3),
    _Sub("sub", 1.0),
    SyntheticClass(7, 1.0),
], ids=["str", "none", "int-size", "subclass", "int-name"])
def test_class_table_with_an_odd_element_takes_the_generic_path(odd):
    table = ClassTable([SyntheticClass("a", 1.5), odd])
    assert _class_table_text(table) is None
    assert table.canonical_json == canonical_json(tuple(table))


# -- (b) VMA canonical bytes --------------------------------------------------

def _old_canonical(vma):
    """The canonical bytes as encoded before they reused the meta text."""
    return _dumps([vma.start, vma.length, vma.kind, vma.prot, vma.label,
                   vma.file_path, vma.file_offset, vma.file_size,
                   vma.resident_indices.tolist(),
                   vma.content_tags]).encode("utf-8")


@given(
    pages=st.lists(st.tuples(st.integers(0, 4095), _names),
                   max_size=40, unique_by=lambda p: p[0]),
    label=_names,
    file_path=st.one_of(st.none(), _names),
)
@settings(max_examples=150, deadline=None)
def test_vma_canonical_equals_the_direct_encoding(pages, label, file_path):
    pages.sort()
    vma = VMADescriptor.from_pages(
        tuple(i for i, _ in pages), tuple(t for _, t in pages),
        start=0x7f00_0000, length=4096 * PAGE_SIZE, kind="anon", prot="rw-",
        label=label, file_path=file_path, file_offset=0, file_size=0)
    streamed = []
    vma.stream(lambda piece: streamed.append(bytes(piece)))
    assert b"".join(streamed) == _old_canonical(vma)


# -- (c) tag interning --------------------------------------------------------

@given(st.lists(st.sampled_from(["", "heap", "jit", "x\x00y", "é"]), max_size=50))
def test_intern_many_gives_the_ids_of_one_at_a_time_interning(tags):
    bulk, single = _TagTable(), _TagTable()
    single.intern("preset")
    bulk.intern("preset")
    ids = bulk.intern_many(tags)
    assert ids.tolist() == [single.intern(t) for t in tags]
    assert [bulk.tag(i) for i in range(len(bulk))] == \
        [single.tag(i) for i in range(len(single))]


# -- (d) the chunk-window memo ------------------------------------------------

def _reference_windows(image, chunk_pages):
    """Every window split page by page and hashed with ``chunk_id``."""
    out = []
    for vma_index, vma in enumerate(image.vmas):
        windows = {}
        for index, tag in zip(vma.resident_indices.tolist(), vma.content_tags):
            start = (index // chunk_pages) * chunk_pages
            windows.setdefault(start, []).append((index - start, tag))
        for start, pairs in windows.items():
            out.append((vma_index, start, tuple(pairs),
                        chunk_id(vma.kind, vma.prot, pairs)))
    return tuple(out)


@pytest.fixture(scope="module")
def bakes():
    """Two functions baked in one world (they share the runtime base)."""
    world = make_world(seed=11)
    baker = Prebaker(world.kernel)
    return [baker.bake(make_app("noop"), policy=AfterReady()).image,
            baker.bake(make_app("markdown"), policy=AfterWarmup(1)).image]


def _fresh(image):
    """A copy of the image with no windows cached on it (tamper-safe)."""
    return replace(image, vmas=list(image.vmas))


@pytest.mark.parametrize("chunk_pages", [1, 16, CHUNK_PAGES])
def test_warm_memo_gives_the_windows_of_a_cold_walk(bakes, chunk_pages):
    noop, markdown = bakes
    store = PageStore(chunk_pages)
    layer_image(_fresh(noop), store)
    warm = len(store.window_memo)
    assert warm > 0
    windows = image_windows(_fresh(markdown), chunk_pages, store.window_memo)
    assert windows == _reference_windows(markdown, chunk_pages)
    assert image_windows(_fresh(markdown), chunk_pages) == windows
    # The runtime base the two share is not added to the memo twice.
    assert len(store.window_memo) < warm + len(windows)


def test_memo_hit_registers_the_same_chunks_and_dedup(bakes):
    noop, markdown = bakes
    warm, cold = PageStore(), PageStore()
    for image in (noop, markdown):
        cold.window_memo.clear()
        assert layer_image(_fresh(image), warm).chunk_refs == \
            layer_image(_fresh(image), cold).chunk_refs
    assert warm.dedup_hits == cold.dedup_hits
    assert warm.physical_bytes == cold.physical_bytes


def test_tampered_image_gets_fresh_ids(bakes):
    image = _fresh(bakes[1])
    store = PageStore()
    before = [ref.chunk_id for ref in layer_image(image, store).chunk_refs]
    image.tamper(pages=3)
    after = [cid for _, _, _, cid in image_windows(image, memo=store.window_memo)]
    assert after != before
    assert tuple(image_windows(image, memo=store.window_memo)) == \
        _reference_windows(image, CHUNK_PAGES)


def test_new_store_and_new_world_start_with_an_empty_memo(bakes):
    assert PageStore().window_memo == {}
    baker = Prebaker(make_world(seed=11).kernel)
    assert baker.store.pages.window_memo == {}
    baker.bake(make_app("noop"), policy=AfterReady())
    assert baker.store.pages.window_memo
    assert Prebaker(make_world(seed=11).kernel).store.pages.window_memo == {}
