"""A descriptor holds, encodes and windows each dumped VMA per run of pages.

A descriptor keeps its pages as ``(first index, count, tag id)`` runs
and streams its canonical text from them (slices of one shared decimal
text and blocks of each run's repeated tag); ``image_windows`` looks
up one window key per run of equal full windows. Each must give, byte
for byte, what the per-page forms give: the index list and tag tuple
the descriptor was built from, ``json.dumps`` of them, ``tags_of`` of
the dump's ids, and a walk that formats and hashes every window. The
sealed digests and the integrity check must not change either.
"""

from __future__ import annotations

import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import make_world
from repro.core.bake import Prebaker
from repro.core.policy import AfterWarmup
from repro.criu import images
from repro.criu.images import (
    CheckpointImage,
    FdDescriptor,
    VMADescriptor,
    build_image_files,
)
from repro.criu.pagestore import chunk_id, image_windows
from repro.faults.errors import SnapshotCorrupted
from repro.functions import make_app
from repro.osproc.memory import TAGS, page_runs

# Tags JSON must escape: quotes, backslashes, control and non-ASCII.
_tags = st.one_of(
    st.sampled_from(["", "heap", 'q"uote', "back\\slash", "nul\x00",
                     "tab\tnl\n", "é", "☃", "\U0001f600", "\x7f"]),
    st.text(max_size=6))


@st.composite
def _runs_of(draw, values, max_runs=6, max_length=150):
    """A list made of runs: each a value drawn from ``values``, repeated."""
    out = []
    for _ in range(draw(st.integers(0, max_runs))):
        out += [draw(values)] * draw(st.integers(1, max_length))
    return out


@st.composite
def _ascending(draw, max_runs=6, max_gap=200, max_length=150, first=None):
    """Strictly ascending indices made of runs of consecutive values."""
    out = []
    at = draw(st.integers(0, 3000)) if first is None else first
    for _ in range(draw(st.integers(0, max_runs))):
        length = draw(st.integers(1, max_length))
        out += range(at, at + length)
        at += length + draw(st.integers(1, max_gap))
    return out


@st.composite
def _pages(draw):
    """(indices, tags) of one VMA: ascending runs, tags in runs of equal tags."""
    indices = draw(st.one_of(
        _ascending(),
        _ascending(first=0),
        # One page in two: a run per page.
        st.integers(0, 40).map(lambda n: list(range(0, 2 * n, 2))),
        st.lists(st.integers(0, 5000), unique=True, max_size=30).map(sorted)))
    tag_runs = draw(_runs_of(_tags, max_length=max(1, len(indices))))
    tags = (tag_runs + [""] * len(indices))[:len(indices)]
    return indices, tags


def _fields(label="heap", file_path=None):
    return dict(start=0x7F00_0000_0000, length=1 << 40, kind="anon",
                prot="rw-", label=label, file_path=file_path,
                file_offset=0, file_size=0)


def _streamed(desc: VMADescriptor) -> bytes:
    pieces = []
    desc.stream(lambda piece: pieces.append(bytes(piece)))
    return b"".join(pieces)


def _check_texts(desc: VMADescriptor, indices=None, tags=None) -> None:
    """``desc`` holds ``indices`` and ``tags`` (its own per-page forms by
    default) and streams exactly their ``json.dumps``."""
    if indices is None:
        indices, tags = desc.resident_indices.tolist(), desc.content_tags
    assert desc.resident_indices.tolist() == list(indices)
    assert desc.content_tags == tuple(tags)
    assert TAGS.tags_of(desc.tag_ids) == list(tags)
    assert desc.resident_pages == len(indices)
    assert _streamed(desc) == json.dumps(
        desc._fields() + [list(indices), list(tags)]).encode("utf-8")


def _dumped(indices, tags) -> VMADescriptor:
    """A descriptor built as a dump builds it: runs of the two arrays."""
    return VMADescriptor(runs=page_runs(np.array(indices, dtype=np.int64),
                                        TAGS.intern_many(tags)), **_fields())


# -- (a) index and tag texts --------------------------------------------------

@given(_pages(), st.booleans())
@settings(max_examples=200, deadline=None)
@example(([], []), False)
@example(([0], ["a"]), False)
@example(([7], ['"\\\x00é']), True)
@example((list(range(64)) + list(range(100, 164)), ["x"] * 64 + ["y"] * 64), True)
@example(([0, 2, 4, 6], ["a", "b", "a", "b"]), False)
@example((list(range(3000)), ["long-tag-" * 5] * 2999 + ["z"]), True)
def test_run_texts_equal_the_per_page_json(pages, as_dump):
    indices, tags = pages
    if as_dump:
        desc = _dumped(indices, tags)
    else:
        desc = VMADescriptor.from_pages(tuple(indices), tuple(tags),
                                        **_fields())
    _check_texts(desc, indices, tags)


@given(st.lists(st.integers(-5, 3000), max_size=40), _tags)
@settings(max_examples=150, deadline=None)
@example([3, 1, 2], "t")
@example([2, 2, 3], "t")
@example([-1, 0, 1], "t")
@example([0, 1, 1 << 30], "t")
def test_lists_in_any_order_encode_as_the_per_page_json(indices, tag):
    # Descriptors built by hand from lists: negative, repeated and
    # unsorted indices still make runs, in list order.
    desc = VMADescriptor.from_pages(indices, (tag,) * len(indices),
                                    **_fields())
    _check_texts(desc, indices, (tag,) * len(indices))


def test_indices_past_the_decimal_text_grow_it_exactly():
    limit = images._DECIMAL_LIMIT
    grown = len(images._DECIMALS.offsets) - 1
    for first in (grown, grown + 1, grown + 9_000, limit - 20, limit - 8):
        first = min(first, limit - 8)
        indices = list(range(first, first + 5)) + [first + 7]
        desc = VMADescriptor.from_pages(indices, ("p",) * len(indices),
                                        **_fields())
        _check_texts(desc, indices, ("p",) * len(indices))
    # Grown to the largest index asked (limit - 1), and no further.
    assert len(images._DECIMALS.offsets) - 1 == limit
    # The text is the items of 0, 1, 2, ... and nothing else.
    count = len(images._DECIMALS.offsets) - 1
    assert bytes(images._DECIMALS.text) == "".join(
        f"{i}, " for i in range(count)).encode("ascii")


def test_indices_past_the_limit_are_encoded_item_by_item():
    limit = images._DECIMAL_LIMIT
    before = len(images._DECIMALS.offsets)
    indices = [0, 1, limit - 1, limit, limit + 1]
    desc = VMADescriptor.from_pages(indices, ("z",) * 5, **_fields())
    _check_texts(desc, indices, ("z",) * 5)
    assert len(images._DECIMALS.offsets) == before


@given(_pages(), st.integers(1, 200), st.integers(0, 300))
@settings(max_examples=100, deadline=None)
def test_tampered_descriptors_encode_as_the_per_page_json(pages, count, first):
    indices, tags = pages
    image = _image([_dumped(indices, tags)])
    image.tamper(pages=count, first_page=first)
    tampered = list(tags)
    if tags:
        start = min(first, len(tags) - 1)
        for offset in range(start, min(start + count, len(tags))):
            tampered[offset] += "\x00corrupt"
    _check_texts(image.vmas[0], indices, tampered)


# -- (b) the runs -------------------------------------------------------------

@given(_runs_of(_tags, max_runs=8, max_length=300))
@settings(max_examples=150, deadline=None)
def test_dump_runs_give_the_tags_of_the_ids(tags):
    ids = TAGS.intern_many(tags)
    desc = VMADescriptor(runs=page_runs(np.arange(len(ids), dtype=np.int64),
                                        ids), **_fields())
    assert desc.content_tags == tuple(TAGS.tags_of(ids))
    assert np.array_equal(desc.tag_ids, ids)
    assert not desc.runs.flags.writeable
    by_hand = VMADescriptor.from_pages(list(range(len(tags))), tuple(tags),
                                       **_fields())
    assert desc == by_hand
    assert _streamed(desc) == _streamed(by_hand)


@given(st.lists(st.tuples(st.integers(-3, 60), st.sampled_from("abc")),
                max_size=80))
@settings(max_examples=150, deadline=None)
def test_runs_are_maximal_and_expand_to_the_pages(pages):
    indices = np.array([i for i, _ in pages], dtype=np.int64)
    ids = TAGS.intern_many([t for _, t in pages])
    runs = page_runs(indices, ids)
    assert runs.dtype == np.int64 and runs.shape == (len(runs), 3)
    assert (runs[:, 1] > 0).all() and runs[:, 1].sum() == len(pages)
    # No two neighbouring runs could be one.
    joinable = ((runs[1:, 0] == runs[:-1, 0] + runs[:-1, 1])
                & (runs[1:, 2] == runs[:-1, 2]))
    assert not joinable.any()
    desc = VMADescriptor(runs=runs, **_fields())
    assert np.array_equal(desc.resident_indices, indices)
    assert np.array_equal(desc.tag_ids, ids)


def test_streaming_builds_no_text_of_the_pages():
    # A dumped VMA of many pages in one run: the index text is a view
    # of the shared decimal text, the tags come in bounded blocks that
    # every stream of the tag shares.
    count = 40_000
    desc = _dumped(list(range(count)), ["heap:" + "x" * 20] * count)
    pieces, again = [], []
    desc.stream(pieces.append)
    desc.stream(again.append)
    texts = [p.obj if isinstance(p, memoryview) else p for p in pieces]
    for text in texts:
        if text is not images._DECIMALS.text:
            assert len(text) <= images._TAG_BLOCK
    blocks = [t for t in texts if len(t) > images._TAG_BLOCK // 2
              and t is not images._DECIMALS.text]
    assert blocks
    assert all(t is u.obj if isinstance(u, memoryview) else t is u
               for t, u in zip(texts, again) if t in blocks)
    del pieces, again, texts, blocks
    _check_texts(desc, list(range(count)), ["heap:" + "x" * 20] * count)


# -- (c) windows by runs ------------------------------------------------------

def _reference_windows(image: CheckpointImage, chunk_pages: int):
    """Group pages by chunk in position order; format and hash every window."""
    out = []
    for vma_index, vma in enumerate(image.vmas):
        pages = zip(vma.resident_indices.tolist(), vma.content_tags)
        for chunk, group in itertools.groupby(
                pages, key=lambda page: page[0] // chunk_pages):
            start = chunk * chunk_pages
            pairs = tuple((index - start, tag) for index, tag in group)
            out.append((vma_index, start, pairs,
                        chunk_id(vma.kind, vma.prot, pairs)))
    return tuple(out)


def _image(vmas) -> CheckpointImage:
    image = CheckpointImage(
        image_id="img-runs", pid=77, comm="java", argv=["java", "-jar", "f.jar"],
        created_at_ms=1.0, namespace_ids={"pid": 1}, vmas=list(vmas),
        fds=[FdDescriptor(fd=3, path="/f.jar", offset=0, flags="r",
                          is_socket=False, file_size=10),
             FdDescriptor(fd=4, path="socket:[77]", offset=0, flags="rw",
                          is_socket=True)],
        runtime_state={"kind": "jvm", "extra": {"n": [1, 2.5, "x"]}})
    build_image_files(image)
    return image


@given(st.lists(_pages(), min_size=1, max_size=3),
       st.sampled_from([1, 2, 3, 8, 64]))
@settings(max_examples=150, deadline=None)
@example([(list(range(256)), ["a"] * 130 + ["b"] * 126)], 64)
@example([(list(range(64)) + list(range(512, 640)), ["a"] * 192)], 64)
@example([(list(range(5, 300)), ["a"] * 123 + ["b"] * 172)], 64)
def test_windows_equal_the_per_window_walk(vmas, chunk_pages):
    image = _image(_dumped(indices, tags) for indices, tags in vmas)
    memo = {}
    assert image_windows(image, chunk_pages, memo) == \
        _reference_windows(image, chunk_pages)
    # A second image over the same memo sees the same windows.
    again = _image(_dumped(indices, tags) for indices, tags in vmas)
    assert image_windows(again, chunk_pages, memo) == \
        _reference_windows(again, chunk_pages)


@given(st.lists(st.tuples(st.integers(0, 400), st.sampled_from("ab")),
                max_size=60), st.sampled_from([1, 4, 64]))
@settings(max_examples=100, deadline=None)
def test_windows_of_unordered_hand_built_lists(pages, chunk_pages):
    desc = VMADescriptor.from_pages([i for i, _ in pages],
                                    tuple(t for _, t in pages), **_fields())
    image = _image([desc])
    assert image_windows(image, chunk_pages) == \
        _reference_windows(image, chunk_pages)


# -- (d) baked images: digests and the integrity check ------------------------

@pytest.fixture(scope="module")
def baked():
    world = make_world(seed=3)
    return Prebaker(world.kernel).bake(make_app("noop"),
                                       policy=AfterWarmup(1)).image


def test_baked_descriptors_and_windows_equal_the_per_page_forms(baked):
    for vma in baked.vmas:
        _check_texts(vma)
        assert vma.content_tags == tuple(TAGS.tags_of(vma.tag_ids))
    assert image_windows(baked) == _reference_windows(baked, 64)


def _resealed(image: CheckpointImage, pages: bool = True) -> CheckpointImage:
    """A sealed copy of ``image`` whose lists and state are its own.

    Without ``pages`` every VMA keeps its geometry but no resident page.
    """
    vmas = [vma if pages else vma.with_pages((), ()) for vma in image.vmas]
    copy = dataclasses.replace(image, argv=list(image.argv),
                               fds=list(image.fds), vmas=vmas,
                               runtime_state=dict(image.runtime_state))
    copy.seal()
    return copy


def test_seal_equals_the_digest_computed_apart(baked):
    image = _resealed(baked)
    assert image.digest == baked.digest == image.compute_digest()
    bare = _resealed(baked, pages=False)
    assert bare.digest == bare.compute_digest()
    assert bare.digest != image.digest


def _tamper_pages(image):
    image.tamper(pages=1)


def _tamper_meta(image):
    image.tamper()  # no page carries a tag, so the metadata is hit
    assert image.comm.endswith("\x00corrupt")


def _edit_runtime_state(image):
    image.runtime_state["edited"] = True


def _edit_argv(image):
    image.argv.append("--debug")


def _edit_fd(image):
    image.fds[0] = dataclasses.replace(image.fds[0], offset=image.fds[0].offset + 1)


@pytest.mark.parametrize("edit", [_tamper_pages, _tamper_meta,
                                  _edit_runtime_state, _edit_argv, _edit_fd])
def test_verify_integrity_catches_each_edit_after_sealing(baked, edit):
    image = _resealed(baked, pages=edit is not _tamper_meta)
    image.verify_integrity()
    edit(image)
    # Every check re-hashes: it fails, and fails again.
    for _ in range(2):
        with pytest.raises(SnapshotCorrupted):
            image.verify_integrity()


def test_verify_integrity_rehashes_after_a_passing_check(baked):
    image = _resealed(baked)
    image.verify_integrity()
    image.argv.append("--debug")
    with pytest.raises(SnapshotCorrupted):
        image.verify_integrity()
    image.argv.pop()
    image.verify_integrity()
