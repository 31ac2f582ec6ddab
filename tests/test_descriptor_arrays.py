"""A VMA descriptor holds its resident pages as runs.

Every byte a descriptor contributes (its streamed canonical text and
the image digest) and every page a tamper changes must be what a
descriptor holding a tuple of Python ints gave. The reference below
is written from that tuple form, independently of the encoder.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.criu.images import (
    CheckpointImage,
    FdDescriptor,
    VMADescriptor,
    build_image_files,
)
from repro.osproc.memory import PAGE_SIZE

_tags = st.sampled_from(["", "heap", "jit", "x\x00y", "é", "text:/bin/java"])


@st.composite
def _pages(draw):
    """(page count, sorted resident indices, parallel tags) of one VMA."""
    page_count = draw(st.integers(1, 70_000))
    indices = sorted(draw(st.sets(st.integers(0, page_count - 1), max_size=40)))
    tags = [draw(_tags) for _ in indices]
    return page_count, tuple(indices), tuple(tags)


_vmas = st.lists(_pages(), min_size=1, max_size=4)


def _fields(i, page_count):
    return dict(start=0x7F00_0000_0000 + i * 2**32,
                length=page_count * PAGE_SIZE, kind="anon", prot="rw-",
                label=f"v{i}", file_path=None if i % 2 else f"/lib/{i}.so",
                file_offset=0, file_size=4096 * i)


def _image(vmas, as_array):
    descs = []
    for i, (page_count, indices, tags) in enumerate(vmas):
        pages = np.array(indices, dtype=np.int64) if as_array else indices
        descs.append(VMADescriptor.from_pages(pages, tags,
                                              **_fields(i, page_count)))
    image = CheckpointImage(
        image_id="img-ref", pid=4242, comm="java",
        argv=["java", "-jar", "fn.jar"], created_at_ms=12.5,
        namespace_ids={"pid": 3, "net": 9}, vmas=descs,
        fds=[FdDescriptor(fd=3, path="/app/fn.jar", offset=0, flags="r",
                          is_socket=False, file_size=4096)],
        runtime_state={"kind": "jvm", "booted": True, "ready": True,
                       "requests_served": 1, "app": None, "extra": {}},
        warm=True)
    build_image_files(image)
    return image


def _reference_row(i, page_count, indices, tags):
    f = _fields(i, page_count)
    return [f["start"], f["length"], f["kind"], f["prot"], f["label"],
            f["file_path"], f["file_offset"], f["file_size"], list(indices),
            list(tags)]


def _reference_digest(image, vmas):
    """SHA-256 of the whole restore-relevant object, dumped in one go."""
    doc = {
        "argv": image.argv,
        "comm": image.comm,
        "fds": [[f.fd, f.path, f.offset, f.flags, f.is_socket, f.file_size]
                for f in image.fds],
        "files": {name: f.size_bytes for name, f in image.files.items()},
        "namespaces": image.namespace_ids,
        "pid": image.pid,
        "runtime_state": image.runtime_state,
        "vmas": [_reference_row(i, *vma) for i, vma in enumerate(vmas)],
        "warm": image.warm,
    }
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


@given(_vmas)
@settings(max_examples=60, deadline=None)
def test_canonical_bytes_and_digest_match_the_tuple_reference(vmas):
    for as_array in (False, True):
        image = _image(vmas, as_array)
        for i, (desc, vma) in enumerate(zip(image.vmas, vmas)):
            assert desc.resident_indices.dtype == np.int64
            assert not desc.runs.flags.writeable
            streamed = []
            desc.stream(lambda piece: streamed.append(bytes(piece)))
            assert b"".join(streamed) == json.dumps(
                _reference_row(i, *vma)).encode("utf-8")
        assert image.compute_digest() == _reference_digest(image, vmas)


@given(_vmas, st.integers(1, 50), st.integers(0, 60))
@settings(max_examples=60, deadline=None)
def test_tamper_changes_the_pages_of_the_tuple_reference(vmas, pages, first):
    image = _image(vmas, as_array=True)
    image.seal()
    image.tamper(pages=pages, first_page=first)
    tampered = [list(tags) for _, _, tags in vmas]
    hit = False
    for index, (_, _, tags) in enumerate(vmas):
        if tags:
            start = min(first, len(tags) - 1)
            for offset in range(start, min(start + pages, len(tags))):
                tampered[index][offset] += "\x00corrupt"
            hit = True
            break
    assert image.comm.endswith("\x00corrupt") is (not hit)
    if hit:
        after = [(count, indices, tuple(tags)) for (count, indices, _), tags
                 in zip(vmas, tampered)]
        assert image.compute_digest() == _reference_digest(image, after)
        assert image.compute_digest() != image.digest
