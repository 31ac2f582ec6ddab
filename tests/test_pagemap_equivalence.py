"""Fast/slow pagemap backend equivalence.

The vectorized :class:`~repro.osproc.memory.VMA` replaced the
dict-of-Page implementation that now survives as
:class:`~repro.osproc.memory.SlowVMA` (``REPRO_SLOW_PAGEMAP=1``). The
two must be observationally identical — same residency, same tags,
same dump/diff/working-set results — on *any* operation sequence, and
whole experiments must render byte-identically under either backend.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.osproc.memory import (
    PAGE_SIZE,
    MemoryError_,
    SlowVMA,
    TAGS,
    VMA,
    VMAKind,
    page_runs,
    pagemap_backend,
    set_slow_pagemap,
    slow_pagemap_enabled,
)

PAGES = 64
# An anonymous mapping's remaining fields.
NO_FILE = dict(prot="rw-", file_path=None, file_offset=0, label="")

# One mutation step against a 64-page VMA. Indices/counts are kept in
# range: error behaviour is pinned separately, the property is about
# state evolution.
_tags = st.sampled_from(["", "a", "b", "heap:x", "text:/bin/app"])
_ops = st.one_of(
    st.tuples(st.just("touch"),
              st.integers(min_value=0, max_value=PAGES - 1),
              _tags, st.booleans()),
    st.tuples(st.just("touch_range"),
              st.integers(min_value=0, max_value=PAGES - 1),
              st.integers(min_value=0, max_value=PAGES),
              _tags),
    st.tuples(st.just("clear_soft_dirty")),
)


def _apply(vma, op):
    if op[0] == "touch":
        _, index, tag, dirty = op
        vma.touch(index, content_tag=tag, dirty=dirty)
    elif op[0] == "touch_range":
        _, first, count, tag = op
        count = min(count, PAGES - first)
        if count > 0:
            vma.touch_range(first, count, content_tag=tag)
    else:
        vma.clear_soft_dirty()


def _observe(vma):
    """Everything checkpoint/diff/restore can see of a VMA."""
    return {
        "resident_pages": vma.resident_pages,
        "resident_bytes": vma.resident_bytes,
        "resident_indices": vma.resident_indices.tolist(),
        "pages": {
            index: (page.content_tag, page.dirty, page.soft_dirty)
            for index, page in vma.pages.items()
        },
        "dump_full": vma.dump_pages(),
        "touched": vma.touched_indices().tolist(),
        "touched_floor": vma.touched_indices(floor=True).tolist(),
    }


class TestBackendEquivalence:
    @given(ops=st.lists(_ops, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_any_op_sequence_observes_identically(self, ops):
        fast = VMA(start=0, length=PAGES * PAGE_SIZE, kind=VMAKind.ANON, **NO_FILE)
        slow = SlowVMA(start=0, length=PAGES * PAGE_SIZE, kind=VMAKind.ANON, **NO_FILE)
        for op in ops:
            _apply(fast, op)
            _apply(slow, op)
        assert _observe(fast) == _observe(slow)

    @given(ops=st.lists(_ops, min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_populate_pages_equivalence(self, ops):
        source = VMA(start=0, length=PAGES * PAGE_SIZE, kind=VMAKind.ANON, **NO_FILE)
        for op in ops:
            _apply(source, op)
        indices, tags = source.dump_pages()
        fast = VMA(start=0, length=PAGES * PAGE_SIZE, kind=VMAKind.ANON, **NO_FILE)
        slow = SlowVMA(start=0, length=PAGES * PAGE_SIZE, kind=VMAKind.ANON, **NO_FILE)
        tag_ids = TAGS.intern_many(tags)
        fast.populate_pages(indices, tag_ids)
        slow.populate_pages(indices, tag_ids)
        assert _observe(fast) == _observe(slow)

    @given(ops=st.lists(_ops, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_restore_pages_equivalence(self, ops):
        source = VMA(start=0, length=PAGES * PAGE_SIZE, kind=VMAKind.ANON, **NO_FILE)
        for op in ops:
            _apply(source, op)
        indices, tag_ids = source.dump_arrays()
        restored = []
        for backend in (VMA, SlowVMA):
            fresh = backend(start=0, length=PAGES * PAGE_SIZE,
                            kind=VMAKind.ANON, **NO_FILE)
            fresh.restore_pages(page_runs(indices, tag_ids))
            restored.append(_observe(fresh))
        populated = VMA(start=0, length=PAGES * PAGE_SIZE, kind=VMAKind.ANON, **NO_FILE)
        populated.populate_pages(indices, tag_ids)
        assert restored[0] == restored[1] == _observe(populated)

    @pytest.mark.parametrize("backend", [VMA, SlowVMA])
    def test_restore_pages_refuses_a_used_or_too_small_mapping(self, backend):
        runs = page_runs(np.array([0, 5, PAGES - 1], dtype=np.int64),
                         TAGS.intern_many(["a", "b", "c"]))
        used = backend(start=0, length=PAGES * PAGE_SIZE, kind=VMAKind.ANON, **NO_FILE)
        used.touch(3, content_tag="x")
        with pytest.raises(MemoryError_, match="fresh mapping"):
            used.restore_pages(runs)
        small = backend(start=0, length=(PAGES - 1) * PAGE_SIZE,
                        kind=VMAKind.ANON, **NO_FILE)
        with pytest.raises(MemoryError_, match="out of range"):
            small.restore_pages(runs)
        assert small.resident_pages == 0

    @given(ops=st.lists(_ops, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_dump_arrays_equal_dump_pages(self, ops):
        for backend in (VMA, SlowVMA):
            vma = backend(start=0, length=PAGES * PAGE_SIZE,
                          kind=VMAKind.ANON, **NO_FILE)
            for op in ops:
                _apply(vma, op)
            indices, tag_ids = vma.dump_arrays()
            assert indices.dtype == np.int64 and tag_ids.dtype == np.int32
            assert (tuple(indices.tolist()), tuple(TAGS.tags_of(tag_ids))) \
                == vma.dump_pages()

    def test_iter_pages_orders_by_index(self):
        for backend in (VMA, SlowVMA):
            vma = backend(start=0, length=PAGES * PAGE_SIZE,
                          kind=VMAKind.ANON, **NO_FILE)
            for index in (9, 3, 41, 0):
                vma.touch(index, content_tag=f"p{index}")
            assert [p.index for p in vma.iter_pages()] == [0, 3, 9, 41]


def _restored_pagemaps(image, slow: bool):
    """Every VMA of ``image`` restored under one backend, observed."""
    from repro.criu.restore import RestoreEngine
    from repro import make_world
    entry = slow_pagemap_enabled()
    try:
        set_slow_pagemap(slow)
        proc = RestoreEngine(make_world(seed=5).kernel).restore(image)
        vmas = proc.address_space.vmas
        assert all(type(v) is (SlowVMA if slow else VMA) for v in vmas)
        return [(v.start, v.label, _observe(v)) for v in vmas]
    finally:
        set_slow_pagemap(entry)


@pytest.mark.parametrize("name", ["markdown", "synthetic-small"])
def test_both_backends_restore_a_baked_image_identically(name):
    from repro import make_world
    from repro.core.bake import Prebaker
    from repro.core.policy import AfterWarmup
    from repro.functions import make_app
    world = make_world(seed=5)
    image = Prebaker(world.kernel).bake(
        make_app(name), policy=AfterWarmup(1)).image
    fast = _restored_pagemaps(image, slow=False)
    assert fast == _restored_pagemaps(image, slow=True)
    # What was dumped is what comes back, page for page.
    dumped = [(d.start, d.label, tuple(d.resident_indices.tolist()),
               d.content_tags)
              for d in image.vmas]
    assert [(start, label, tuple(seen["dump_full"][0]),
             tuple(seen["dump_full"][1])) for start, label, seen in fast] \
        == dumped


class TestBackendSwitch:
    @pytest.mark.skipif(os.environ.get("REPRO_SLOW_PAGEMAP", "")
                        not in ("", "0"),
                        reason="suite running under the reference backend")
    def test_default_backend_is_vectorized(self):
        assert not slow_pagemap_enabled()
        assert pagemap_backend() is VMA

    def test_switch_is_reversible_and_honoured_by_mmap(self):
        from repro.osproc.memory import AddressSpace
        entry = slow_pagemap_enabled()
        try:
            set_slow_pagemap(True)
            assert pagemap_backend() is SlowVMA
            space = AddressSpace()
            vma = space.mmap(length=PAGE_SIZE, kind=VMAKind.ANON)
            assert isinstance(vma, SlowVMA)
            set_slow_pagemap(False)
            space = AddressSpace()
            assert isinstance(
                space.mmap(length=PAGE_SIZE, kind=VMAKind.ANON), VMA)
        finally:
            set_slow_pagemap(entry)


def _render_in_subprocess(snippet: str, slow: bool) -> str:
    """Run a render snippet in a fresh interpreter, honouring the
    ``REPRO_SLOW_PAGEMAP`` env contract.

    Fresh processes, not in-process switching: image ids and similar
    process-global counters advance across runs, so only independent
    interpreters can be compared byte for byte.
    """
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_SLOW_PAGEMAP"] = "1" if slow else ""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", snippet],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.slow
class TestExperimentByteIdentity:
    """Whole experiments must not notice which backend is active."""

    def test_fig3_identical_under_both_backends(self):
        snippet = ("from repro.bench.figures import figure3; "
                   "print(figure3(repetitions=3, seed=11).render())")
        assert (_render_in_subprocess(snippet, slow=False)
                == _render_in_subprocess(snippet, slow=True))

    def test_restore_sweep_identical_under_both_backends(self):
        snippet = (
            "from repro.bench.restore_sweep import restore_sweep; "
            "print(restore_sweep(repetitions=6, seed=11).render())")
        assert (_render_in_subprocess(snippet, slow=False)
                == _render_in_subprocess(snippet, slow=True))
