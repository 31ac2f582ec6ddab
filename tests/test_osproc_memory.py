"""Tests for the virtual-memory model, including hypothesis invariants."""

import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.osproc.memory import (
    PAGE_SIZE,
    AddressSpace,
    MemoryError_,
    SlowVMA,
    VMA,
    VMAKind,
)

# An anonymous mapping's remaining fields.
NO_FILE = dict(prot="rw-", file_path=None, file_offset=0, label="")


class TestVMA:
    @pytest.mark.parametrize("backend", [VMA, SlowVMA])
    def test_mapping_has_no_dict_but_is_weakly_referenceable(self, backend):
        vma = backend(start=0, length=PAGE_SIZE, kind=VMAKind.ANON, **NO_FILE)
        assert not hasattr(vma, "__dict__")
        ref = weakref.ref(vma)
        assert ref() is vma
        del vma
        assert ref() is None

    def test_rejects_unaligned_length(self):
        with pytest.raises(MemoryError_):
            VMA(start=0, length=PAGE_SIZE + 1, kind=VMAKind.ANON, **NO_FILE)

    def test_rejects_zero_length(self):
        with pytest.raises(MemoryError_):
            VMA(start=0, length=0, kind=VMAKind.ANON, **NO_FILE)

    def test_rejects_unaligned_start(self):
        with pytest.raises(MemoryError_):
            VMA(start=123, length=PAGE_SIZE, kind=VMAKind.ANON, **NO_FILE)

    def test_file_vma_requires_path(self):
        with pytest.raises(MemoryError_):
            VMA(start=0, length=PAGE_SIZE, kind=VMAKind.FILE, **NO_FILE)

    def test_touch_makes_page_resident(self):
        vma = VMA(start=0, length=4 * PAGE_SIZE, kind=VMAKind.ANON, **NO_FILE)
        vma.touch_range(2, 1, content_tag="x")
        assert vma.resident_pages == 1
        assert vma.dump_pages() == ((2,), ("x",))

    def test_touch_out_of_range_rejected(self):
        vma = VMA(start=0, length=2 * PAGE_SIZE, kind=VMAKind.ANON, **NO_FILE)
        with pytest.raises(MemoryError_):
            vma.touch_range(2, 1)
        with pytest.raises(MemoryError_):
            vma.touch_range(-1, 1)

    def test_touch_is_idempotent_for_residency(self):
        vma = VMA(start=0, length=2 * PAGE_SIZE, kind=VMAKind.ANON, **NO_FILE)
        vma.touch_range(0, 1)
        vma.touch_range(0, 1)
        assert vma.resident_pages == 1

    def test_touch_range(self):
        vma = VMA(start=0, length=8 * PAGE_SIZE, kind=VMAKind.ANON, **NO_FILE)
        vma.touch_range(2, 3)
        assert vma.dump_pages()[0] == (2, 3, 4)

    def test_overlaps(self):
        a = VMA(start=0, length=4 * PAGE_SIZE, kind=VMAKind.ANON, **NO_FILE)
        b = VMA(start=2 * PAGE_SIZE, length=4 * PAGE_SIZE, kind=VMAKind.ANON, **NO_FILE)
        c = VMA(start=4 * PAGE_SIZE, length=PAGE_SIZE, kind=VMAKind.ANON, **NO_FILE)
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)


class TestAddressSpace:
    def test_mmap_auto_address_no_overlap(self):
        space = AddressSpace()
        a = space.mmap(10 * PAGE_SIZE, VMAKind.ANON)
        b = space.mmap(10 * PAGE_SIZE, VMAKind.ANON)
        assert not a.overlaps(b)

    def test_mmap_rounds_length_up(self):
        space = AddressSpace()
        vma = space.mmap(PAGE_SIZE + 1, VMAKind.ANON)
        assert vma.length == 2 * PAGE_SIZE

    def test_explicit_overlap_rejected(self):
        space = AddressSpace()
        space.mmap(4 * PAGE_SIZE, VMAKind.ANON, start=0x1000_0000)
        with pytest.raises(MemoryError_, match="overlaps"):
            space.mmap(4 * PAGE_SIZE, VMAKind.ANON, start=0x1000_0000 + PAGE_SIZE)

    def test_auto_address_avoids_explicit_mappings(self):
        """Regression: restore places VMAs explicitly; later anonymous
        growth must not collide with them."""
        space = AddressSpace()
        space.mmap(100 * PAGE_SIZE, VMAKind.ANON, start=0x7F00_0000_0000)
        grown = space.grow_anon("ext", 1.0)
        assert grown.start >= 0x7F00_0000_0000 + 100 * PAGE_SIZE

    def test_munmap_removes(self):
        space = AddressSpace()
        vma = space.mmap(PAGE_SIZE, VMAKind.ANON)
        space.munmap(vma)
        assert space.vmas == ()

    def test_munmap_unknown_rejected(self):
        space = AddressSpace()
        foreign = VMA(start=0, length=PAGE_SIZE, kind=VMAKind.ANON, **NO_FILE)
        with pytest.raises(MemoryError_):
            space.munmap(foreign)

    def test_find_by_label(self):
        space = AddressSpace()
        vma = space.mmap(PAGE_SIZE, VMAKind.ANON, label="heap")
        assert space.find_by_label("heap") is vma
        assert space.find_by_label("missing") is None

    def test_rss_counts_only_resident(self):
        space = AddressSpace()
        vma = space.mmap(100 * PAGE_SIZE, VMAKind.ANON)
        assert space.rss_bytes == 0
        vma.touch_range(0, 10)
        assert space.rss_bytes == 10 * PAGE_SIZE
        assert vma.length == 100 * PAGE_SIZE

    def test_grow_anon_populates(self):
        space = AddressSpace()
        space.grow_anon("heap", 2.0)
        assert space.rss_mib == pytest.approx(2.0)

    def test_clear_removes_everything(self):
        space = AddressSpace()
        space.grow_anon("a", 1.0)
        space.grow_anon("b", 1.0)
        space.clear()
        assert space.rss_bytes == 0
        assert space.vmas == ()

    def test_clear_soft_dirty(self):
        space = AddressSpace()
        vma = space.mmap(2 * PAGE_SIZE, VMAKind.ANON, populate=True)
        assert vma.touched_indices().tolist() == [0, 1]
        space.clear_soft_dirty()
        assert vma.touched_indices().tolist() == []
        vma.touch_range(0, 1)
        assert vma.touched_indices().tolist() == [0]


class TestAddressSpaceProperties:
    @given(sizes=st.lists(st.integers(min_value=1, max_value=64),
                          min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_auto_mappings_never_overlap(self, sizes):
        space = AddressSpace()
        vmas = [space.mmap(n * PAGE_SIZE, VMAKind.ANON) for n in sizes]
        for i, a in enumerate(vmas):
            for b in vmas[i + 1:]:
                assert not a.overlaps(b)

    @given(pages=st.lists(st.integers(min_value=0, max_value=63),
                          min_size=0, max_size=100))
    @settings(max_examples=50)
    def test_rss_equals_distinct_touched_pages(self, pages):
        space = AddressSpace()
        vma = space.mmap(64 * PAGE_SIZE, VMAKind.ANON)
        for index in pages:
            vma.touch_range(index, 1)
        assert space.rss_bytes == len(set(pages)) * PAGE_SIZE

    @given(mib=st.floats(min_value=0.01, max_value=64.0))
    @settings(max_examples=30)
    def test_grow_anon_rss_close_to_request(self, mib):
        space = AddressSpace()
        space.grow_anon("x", mib)
        # Within one page of the request.
        assert abs(space.rss_mib - mib) <= PAGE_SIZE / (1024 * 1024)
