"""A sealed image costs O(runs), not O(pages).

A VMA descriptor keeps its resident pages as runs and builds every
per-page form on demand, so baking, sealing, verifying and layering
an image leave nothing per page on its descriptors. The first test
measures with ``tracemalloc`` what dropping the descriptors frees: the
descriptors themselves and everything only they hold. The second
restores such an image, one slice per run, under whichever pagemap
backend is selected (CI runs this file under ``REPRO_SLOW_PAGEMAP=1``
too) and dumps it back.
"""

from __future__ import annotations

import gc
import tracemalloc
import weakref

import numpy as np
from repro import make_world
from repro.core.bake import Prebaker
from repro.core.policy import AfterWarmup
from repro.criu.pagestore import PageStore, layer_image
from repro.criu.restore import RestoreEngine
from repro.functions.synthetic import custom_function
from repro.osproc.memory import page_runs, pagemap_backend

# What the descriptors of one image may hold, whatever its page count.
DESCRIPTOR_BUDGET = 64 * 1024


def _bake(world):
    return Prebaker(world.kernel).bake(
        custom_function(1600, 32_000.0), policy=AfterWarmup(1)).image


def test_a_sealed_image_holds_its_descriptors_in_runs():
    world = make_world(seed=1)
    tracemalloc.start()
    try:
        image = _bake(world)
        image.seal()
        image.verify_integrity()
        image.verify_integrity()
        layer_image(image, PageStore())
        pages = sum(v.resident_pages for v in image.vmas)
        assert pages >= 10_000
        alive = [weakref.ref(vma) for vma in image.vmas]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        image.vmas.clear()  # the mm image file's payload is this list
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # Nothing else held a descriptor, so all of them were measured.
    assert all(ref() is None for ref in alive)
    assert freed < DESCRIPTOR_BUDGET, (
        f"{len(alive)} descriptors of {pages} pages held "
        f"{freed} bytes")


def test_restore_from_runs_gives_back_the_dumped_pages():
    world = make_world(seed=1)
    image = _bake(world)
    proc = RestoreEngine(world.kernel).restore(image)
    restored = proc.address_space.vmas
    assert all(type(vma) is pagemap_backend() for vma in restored)
    assert [(vma.start, vma.label) for vma in restored] == \
        [(desc.start, desc.label) for desc in image.vmas]
    for vma, desc in zip(restored, image.vmas):
        assert vma.resident_pages == desc.resident_pages
        assert np.array_equal(page_runs(*vma.dump_arrays()), desc.runs)
