"""A registry pull: ``SnapshotStore.materialize`` rebuilds a stored image
from its content-addressed chunks alone, and the store's inventory.

``materialize`` is the oracle that dedup is lossless: what comes back
must carry the original's identity, pages and runtime state, verify
against the sealed digest, and restore into a replica that serves. It
is also the oracle of ``repair``: a repaired image holds its pages.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import make_world
from repro.core.bake import Prebaker
from repro.core.policy import AfterReady, AfterWarmup
from repro.core.starters import PrebakeStarter
from repro.core.store import SnapshotKey, SnapshotNotFound, SnapshotStore
from repro.criu.checkpoint import CheckpointEngine
from repro.criu.pagestore import WARM_DELTA_LAYER
from repro.criu.restore import RestoreEngine
from repro.faults.errors import SnapshotCorrupted
from repro.functions import make_app
from repro.osproc.memory import PAGE_SIZE, VMAKind
from repro.runtime.base import Request

KEY = SnapshotKey("fn", "jvm", "after-ready")


def dump_process(kernel, mib=1.0, tag="h", warm=False):
    proc = kernel.clone(kernel.init_process, comm="subject")
    proc.address_space.grow_anon("heap", mib, content_tag=tag)
    return CheckpointEngine(kernel).dump(proc, leave_running=False, warm=warm)


def vma_pages(image):
    return [(v.resident_indices.tolist(), tuple(v.content_tags))
            for v in image.vmas]


def stored(kernel, mib=1.0, tag="h", warm=False):
    store = SnapshotStore()
    image = dump_process(kernel, mib, tag=tag, warm=warm)
    store.put(KEY, image)
    return store, image


class TestMaterialize:
    def test_keeps_the_identity_fields(self, kernel):
        store, image = stored(kernel, 2.0, warm=True)
        pulled = store.materialize(KEY)
        assert pulled.image_id == image.image_id
        assert pulled.pid == image.pid
        assert pulled.comm == image.comm
        assert pulled.argv == image.argv
        assert pulled.created_at_ms == image.created_at_ms
        assert pulled.namespace_ids == image.namespace_ids
        assert pulled.warm is True
        assert pulled.digest == image.digest

    def test_keeps_sizes_and_vma_layout(self, kernel):
        store, image = stored(kernel, 2.0)
        pulled = store.materialize(KEY)
        assert [v.resident_pages for v in pulled.vmas] == \
            [v.resident_pages for v in image.vmas]
        assert pulled.total_bytes == image.total_bytes
        assert [v.label for v in pulled.vmas] == [v.label for v in image.vmas]
        assert [v.kind for v in pulled.vmas] == [v.kind for v in image.vmas]

    def test_preserves_page_tags(self, kernel):
        store, image = stored(kernel, 0.5)
        assert vma_pages(store.materialize(KEY)) == vma_pages(image)

    def test_verifies_against_the_sealed_digest(self, kernel):
        store, image = stored(kernel, 1.0)
        pulled = store.materialize(KEY)
        assert pulled.compute_digest() == image.digest
        pulled.verify_integrity()

    def test_keeps_the_runtime_state(self, kernel):
        store = SnapshotStore()
        report = Prebaker(kernel, store).bake(make_app("synthetic-small"),
                                              policy=AfterWarmup(1))
        state = store.materialize(report.key).runtime_state
        assert state["kind"] == "jvm"
        assert state["ready"] is True
        assert state["app"].name == "synthetic-small"
        assert len(state["extra"]["loaded_class_names"]) == 374

    def test_pulled_image_restores_and_serves(self, kernel):
        store = SnapshotStore()
        report = Prebaker(kernel, store).bake(make_app("markdown"),
                                              policy=AfterWarmup(1))
        pulled = store.materialize(report.key)
        proc = RestoreEngine(kernel).restore(pulled)
        runtime = proc.payload["runtime"]
        assert runtime.ready
        response = runtime.handle(Request(body="# pulled"))
        assert "<h1>pulled</h1>" in response.body

    def test_warm_delta_image_rebuilds_exactly(self, kernel):
        store = SnapshotStore()
        prebaker = Prebaker(kernel, store)
        app = make_app("markdown")
        prebaker.bake(app, policy=AfterReady())
        warm = prebaker.bake(app, policy=AfterWarmup(1))
        pulled = store.materialize(warm.key)
        assert vma_pages(pulled) == vma_pages(warm.image)
        pulled.verify_integrity()

    def test_returns_a_fresh_image(self, kernel):
        store, image = stored(kernel, 1.0)
        pulled = store.materialize(KEY)
        assert pulled is not image
        pulled.vmas.clear()
        assert store.peek(KEY) is image
        assert vma_pages(store.materialize(KEY)) == vma_pages(image)

    def test_does_not_count_a_restore(self, kernel):
        store, _ = stored(kernel, 1.0)
        store.materialize(KEY)
        assert store.restore_count(KEY) == 0

    def test_after_replace_pulls_the_new_image(self, kernel):
        store, _ = stored(kernel, 1.0, tag="v1")
        newer = dump_process(kernel, 2.0, tag="v2")
        store.put(KEY, newer)
        pulled = store.materialize(KEY)
        assert pulled.image_id == newer.image_id
        assert vma_pages(pulled) == vma_pages(newer)

    def test_recovers_pages_a_tamper_changed(self, kernel):
        store = SnapshotStore()
        report = Prebaker(kernel, store).bake(make_app("noop"),
                                              policy=AfterReady())
        clean = vma_pages(report.image)
        store.peek(report.key).tamper(pages=3)
        assert vma_pages(store.peek(report.key)) != clean
        pulled = store.materialize(report.key)
        assert vma_pages(pulled) == clean
        pulled.verify_integrity()

    def test_missing_key_raises(self):
        with pytest.raises(SnapshotNotFound):
            SnapshotStore().materialize(KEY)

    def test_quarantined_key_raises(self, kernel):
        store, _ = stored(kernel, 1.0)
        store.quarantine(KEY)
        with pytest.raises(SnapshotNotFound):
            store.materialize(KEY)

    def test_uniform_pages_share_chunks(self, kernel):
        """A 50 MiB heap of one tag is stored as a few chunks, not per page."""
        store, image = stored(kernel, 50.0)
        assert sum(v.resident_pages for v in image.vmas) >= 50 * 256
        assert store.physical_bytes * 100 < store.logical_bytes
        assert vma_pages(store.materialize(KEY)) == vma_pages(image)

    @given(layouts=st.lists(st.lists(
        st.tuples(st.integers(1, 32), st.integers(0, 32)),
        min_size=1, max_size=4,
    ), min_size=2, max_size=3), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_shared_chunks_never_mix_images(self, layouts, seed):
        """Images whose pages share tags share chunks, yet each pulls
        back exactly the VMAs that were put in."""
        kernel = make_world(seed=seed).kernel
        store = SnapshotStore()
        images = {}
        for n, layout in enumerate(layouts):
            proc = kernel.clone(kernel.init_process)
            for i, (pages, resident) in enumerate(layout):
                vma = proc.address_space.mmap(pages * PAGE_SIZE, VMAKind.ANON,
                                              label=f"v{i}")
                vma.touch_range(0, min(resident, pages),
                                content_tag=f"t{i % 3}")
            key = SnapshotKey(f"fn{n}", "jvm", "after-ready")
            images[key] = CheckpointEngine(kernel).dump(proc,
                                                        leave_running=False)
            store.put(key, images[key])
        for key, image in images.items():
            pulled = store.materialize(key)
            assert [v.resident_pages for v in pulled.vmas] == \
                [v.resident_pages for v in image.vmas]
            assert pulled.vmas == image.vmas


class TestInventory:

    def test_contains_follows_put_and_quarantine(self, kernel):
        store = SnapshotStore()
        assert not store.contains(KEY)
        store.put(KEY, dump_process(kernel))
        assert store.contains(KEY)
        assert store.quarantine(KEY)
        assert not store.contains(KEY)

    def test_quarantine_drops_layers(self, kernel):
        store, _ = stored(kernel, 1.0)
        assert store.layered(KEY) is not None
        store.quarantine(KEY)
        assert store.layered(KEY) is None

    def test_quarantine_missing_key_is_tolerated(self):
        store = SnapshotStore()
        assert store.quarantine(KEY) is False
        assert store._quarantined == []

    def test_restore_count_of_a_missing_key_is_zero(self):
        assert SnapshotStore().restore_count(KEY) == 0

    def test_empty_store_dedup_ratio_is_one(self):
        store = SnapshotStore()
        assert store.physical_bytes == store.logical_bytes == 0
        assert store.dedup_ratio == 1.0

    def test_logical_bytes_count_every_copy(self, kernel):
        store = SnapshotStore()
        store.put(KEY, dump_process(kernel, 1.0, tag="same"))
        once = store.physical_bytes
        other = SnapshotKey("other", "jvm", "after-ready")
        store.put(other, dump_process(kernel, 1.0, tag="same"))
        assert store.physical_bytes == once
        assert store.logical_bytes == 2 * store.peek(KEY).pages_bytes
        assert store.dedup_ratio == pytest.approx(
            store.logical_bytes / store.physical_bytes)

    def test_repair_missing_key_returns_zero(self, kernel):
        assert SnapshotStore().repair(KEY) == 0

    def test_prebake_starter_restores_from_the_store(self, kernel):
        store = SnapshotStore()
        app = make_app("noop")
        report = Prebaker(kernel, store).bake(app)
        handle = PrebakeStarter(kernel, store).start(app)
        assert handle.runtime.ready
        assert store.restore_count(report.key) == 1

    def test_the_manager_builds_one_snapshot_store(self, manager):
        app = make_app("noop")
        report = manager.deploy(app)
        assert type(manager.store) is SnapshotStore
        assert manager.prebaker.store is manager.store
        assert manager.store.keys() == [report.key]


def tamper_at(image, first, pages):
    """``image.tamper(pages)``, starting ``first`` resident pages into
    the first VMA that has any (clamped to its last page)."""
    image.generation += 1
    for index, vma in enumerate(image.vmas):
        if vma.resident_pages:
            tags = list(vma.content_tags)
            start = min(first, len(tags) - 1)
            for offset in range(start, min(start + pages, len(tags))):
                tags[offset] += "\x00corrupt"
            image.vmas[index] = vma.with_pages(vma.resident_indices, tags)
            return


@pytest.fixture(scope="module")
def ready_and_warm():
    """A ready and a warm markdown bake of one world."""
    prebaker = Prebaker(make_world(seed=5).kernel)
    app = make_app("markdown")
    return (prebaker.bake(app, policy=AfterReady()),
            prebaker.bake(app, policy=AfterWarmup(1)))


class TestRepair:
    @given(warm=st.booleans(), pages=st.integers(1, 300),
           first_page=st.integers(0, 5000))
    @settings(max_examples=30, deadline=None)
    def test_repair_restores_what_a_tamper_changed(self, ready_and_warm,
                                                   warm, pages, first_page):
        """On a ready image, and on a warm one stored with its delta
        layer, a repair finds damaged windows, the image verifies and
        its pages are the store's."""
        store = SnapshotStore()
        for report in ready_and_warm:
            store.put(report.key, replace(report.image,
                                          vmas=list(report.image.vmas)))
        key = ready_and_warm[warm].key
        if warm:
            assert any(layer.chunk_refs for layer in store.layered(key).layers
                       if layer.name == WARM_DELTA_LAYER)
        image = store.peek(key)
        tamper_at(image, first_page, pages)
        assert store.repair(key) > 0
        image.verify_integrity()
        assert vma_pages(image) == vma_pages(store.materialize(key))

    def test_repair_of_an_intact_image_returns_zero(self, ready_and_warm):
        store = SnapshotStore()
        report = ready_and_warm[0]
        store.put(report.key, replace(report.image,
                                      vmas=list(report.image.vmas)))
        image = store.peek(report.key)
        generation = image.generation
        assert store.repair(report.key) == 0
        assert image.generation == generation
        image.verify_integrity()

    def test_repair_counts_each_damaged_window_once(self, kernel):
        """Every page of the first VMA damaged: one repaired chunk per
        window of that VMA, and nothing else is touched."""
        store, image = stored(kernel, 2.0)
        first = next(i for i, v in enumerate(image.vmas) if v.content_tags)
        untouched = vma_pages(image)[first + 1:]
        windows = sum(1 for ref in store.layered(KEY).chunk_refs
                      if ref.vma_index == first)
        image.tamper(pages=len(image.vmas[first].content_tags))
        assert store.repair(KEY) == windows > 1
        assert vma_pages(image)[first + 1:] == untouched
        image.verify_integrity()

    def test_a_second_repair_finds_nothing(self, kernel):
        store, image = stored(kernel, 1.0)
        image.tamper(pages=5)
        assert store.repair(KEY) > 0
        generation = image.generation
        assert store.repair(KEY) == 0
        assert image.generation == generation

    def test_damage_outside_the_pages_is_not_repaired(self, kernel):
        """Corruption outside the page data leaves nothing for the chunk
        store to rewrite: 0 chunks, and the image still fails."""
        store, image = stored(kernel, 1.0)
        image.argv = image.argv + ["--corrupt"]
        assert store.repair(KEY) == 0
        with pytest.raises(SnapshotCorrupted):
            image.verify_integrity()
