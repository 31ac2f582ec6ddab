"""Content-addressed page store, layered images, and working-set restore."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import make_world
from repro.core.bake import Prebaker
from repro.core.bakery import registry_growth_curve
from repro.core.manager import PrebakeManager
from repro.core.policy import AfterReady, AfterWarmup
from repro.core.store import SnapshotKey, SnapshotStore
from repro.criu.checkpoint import CheckpointEngine
from repro.criu.images import SnapshotCorrupted
from repro.criu.pagestore import (
    CHUNK_PAGES,
    FUNCTION_CODE_LAYER,
    PageStore,
    RUNTIME_BASE_LAYER,
    WARM_DELTA_LAYER,
    layer_image,
    rebuild_vma_pages,
)
from repro.criu.restore import RestoreMode
from repro.functions import make_app
from repro.osproc.memory import PAGE_SIZE, VMAKind, page_content_key
from repro.runtime.base import Request


def dump_process(kernel, mib=1.0, tag="h", comm="subject", warm=False):
    proc = kernel.clone(kernel.init_process, comm=comm)
    proc.address_space.grow_anon("heap", mib, content_tag=tag)
    return CheckpointEngine(kernel).dump(proc, leave_running=False, warm=warm)


def vma_pages(image):
    return {v.start: (v.resident_indices.tolist(), v.content_tags)
            for v in image.vmas}


class TestPageStore:
    def test_identical_images_share_all_chunks(self, kernel):
        store = PageStore()
        first = dump_process(kernel, 2.0)
        second = dump_process(kernel, 2.0)
        a = layer_image(first, store)
        before = store.physical_bytes
        b = layer_image(second, store)
        assert store.physical_bytes == before          # nothing new stored
        assert store.dedup_hits > 0
        assert a.chunk_ids == b.chunk_ids              # same content, same ids
        assert store.logical_bytes == first.pages_bytes + second.pages_bytes

    def test_different_content_does_not_collide(self, kernel):
        store = PageStore()
        a = layer_image(dump_process(kernel, 1.0, tag="x"), store)
        after_a = store.physical_bytes
        b = layer_image(dump_process(kernel, 1.0, tag="y"), store)
        assert set(a.chunk_ids).isdisjoint(b.chunk_ids)
        assert store.physical_bytes == 2 * after_a  # no sharing across tags

    def test_refcounts_track_sharing_and_release(self, kernel):
        store = PageStore()
        a = layer_image(dump_process(kernel, 1.0), store)
        cid = a.chunk_ids[0]
        # A uniform heap dedups within one image too: every 64-page
        # window references the same stored chunk.
        rc_one = store._refs.get(cid, 0)
        assert rc_one >= 1
        b = layer_image(dump_process(kernel, 1.0), store)
        assert store._refs.get(cid, 0) == 2 * rc_one
        for ref in b.chunk_refs:
            store.release(ref.chunk_id)
        assert store._refs.get(cid, 0) == rc_one
        for ref in a.chunk_refs:
            store.release(ref.chunk_id)
        assert not store.contains(cid)
        assert store.physical_bytes == 0

    def test_chunk_identity_ignores_addresses(self, kernel):
        """The same bytes at different addresses dedup (ASLR-proof)."""
        store = PageStore()
        proc = kernel.clone(kernel.init_process, comm="subject")
        first = proc.address_space.mmap(CHUNK_PAGES * PAGE_SIZE,
                                        VMAKind.ANON, label="one")
        first.touch_range(0, CHUNK_PAGES, content_tag="same")
        second = proc.address_space.mmap(CHUNK_PAGES * PAGE_SIZE,
                                         VMAKind.ANON, label="two")
        second.touch_range(0, CHUNK_PAGES, content_tag="same")
        image = CheckpointEngine(kernel).dump(proc, leave_running=False)
        layered = layer_image(image, store)
        refs = [r for layer in layered.layers for r in layer.chunk_refs]
        heap_ids = {r.chunk_id for r in refs}
        assert len(refs) > len(heap_ids)  # two windows, one stored chunk

    def test_layers_split_runtime_base_from_function(self, kernel):
        prebaker = Prebaker(kernel)
        report = prebaker.bake(make_app("markdown"), policy=AfterReady())
        layered = layer_image(report.image, PageStore())
        base = layered.layer(RUNTIME_BASE_LAYER)
        func = layered.layer(FUNCTION_CODE_LAYER)
        assert base is not None and base.page_count > 0
        assert func is not None and func.page_count > 0
        assert layered.logical_bytes == report.image.pages_bytes

    def test_warm_delta_layer_isolates_changed_labels(self, kernel):
        prebaker = Prebaker(kernel)
        ready = prebaker.bake(make_app("markdown"), policy=AfterReady())
        warm = prebaker.bake(make_app("markdown"), policy=AfterWarmup(1))
        store = PageStore()
        layered = layer_image(warm.image, store, base=ready.image)
        delta = layered.layer(WARM_DELTA_LAYER)
        assert delta is not None and delta.page_count > 0
        assert delta.page_count < warm.image.resident_pages

    def test_rebuild_recovers_exact_pages(self, kernel):
        store = PageStore()
        image = dump_process(kernel, 3.0)
        layered = layer_image(image, store)
        rebuilt = rebuild_vma_pages(image, layered, store)
        expected = {i: (tuple(v.resident_indices.tolist()), v.content_tags)
                    for i, v in enumerate(image.vmas)}
        assert rebuilt == expected

    def test_page_content_key_is_stable(self):
        assert page_content_key("x") == page_content_key("x")
        assert page_content_key("x") != page_content_key("y")
        assert len(page_content_key("anything")) == 16


class TestSnapshotStoreDedup:
    def _bake_two(self, kernel):
        store = SnapshotStore()
        prebaker = Prebaker(kernel, store)
        prebaker.bake(make_app("noop"), policy=AfterReady())
        prebaker.bake(make_app("markdown"), policy=AfterReady())
        return store

    def test_functions_sharing_runtime_dedup(self, kernel):
        store = self._bake_two(kernel)
        assert store.dedup_ratio > 1.0
        assert store.physical_bytes < store.logical_bytes

    def test_materialize_reconstructs_pages(self, kernel):
        store = SnapshotStore()
        prebaker = Prebaker(kernel, store)
        report = prebaker.bake(make_app("markdown"), policy=AfterWarmup(1))
        clone = store.materialize(report.key)
        assert vma_pages(clone) == vma_pages(report.image)
        assert clone.digest == report.image.digest
        clone.verify_integrity()

    def test_replace_does_not_leak_chunks(self, kernel):
        store = SnapshotStore()
        key = SnapshotKey("fn", "jvm", "after-ready")
        store.put(key, dump_process(kernel, 2.0, tag="v1"))
        after_first = store.physical_bytes
        store.put(key, dump_process(kernel, 2.0, tag="v2"))
        assert store.physical_bytes == after_first  # old chunks released

    def test_quarantine_releases_chunks_keeps_image(self, kernel):
        store = SnapshotStore()
        key = SnapshotKey("fn", "jvm", "after-ready")
        store.put(key, dump_process(kernel, 1.0))
        assert store.quarantine(key)
        assert len(store._quarantined) == 1
        assert store.physical_bytes == 0
        assert not store.contains(key)

    def test_repair_rewrites_corrupted_chunks(self, kernel):
        store = SnapshotStore()
        prebaker = Prebaker(kernel, store)
        report = prebaker.bake(make_app("noop"), policy=AfterReady())
        image = store.peek(report.key)
        image.tamper(pages=3)
        with pytest.raises(SnapshotCorrupted):
            image.verify_integrity()
        chunks = store.repair(report.key)
        assert chunks >= 1
        store.peek(report.key).verify_integrity()

    def test_repair_clean_image_is_noop(self, kernel):
        store = SnapshotStore()
        prebaker = Prebaker(kernel, store)
        report = prebaker.bake(make_app("noop"), policy=AfterReady())
        assert store.repair(report.key) == 0

    def test_registry_growth_is_sublinear(self):
        curve = registry_growth_curve(["noop", "markdown"], seed=7)
        assert len(curve) == 2
        assert curve[1]["dedup_ratio"] > curve[0]["dedup_ratio"]
        assert curve[1]["physical_mib"] < curve[1]["logical_mib"]

    @given(layout=st.lists(
        st.tuples(st.integers(1, 128), st.integers(0, 128),
                  st.sampled_from(["a", "b", "c"])),
        min_size=1, max_size=4,
    ), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_dedup_never_changes_page_content(self, layout, seed):
        """Storing through the chunk store is lossless: materialize
        returns exactly the page (index, tag) sets that were put in."""
        world = make_world(seed=seed)
        kernel = world.kernel
        proc = kernel.clone(kernel.init_process, comm="subject")
        for i, (pages, resident, tag) in enumerate(layout):
            vma = proc.address_space.mmap(pages * PAGE_SIZE, VMAKind.ANON,
                                          label=f"v{i}")
            vma.touch_range(0, min(resident, pages), content_tag=tag)
        image = CheckpointEngine(kernel).dump(proc, leave_running=False)
        store = SnapshotStore()
        key = SnapshotKey("prop", "jvm", "after-ready")
        store.put(key, image)
        assert vma_pages(store.materialize(key)) == vma_pages(image)


class TestWorkingSetRestore:
    def _manager(self, seed=11):
        world = make_world(seed=seed, observe=True)
        manager = PrebakeManager(world.kernel)
        return world.kernel, manager

    def _warm_starter(self, kernel, manager, app, mode):
        return manager.starter("prebake", policy=AfterWarmup(1),
                               restore_mode=mode,
                               version=manager.current_version(app.name))

    def test_first_restore_records_then_prefetches(self):
        kernel, manager = self._manager()
        app = make_app("image-resizer")
        manager.deploy(app, policy=AfterWarmup(1))
        starter = self._warm_starter(kernel, manager, app,
                                     RestoreMode.WORKING_SET)
        recording = starter.start(app)
        recording.invoke(Request())  # first response seals the record
        recording.kill()
        image = manager.store.peek(
            SnapshotKey(app.name, app.runtime_kind, AfterWarmup(1).key,
                        manager.current_version(app.name)))
        record = kernel.working_sets.record_for(image)
        assert record is not None
        assert 0.0 < record.fraction < 0.5  # a small slice of the image
        metrics = kernel.obs.metrics
        assert metrics.value("ws_record_created_total") == 1

    def test_prefetch_beats_eager_for_resizer(self):
        kernel, manager = self._manager()
        app = make_app("image-resizer")
        manager.deploy(app, policy=AfterWarmup(1))
        eager = self._warm_starter(kernel, manager, app, RestoreMode.EAGER)
        ws = self._warm_starter(kernel, manager, app, RestoreMode.WORKING_SET)

        handle = eager.start(app)
        eager_ms = handle.startup_ms("ready")
        handle.invoke(Request())
        handle.kill()

        recording = ws.start(app)           # full-cost recording restore
        recording.invoke(Request())
        recording.kill()
        handle = ws.start(app)              # prefetch restore
        ws_ms = handle.startup_ms("ready")
        response = handle.invoke(Request())
        handle.kill()

        assert ws_ms < eager_ms * 0.7
        assert response.ok

    def test_prefetch_audit_counts_hits(self):
        kernel, manager = self._manager()
        app = make_app("markdown")
        manager.deploy(app, policy=AfterWarmup(1))
        ws = self._warm_starter(kernel, manager, app, RestoreMode.WORKING_SET)
        for _ in range(3):
            handle = ws.start(app)
            handle.invoke(Request())
            handle.kill()
        metrics = kernel.obs.metrics
        assert metrics.value("ws_record_created_total") == 1
        assert metrics.value("ws_prefetch_hit_pages_total") > 0
        # Deterministic replicas touch exactly the recorded set.
        assert metrics.value("ws_prefetch_miss_pages_total") == 0

    def test_working_set_without_record_costs_like_eager(self):
        kernel, manager = self._manager()
        app = make_app("noop")
        manager.deploy(app, policy=AfterWarmup(1))
        eager = self._warm_starter(kernel, manager, app, RestoreMode.EAGER)
        eager_ms = eager.start(app).startup_ms("ready")
        kernel2, manager2 = self._manager()
        app2 = make_app("noop")
        manager2.deploy(app2, policy=AfterWarmup(1))
        ws = self._warm_starter(kernel2, manager2, app2,
                                RestoreMode.WORKING_SET)
        ws_ms = ws.start(app2).startup_ms("ready")
        assert ws_ms == pytest.approx(eager_ms, rel=0.25)
