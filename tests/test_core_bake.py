"""Tests for the bake pipeline."""

import pytest

from repro import make_world
from repro.core import bake as bake_module
from repro.core.bake import Prebaker
from repro.core.policy import AfterReady, AfterRuntimeBoot, AfterWarmup
from repro.core.store import SnapshotStore
from repro.functions import make_app, small_function


class TestBake:
    def test_bake_stores_snapshot(self, kernel):
        prebaker = Prebaker(kernel)
        report = prebaker.bake(make_app("noop"))
        assert prebaker.store.contains(report.key)
        assert report.key.policy == "after-ready"
        assert report.snapshot_mib > 0

    def test_bake_kills_donor_process(self, kernel):
        prebaker = Prebaker(kernel)
        before = {p.pid for p in kernel.processes.values() if p.alive}
        prebaker.bake(make_app("noop"))
        after = {p.pid for p in kernel.processes.values() if p.alive}
        # No java process survives the bake.
        survivors = [kernel.get(pid).comm for pid in after - before]
        assert "java" not in survivors

    def test_bake_uses_shared_store(self, kernel):
        store = SnapshotStore()
        prebaker = Prebaker(kernel, store)
        report = prebaker.bake(make_app("noop"))
        assert store.contains(report.key)

    def test_bake_after_ready_snapshot_not_warm(self, kernel):
        report = Prebaker(kernel).bake(make_app("noop"), policy=AfterReady())
        assert report.image.warm is False
        assert report.warmup_requests == 0

    def test_bake_with_warmup_runs_requests(self, kernel):
        report = Prebaker(kernel).bake(
            make_app("markdown"), policy=AfterWarmup(requests=3))
        assert report.warmup_requests == 3
        assert report.image.warm is True
        assert report.image.runtime_state["requests_served"] == 3

    def test_warm_synthetic_snapshot_contains_classes(self, kernel):
        app = small_function()
        report = Prebaker(kernel).bake(app, policy=AfterWarmup(requests=1))
        loaded = report.image.runtime_state["extra"]["loaded_class_names"]
        assert len(loaded) == len(app.classes)

    def test_unwarmed_synthetic_snapshot_has_no_classes(self, kernel):
        report = Prebaker(kernel).bake(small_function(), policy=AfterReady())
        assert report.image.runtime_state["extra"]["loaded_class_names"] == []

    def test_warm_snapshot_larger_than_ready(self, kernel):
        prebaker = Prebaker(kernel)
        ready = prebaker.bake(small_function(), policy=AfterReady())
        warm = prebaker.bake(small_function(), policy=AfterWarmup(1), version=2)
        assert warm.snapshot_mib > ready.snapshot_mib + 2.0

    def test_after_runtime_boot_snapshot_not_ready(self, kernel):
        report = Prebaker(kernel).bake(
            make_app("noop"), policy=AfterRuntimeBoot())
        state = report.image.runtime_state
        assert state["booted"] is True
        assert state["ready"] is False

    def test_bake_duration_recorded(self, kernel):
        report = Prebaker(kernel).bake(make_app("noop"))
        assert report.bake_duration_ms > 0

    def test_version_flows_into_key(self, kernel):
        report = Prebaker(kernel).bake(make_app("noop"), version=4)
        assert report.key.version == 4


class TestStoreGauges:
    """The store totals and the version diff feed only telemetry."""

    @pytest.fixture
    def reads(self, monkeypatch):
        seen = []
        logical = SnapshotStore.logical_bytes
        monkeypatch.setattr(SnapshotStore, "logical_bytes", property(
            lambda store: seen.append("logical") or logical.fget(store)))
        diff_images = bake_module.diff_images
        monkeypatch.setattr(bake_module, "diff_images", lambda old, new: (
            seen.append("diff") or diff_images(old, new)))
        return seen

    @staticmethod
    def _bake_two_versions(kernel):
        prebaker = Prebaker(kernel)
        prebaker.bake(make_app("noop"))
        prebaker.bake(make_app("noop"), version=2)
        return prebaker.store

    def test_not_computed_with_telemetry_off(self, kernel, reads):
        self._bake_two_versions(kernel)
        assert reads == []

    def test_published_with_telemetry_on(self, reads):
        kernel = make_world(seed=1234, observe=True).kernel
        store = self._bake_two_versions(kernel)
        assert reads.count("diff") == 1
        metrics = kernel.obs.metrics
        assert metrics.value("snapshot_store_logical_mib") == \
            store.logical_bytes / (1024 * 1024)
        assert metrics.value("snapshot_store_dedup_ratio") == store.dedup_ratio
        assert metrics.value("imgdiff_dedup_ratio",
                             {"function": "noop"}) == 1.0
