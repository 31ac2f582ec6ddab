"""Tests for the bake pipeline."""


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
        before = {p.pid for p in kernel.live_processes()}
        prebaker.bake(make_app("noop"))
        after = {p.pid for p in kernel.live_processes()}
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
