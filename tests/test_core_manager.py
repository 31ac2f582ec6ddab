"""Tests for the PrebakeManager facade."""

import pytest

from repro.core.policy import AfterReady, AfterWarmup
from repro.core.starters import PrebakeStarter, VanillaStarter
from repro.functions import make_app


class TestDeploy:
    def test_deploy_bakes_and_versions(self, manager):
        report = manager.deploy(make_app("noop"))
        assert report.key.version == 1
        assert manager.current_version("noop") == 1

    def test_redeploy_bumps_version(self, manager):
        manager.deploy(make_app("noop"))
        report = manager.deploy(make_app("noop"))
        assert report.key.version == 2
        assert manager.current_version("noop") == 2

    def test_versions_tracked_per_function(self, manager):
        manager.deploy(make_app("noop"))
        manager.deploy(make_app("markdown"))
        assert manager.current_version("noop") == 1
        assert manager.current_version("markdown") == 1

    def test_unknown_version_query_rejected(self, manager):
        with pytest.raises(KeyError):
            manager.current_version("ghost")

    def test_sync_version_never_regresses(self, manager):
        manager.sync_version("fn", 3)
        manager.sync_version("fn", 1)
        assert manager.current_version("fn") == 3


class TestStarters:
    def test_vanilla_starter_type(self, manager):
        assert isinstance(manager.starter("vanilla"), VanillaStarter)

    def test_prebake_starter_type(self, manager):
        starter = manager.starter("prebake", policy=AfterWarmup(1), version=2)
        assert isinstance(starter, PrebakeStarter)
        assert starter.version == 2
        assert starter.policy == AfterWarmup(1)

    def test_unknown_technique_rejected(self, manager):
        with pytest.raises(ValueError):
            manager.starter("magic")


class TestStartReplica:
    def test_start_replica_bakes_on_demand(self, manager):
        app = make_app("noop")
        handle = manager.start_replica(app, technique="prebake")
        assert handle.runtime.ready
        assert manager.current_version("noop") == 1

    def test_start_replica_reuses_snapshot(self, manager):
        app = make_app("noop")
        manager.start_replica(app, technique="prebake")
        key = manager.prebaker.store.keys()[0]
        before = manager.prebaker.store.restore_count(key)
        manager.start_replica(app, technique="prebake")
        assert manager.current_version("noop") == 1  # no re-bake
        assert manager.prebaker.store.restore_count(key) == before + 1

    def test_start_replica_vanilla(self, manager):
        handle = manager.start_replica(make_app("noop"), technique="vanilla")
        assert handle.technique == "vanilla"

    def test_start_replica_separate_policies_separate_snapshots(self, manager):
        app = make_app("markdown")
        manager.start_replica(app, technique="prebake", policy=AfterReady())
        manager.start_replica(app, technique="prebake", policy=AfterWarmup(1))
        policies = {key.policy for key in manager.prebaker.store.keys()}
        assert policies == {"after-ready", "after-warmup-1"}

    def test_restore_after_redeploy_uses_new_version(self, manager):
        app = make_app("noop")
        manager.deploy(app)
        manager.deploy(app)
        handle = manager.start_replica(app, technique="prebake")
        assert handle.runtime.ready
        versions = {key.version for key in manager.prebaker.store.keys()}
        assert 2 in versions
