"""PrebakeManager: the public facade tying the technique together.

One manager per simulated world. It owns the snapshot store, bakes on
deploy, and hands out starters — the object a FaaS platform (or the
quickstart example) interacts with.
"""

from __future__ import annotations

from typing import Dict

from repro import obs
from repro.core.bake import BakeReport, Prebaker
from repro.core.policy import AfterReady, SnapshotPolicy
from repro.core.starters import (
    PrebakeStarter,
    ReplicaHandle,
    Starter,
    VanillaStarter,
)
from repro.core.store import SnapshotKey, SnapshotStore
from repro.criu.restore import RestoreMode
from repro.functions.base import FunctionApp
from repro.osproc.kernel import Kernel


class PrebakeManager:
    """Bake-on-deploy and start-from-snapshot orchestration."""

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.store = SnapshotStore()
        self.prebaker = Prebaker(kernel, self.store)
        self._versions: Dict[str, int] = {}

    # -- deploy-time ------------------------------------------------------------

    def deploy(
        self,
        app: FunctionApp,
        policy: SnapshotPolicy = AfterReady(),
    ) -> BakeReport:
        """Register a new function version and bake its snapshot."""
        version = self._versions.get(app.name, 0) + 1
        self._versions[app.name] = version
        with obs.span(self.kernel, "deploy", function=app.name,
                      version=version, policy=policy.key):
            report = self.prebaker.bake(app, policy=policy, version=version)
        obs.record(self.kernel, obs.flight.DEPLOY, function=app.name,
                   version=version, policy=policy.key)
        obs.count(self.kernel, "prebake_deploy_total",
                  labels={"function": app.name})
        return report

    def sync_version(self, function: str, version: int) -> None:
        """Record that ``version`` of ``function`` was baked externally
        (e.g. by a platform builder driving the Prebaker directly)."""
        self._versions[function] = max(self._versions.get(function, 0), version)

    def current_version(self, function: str) -> int:
        version = self._versions.get(function)
        if version is None:
            raise KeyError(f"function {function!r} was never deployed")
        return version

    # -- start-time --------------------------------------------------------------

    def rebake(self, app: FunctionApp, policy: SnapshotPolicy,
               version: int) -> BakeReport:
        """Re-bake ``app`` under an *existing* (policy, version) key.

        The recovery path after a quarantined snapshot: unlike
        :meth:`deploy` it does not mint a new version, so starters
        holding the old key pick up the fresh image transparently.
        """
        report = self.prebaker.bake(app, policy=policy, version=version)
        obs.count(self.kernel, "prebake_rebake_total",
                  labels={"function": app.name})
        return report

    def starter(
        self,
        technique: str,
        policy: SnapshotPolicy = AfterReady(),
        restore_mode: RestoreMode = RestoreMode.EAGER,
        in_memory: bool = False,
        version: int = 1,
        pipeline_workers: int = 1,
        chunk_cache=None,
        shard_store=None,
    ) -> Starter:
        """Build a starter for ``technique`` ("vanilla" | "prebake")."""
        if technique == "vanilla":
            return VanillaStarter(self.kernel)
        if technique == "prebake":
            return PrebakeStarter(
                self.kernel,
                self.store,
                policy=policy,
                restore_mode=restore_mode,
                in_memory=in_memory,
                version=version,
                rebake=lambda app: self.rebake(app, policy, version),
                pipeline_workers=pipeline_workers,
                chunk_cache=chunk_cache,
                shard_store=shard_store,
            )
        raise ValueError(f"unknown technique {technique!r}")

    def start_replica(
        self,
        app: FunctionApp,
        technique: str = "prebake",
        policy: SnapshotPolicy = AfterReady(),
    ) -> ReplicaHandle:
        """Convenience: start one replica with the given technique,
        baking on first use if needed."""
        if technique == "prebake":
            version = self._versions.get(app.name, 0)
            key = SnapshotKey(app.name, app.runtime_kind, policy.key, max(version, 1))
            if version == 0 or not self.store.contains(key):
                self.deploy(app, policy=policy)
            version = self._versions[app.name]
            starter = self.starter(technique, policy=policy, version=version)
        else:
            starter = self.starter(technique, policy=policy)
        return starter.start(app)
