"""The bake pipeline: build-time snapshot generation (paper §3.1).

"The prebaking technique creates function snapshots only when the user
deploys a new function version. ... its more appropriate for the
Function Builder to trigger the function snapshot. ... This has the
additional advantage of not delaying the function execution, since
function building executes before the function is available."

``Prebaker.bake`` starts the function the vanilla way, drives it to the
point the policy asks for (ready, or warmed with n requests), dumps it,
and discards the donor process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import obs
from repro.core.policy import AfterReady, AfterRuntimeBoot, AfterWarmup, SnapshotPolicy
from repro.core.starters import RUNTIME_BINARIES, launch_vanilla
from repro.core.store import SnapshotKey, SnapshotStore
from repro.criu.checkpoint import CheckpointEngine
from repro.criu.images import CheckpointImage
from repro.criu.imgdiff import diff_images
from repro.functions.base import FunctionApp
from repro.osproc.kernel import Kernel
from repro.osproc.process import Process
from repro.runtime import RUNTIME_KINDS
from repro.runtime.base import Request


class BakeError(Exception):
    """Snapshot generation failure."""


@dataclass
class BakeReport:
    """What one bake produced (surfaced in build logs)."""

    key: SnapshotKey
    image: CheckpointImage
    bake_duration_ms: float
    warmup_requests: int

    @property
    def snapshot_mib(self) -> float:
        return self.image.total_mib


class Prebaker:
    """Build-time snapshot generator."""

    def __init__(self, kernel: Kernel, store: Optional[SnapshotStore] = None) -> None:
        self.kernel = kernel
        self.store = store if store is not None else SnapshotStore()
        self.checkpoint_engine = CheckpointEngine(kernel)

    def bake(
        self,
        app: FunctionApp,
        policy: SnapshotPolicy = AfterReady(),
        version: int = 1,
    ) -> BakeReport:
        """Produce and store a snapshot of ``app`` under ``policy``."""
        kernel = self.kernel
        started = kernel.clock.now
        warmup_requests = 0

        with obs.span(kernel, "bake", function=app.name, policy=policy.key,
                      version=version, runtime=app.runtime_kind):
            with obs.span(kernel, "bake.donor", function=app.name):
                if isinstance(policy, AfterRuntimeBoot):
                    donor = self._boot_only(app)
                else:
                    handle = launch_vanilla(kernel, app)
                    donor = handle.process
                    if isinstance(policy, AfterWarmup):
                        for _ in range(policy.requests):
                            response = handle.invoke(Request())
                            if not response.ok:
                                raise BakeError(
                                    f"warm-up request failed with status "
                                    f"{response.status} for function {app.name!r}"
                                )
                            warmup_requests += 1

            image = self.checkpoint_engine.dump(
                donor, leave_running=False, warm=policy.warm
            )
            key = SnapshotKey(
                function=app.name,
                runtime_kind=app.runtime_kind,
                policy=policy.key,
                version=version,
            )
            # Version-to-version image diff (repro.criu.imgdiff): how
            # much of the previous version's snapshot the new one
            # reuses — the delta a content-addressed registry ships.
            # Only telemetry reads it, so it is computed only then.
            if version > 1 and kernel.obs is not None:
                previous = self.store.peek(SnapshotKey(
                    function=app.name, runtime_kind=app.runtime_kind,
                    policy=policy.key, version=version - 1))
                if previous is not None:
                    diff = diff_images(previous, image)
                    obs.gauge(kernel, "imgdiff_dedup_ratio",
                              diff.dedup_ratio,
                              labels={"function": app.name})
                    obs.gauge(kernel, "imgdiff_delta_mib",
                              diff.delta_bytes / (1024 * 1024),
                              labels={"function": app.name})
            with obs.span(kernel, "snapshot.store", function=app.name,
                          image=image.image_id):
                self.store.put(key, image)
            # Registry-level dedup accounting after the put: logical is
            # what monolithic storage would hold, physical what the
            # content-addressed chunk store holds. Summing the logical
            # bytes walks every stored image, so only with telemetry on.
            if kernel.obs is not None:
                obs.gauge(kernel, "snapshot_store_dedup_ratio",
                          self.store.dedup_ratio)
                obs.gauge(kernel, "snapshot_store_logical_mib",
                          self.store.logical_bytes / (1024 * 1024))
                obs.gauge(kernel, "snapshot_store_physical_mib",
                          self.store.physical_bytes / (1024 * 1024))

        duration = kernel.clock.now - started
        obs.count(kernel, "prebake_bake_total",
                  labels={"function": app.name, "policy": policy.key})
        obs.observe(kernel, "prebake_bake_duration_ms", duration,
                    labels={"function": app.name})
        obs.gauge(kernel, "prebake_snapshot_mib", image.total_mib,
                  labels={"function": app.name, "policy": policy.key})
        return BakeReport(
            key=key,
            image=image,
            bake_duration_ms=duration,
            warmup_requests=warmup_requests,
        )

    def _boot_only(self, app: FunctionApp) -> Process:
        """Start the runtime but stop before APPINIT (ablation point)."""
        kernel = self.kernel
        runtime_cls = RUNTIME_KINDS.get(app.runtime_kind)
        if runtime_cls is None:
            raise BakeError(f"unknown runtime kind {app.runtime_kind!r}")
        binary = RUNTIME_BINARIES[app.runtime_kind]
        kernel.fs.ensure(binary, size=128 * 1024)
        proc = kernel.clone(kernel.init_process, comm=app.runtime_kind)
        kernel.execve(proc, binary, argv=[binary, "-jar", app.artifact_path()])
        runtime = runtime_cls(kernel, proc)
        runtime.boot()
        return proc
