"""Replica start methods: Vanilla (fork-exec) vs Prebake (restore).

These are the two treatments of the paper's 2^2 factorial experiment
(§4.1): "prebaking versus the usual start method, based on fork-exec
system calls (henceforth, the Vanilla method)".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro import faults, obs
from repro.obs.log import get_logger
from repro.obs.profile import RESTORE_BACKOFF, RESTORE_REPAIR
from repro.core.policy import AfterReady, SnapshotPolicy
from repro.core.store import SnapshotKey, SnapshotNotFound, SnapshotStore
from repro.criu.images import CheckpointImage
from repro.criu.restore import RestoreEngine, RestoreMode
from repro.faults.errors import PlatformError, RestoreFailed, SnapshotCorrupted
from repro.faults.retry import DEFAULT_RETRY_POLICY
from repro.functions.base import FunctionApp
from repro.osproc.kernel import Kernel
from repro.osproc.process import Process
from repro.runtime import RUNTIME_KINDS
from repro.runtime.base import ManagedRuntime, Request, Response, admit

_log = get_logger("prebake")


class StartError(PlatformError):
    """Replica could not be started."""


RUNTIME_BINARIES = {
    "jvm": "/opt/jvm/bin/java",
    "python": "/usr/bin/python3",
    "nodejs": "/usr/bin/node",
}


@dataclass
class ReplicaHandle:
    """A started function replica plus its start-up timeline."""

    process: Process
    runtime: ManagedRuntime
    technique: str
    spawned_at_ms: float
    ready_at_ms: float
    first_response_at_ms: Optional[float] = None

    def invoke(self, request: Optional[Request] = None) -> Response:
        """Send one request to the replica."""
        kernel = self.runtime.kernel
        request = admit(kernel, request)
        request.arrival_ms = kernel.clock.now
        first = self.first_response_at_ms is None
        with obs.span(kernel, "replica.serve", context=request.trace,
                      technique=self.technique,
                      request_id=request.request_id, first_request=first):
            response = self.runtime.handle(request)
        if first:
            self.first_response_at_ms = response.finished_ms
        obs.observe(kernel, "replica_service_ms", response.service_ms,
                    labels={"technique": self.technique})
        return response

    def startup_ms(self, metric: str = "ready") -> float:
        """Start-up duration under the requested metric.

        ``"ready"`` = spawn → ready-to-serve (paper's real functions);
        ``"first_response"`` = spawn → first response (synthetic
        functions, whose class loading triggers on first invocation).
        """
        if metric == "ready":
            return self.ready_at_ms - self.spawned_at_ms
        if metric == "first_response":
            if self.first_response_at_ms is None:
                raise StartError("no request has completed yet")
            return self.first_response_at_ms - self.spawned_at_ms
        raise ValueError(f"unknown startup metric {metric!r}")

    def kill(self) -> None:
        self.runtime.kernel.kill(self.process.pid)


class Starter:
    """Common interface for replica start methods."""

    technique = "abstract"

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel

    def start(self, app: FunctionApp) -> ReplicaHandle:
        raise NotImplementedError


def launch_vanilla(kernel: Kernel, app: FunctionApp) -> ReplicaHandle:
    """The standard start path: clone, exec, runtime boot, app init."""
    runtime_cls = RUNTIME_KINDS.get(app.runtime_kind)
    if runtime_cls is None:
        raise StartError(f"unknown runtime kind {app.runtime_kind!r}")
    binary = RUNTIME_BINARIES[app.runtime_kind]
    kernel.fs.ensure(binary, size=128 * 1024)
    spawned_at = kernel.clock.now
    with obs.span(kernel, "replica.start", technique="vanilla",
                  function=app.name, runtime=app.runtime_kind):
        proc = kernel.clone(kernel.init_process, comm=app.runtime_kind)
        kernel.execve(proc, binary, argv=[binary, "-jar", app.artifact_path()])
        runtime = runtime_cls(kernel, proc)
        with obs.span(kernel, "runtime.boot", runtime=app.runtime_kind):
            runtime.boot()
        with obs.span(kernel, "runtime.appinit", function=app.name):
            runtime.load_application(app)
    ready_at = kernel.clock.now
    obs.count(kernel, "replica_start_total",
              labels={"technique": "vanilla", "function": app.name})
    obs.observe(kernel, "replica_start_duration_ms", ready_at - spawned_at,
                labels={"technique": "vanilla", "function": app.name})
    return ReplicaHandle(
        process=proc,
        runtime=runtime,
        technique="vanilla",
        spawned_at_ms=spawned_at,
        ready_at_ms=ready_at,
    )


class VanillaStarter(Starter):
    """fork-exec + full runtime bootstrap (the state of the practice)."""

    technique = "vanilla"

    def start(self, app: FunctionApp) -> ReplicaHandle:
        return launch_vanilla(self.kernel, app)


class PrebakeStarter(Starter):
    """Restore a previously baked snapshot instead of starting fresh.

    Production resilience lives here: failed restores are retried with
    capped exponential backoff (on simulated time), corrupted snapshots
    are quarantined — and rebaked when a ``rebake`` hook is wired in —
    and once the retry budget is spent the starter falls back to the
    vanilla fork/exec path, so a broken snapshot registry degrades a
    cold start to vanilla speed instead of failing the request.
    """

    technique = "prebake"

    def __init__(
        self,
        kernel: Kernel,
        store: SnapshotStore,
        policy: SnapshotPolicy = AfterReady(),
        restore_mode: RestoreMode = RestoreMode.EAGER,
        in_memory: bool = False,
        version: int = 1,
        rebake: Optional[Callable[[FunctionApp], object]] = None,
        pipeline_workers: int = 1,
        chunk_cache=None,
        shard_store=None,
    ) -> None:
        super().__init__(kernel)
        self.store = store
        self.policy = policy
        self.restore_mode = restore_mode
        self.in_memory = in_memory
        self.version = version
        self.rebake = rebake
        # Pipelined restore + node-local hot-chunk cache + sharded
        # store knobs travel straight into the engine (defaults: one
        # worker, no cache, flat registry).
        self.restore_engine = RestoreEngine(
            kernel, pipeline_workers=pipeline_workers,
            chunk_cache=chunk_cache, shard_store=shard_store)

    def snapshot_key(self, app: FunctionApp) -> SnapshotKey:
        return SnapshotKey(
            function=app.name,
            runtime_kind=app.runtime_kind,
            policy=self.policy.key,
            version=self.version,
        )

    def start(self, app: FunctionApp) -> ReplicaHandle:
        kernel = self.kernel
        key = self.snapshot_key(app)
        labels = {"function": app.name}
        started_at = kernel.clock.now
        failure: Optional[PlatformError] = None
        for attempt in range(1, DEFAULT_RETRY_POLICY.max_attempts + 1):
            try:
                image = self.store.get(key)
                faults.corrupt_image(kernel, image)
                handle = self._start_from_image(app, image)
                # Request-observed start-up includes any retries that
                # preceded this successful attempt.
                handle.spawned_at_ms = started_at
                return handle
            except SnapshotCorrupted as exc:
                failure = exc
                # Corrupted page data can usually be rewritten from the
                # content-addressed chunk store — far cheaper than a
                # rebake and the key stays in circulation.
                if self._repair_snapshot(key, labels):
                    obs.count(kernel, "prebake_restore_failures_total",
                              labels={**labels,
                                      "reason": type(failure).__name__})
                    continue  # retry immediately; repair is registry-side
                # Beyond repair: quarantine the poisoned snapshot so no
                # other replica restores it, then rebake when we can.
                self.store.quarantine(key)
                obs.record(kernel, obs.flight.SNAPSHOT_QUARANTINED,
                           function=app.name, version=self.version)
                obs.count(kernel, "prebake_snapshot_quarantined_total",
                          labels=labels)
                if self.rebake is not None:
                    self.rebake(app)
            except RestoreFailed as exc:
                failure = exc
            except SnapshotNotFound:
                # A registry miss is a configuration error, not a
                # runtime fault: without a rebake hook, stay loud
                # rather than silently serving vanilla forever.
                if self.rebake is None:
                    raise
                obs.count(kernel, "prebake_restore_failures_total",
                          labels={**labels, "reason": "SnapshotNotFound"})
                self.rebake(app)
                continue  # retry immediately; the registry miss cost nothing
            obs.count(kernel, "prebake_restore_failures_total",
                      labels={**labels, "reason": type(failure).__name__})
            if attempt < DEFAULT_RETRY_POLICY.max_attempts:
                backoff = DEFAULT_RETRY_POLICY.backoff_ms(attempt)
                # Inside the start span: CLIs that bound a trace
                # provider get this line stamped with trace_id=.
                _log.warning("restore.retry", function=app.name,
                             attempt=attempt,
                             reason=type(failure).__name__)
                obs.record(kernel, obs.flight.RESTORE_RETRY,
                           function=app.name, attempt=attempt,
                           backoff_ms=round(backoff, 3),
                           reason=type(failure).__name__)
                obs.observe(kernel, "prebake_retry_backoff_ms", backoff,
                            labels=labels)
                obs.count(kernel, "prebake_restore_retries_total", labels=labels)
                kernel.clock.advance(backoff)
                kernel.probes.charge(RESTORE_BACKOFF, None, kernel.clock.now,
                                     backoff, attempt=attempt,
                                     function=app.name)
        if failure is None:
            failure = StartError(
                f"prebake start of {app.name!r} exhausted "
                f"{DEFAULT_RETRY_POLICY.max_attempts} attempts"
            )
        _log.warning("restore.fallback", function=app.name,
                     reason=type(failure).__name__,
                     attempts=DEFAULT_RETRY_POLICY.max_attempts)
        obs.record(kernel, obs.flight.RESTORE_FALLBACK, function=app.name,
                   reason=type(failure).__name__,
                   attempts=DEFAULT_RETRY_POLICY.max_attempts)
        obs.count(kernel, "prebake_fallback_total", labels=labels)
        with obs.span(kernel, "prebake.fallback", function=app.name,
                      reason=type(failure).__name__):
            handle = launch_vanilla(kernel, app)
        handle.spawned_at_ms = started_at
        return handle

    def _repair_snapshot(self, key: SnapshotKey, labels: dict) -> bool:
        """Try a chunk-level repair of the stored image; True on success."""
        kernel = self.kernel
        repair_start = kernel.clock.now
        repaired_chunks = self.store.repair(key)
        if not repaired_chunks:
            return False
        # Registry-side chunk rewrites are free on the simulated clock
        # today; the zero-duration charge still puts the repair on the
        # critical-path ledger (count + chunks).
        kernel.probes.charge(RESTORE_REPAIR, None, kernel.clock.now,
                             kernel.clock.now - repair_start,
                             chunks=repaired_chunks, function=key.function)
        image = self.store.peek(key)
        if image is None:
            return False
        try:
            image.verify_integrity()
        except SnapshotCorrupted:
            # The chunk store could not reproduce the sealed content
            # (e.g. corruption predating the manifest); fall through
            # to quarantine + rebake.
            return False
        obs.record(kernel, obs.flight.SNAPSHOT_REPAIRED,
                   function=key.function, chunks=repaired_chunks)
        obs.count(kernel, "prebake_snapshot_repaired_total", labels=labels)
        obs.count(kernel, "snapshot_chunks_repaired_total",
                  value=float(repaired_chunks), labels=labels)
        return True

    def _start_from_image(self, app: FunctionApp,
                          image: CheckpointImage) -> ReplicaHandle:
        kernel = self.kernel
        spawned_at = kernel.clock.now
        override = app.profile.restore_override_ms(image.warm)
        with obs.span(kernel, "replica.start", technique="prebake",
                      function=app.name, runtime=app.runtime_kind,
                      policy=self.policy.key):
            proc = self.restore_engine.restore(
                image,
                mode=self.restore_mode,
                in_memory=self.in_memory,
                duration_override_ms=override,
            )
            runtime = proc.payload.get("runtime")
            if runtime is None:
                raise StartError(
                    f"snapshot {image.image_id} did not contain a runtime")
            if not runtime.ready:
                # Earlier-point snapshots (e.g. AfterRuntimeBoot) resume a
                # booted-but-unloaded runtime; APPINIT still runs here.
                with obs.span(kernel, "runtime.appinit", function=app.name):
                    runtime.load_application(app)
        ready_at = kernel.clock.now
        obs.count(kernel, "replica_start_total",
                  labels={"technique": "prebake", "function": app.name})
        obs.observe(kernel, "replica_start_duration_ms", ready_at - spawned_at,
                    labels={"technique": "prebake", "function": app.name})
        return ReplicaHandle(
            process=proc,
            runtime=runtime,
            technique="prebake",
            spawned_at_ms=spawned_at,
            ready_at_ms=ready_at,
        )
