"""Function Replica: one running instance of a function.

The paper's concurrency model (§4.1): "each function replica handles
one request at a time. If a replica is busy and a new request arrives,
the platform starts another replica ... if a replica is inactive for a
certain period, the platform garbage collects the function replica".
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Optional

from repro import faults, obs
from repro.core.starters import ReplicaHandle
from repro.faas.resources import Allocation
from repro.faults.errors import ReplicaCrashed, ReplicaUnavailable
from repro.osproc.cgroups import MemoryCgroup, OomEvent
from repro.runtime.base import Request, Response


class ReplicaState(Enum):
    PROVISIONING = "provisioning"
    IDLE = "idle"
    BUSY = "busy"
    DRAINING = "draining"     # retired while busy; ends with its request
    TERMINATED = "terminated"


class FunctionReplica:
    """Wraps a started replica with platform-level lifecycle state."""

    def __init__(self, function: str, handle: ReplicaHandle,
                 allocation: Optional[Allocation] = None,
                 cgroup: Optional[MemoryCgroup] = None,
                 on_terminate: Optional[Callable[[], None]] = None,
                 ) -> None:
        self.replica_id = handle.runtime.kernel.next_id("replica")
        self.function = function
        self.handle = handle
        self.allocation = allocation
        self.cgroup = cgroup
        self.state = ReplicaState.IDLE
        self.last_active_ms = handle.ready_at_ms
        self.requests_served = 0
        self.cold_start_ms = handle.startup_ms("ready")
        # Set by the router per dispatch: did this request's dispatch
        # provision the replica (i.e. was it a cold start)?
        self.provisioned_cold = False
        # Called once, when the replica ends (whichever way it ends).
        self.on_terminate = on_terminate

    @property
    def technique(self) -> str:
        return self.handle.technique

    @property
    def healthy(self) -> bool:
        """Is the backing process alive and the replica servable?"""
        return (self.state is not ReplicaState.TERMINATED
                and self.handle.process.alive)

    def serve(self, request: Request) -> Response:
        """Process one request (the replica is busy for its duration)."""
        if self.state is not ReplicaState.IDLE:
            raise ReplicaUnavailable(
                f"replica {self.replica_id} cannot serve in state {self.state.value}"
            )
        kernel = self.handle.runtime.kernel
        if faults.should_fire(kernel, faults.REPLICA_CRASH,
                              detail=f"{self.function}/r{self.replica_id}"):
            # The replica dies with the request in flight; the router
            # owns re-dispatching it to a healthy replica.
            self.terminate()
            obs.count(kernel, "replica_crashes_total",
                      labels={"function": self.function,
                              "technique": self.technique})
            raise ReplicaCrashed(
                f"replica {self.replica_id} of {self.function!r} crashed "
                f"serving request {request.request_id}",
                function=self.function, replica_id=self.replica_id,
            )
        self.state = ReplicaState.BUSY
        try:
            with obs.span(kernel, "replica.request", context=request.trace,
                          function=self.function,
                          replica_id=self.replica_id,
                          technique=self.technique):
                response = self.handle.invoke(request)
        finally:
            if self.state is ReplicaState.BUSY:
                self.state = ReplicaState.IDLE
            elif self.state is ReplicaState.DRAINING:
                self.terminate()
        self.requests_served += 1
        self.last_active_ms = response.finished_ms
        obs.count(kernel, "replica_requests_total",
                  labels={"function": self.function,
                          "technique": self.technique})
        # The request may have grown the heap past the container's
        # memory limit — the cgroup OOM killer fires here, as it would
        # asynchronously in production. The fault site models the same
        # post-request kill without needing real memory growth.
        oom_injected = (self.cgroup is not None and faults.should_fire(
            kernel, faults.OOM_KILL,
            detail=f"{self.function}/r{self.replica_id}"))
        if oom_injected:
            self.cgroup.oom_events.append(OomEvent(
                cgroup=self.cgroup.name,
                pid=self.handle.process.pid,
                comm=self.handle.process.comm,
                rss_mib=self.handle.process.rss_mib,
                limit_mib=self.cgroup.limit_mib or 0.0,
                at_ms=kernel.clock.now,
            ))
            obs.count(kernel, "replica_oom_kills_total",
                      labels={"function": self.function})
        if oom_injected or (self.cgroup is not None and self.cgroup.enforce()):
            self.terminate()
        return response

    def idle_for_ms(self, now_ms: float) -> float:
        return now_ms - self.last_active_ms

    def retire(self) -> None:
        """Leave service: terminate now, or after the in-flight request."""
        if self.state is ReplicaState.BUSY:
            self.state = ReplicaState.DRAINING
        elif self.state is not ReplicaState.DRAINING:
            self.terminate()

    def terminate(self) -> None:
        if self.state is ReplicaState.TERMINATED:
            return
        self.handle.kill()
        if self.cgroup is not None:
            self.cgroup.detach(self.handle.process)
        if self.allocation is not None:
            self.allocation.release()
        self.state = ReplicaState.TERMINATED
        if self.on_terminate is not None:
            self.on_terminate()
