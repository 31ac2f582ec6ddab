"""Function Replica: one running instance of a function.

The paper's concurrency model (§4.1): "each function replica handles
one request at a time. If a replica is busy and a new request arrives,
the platform starts another replica ... if a replica is inactive for a
certain period, the platform garbage collects the function replica".
"""

from __future__ import annotations

import itertools
import weakref
from enum import Enum
from typing import Optional

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
    TERMINATED = "terminated"


# Replica IDs are allocated per simulated world (keyed weakly on the
# kernel), not from a module global: a fresh world always numbers its
# replicas from 1, so traces and logs are deterministic across runs
# and tests cannot leak IDs into each other.
_replica_counters: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def next_replica_id(kernel) -> int:
    counter = _replica_counters.get(kernel)
    if counter is None:
        counter = itertools.count(1)
        _replica_counters[kernel] = counter
    return next(counter)


def reset_replica_ids(kernel=None) -> None:
    """Restart numbering for one kernel (or every tracked kernel)."""
    if kernel is None:
        _replica_counters.clear()
    else:
        _replica_counters.pop(kernel, None)


class FunctionReplica:
    """Wraps a started replica with platform-level lifecycle state."""

    def __init__(self, function: str, handle: ReplicaHandle,
                 allocation: Optional[Allocation] = None,
                 cgroup: Optional[MemoryCgroup] = None) -> None:
        self.replica_id = next_replica_id(handle.runtime.kernel)
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

    def terminate(self) -> None:
        if self.state is ReplicaState.TERMINATED:
            return
        self.handle.kill()
        if self.cgroup is not None:
            self.cgroup.detach(self.handle.process)
        if self.allocation is not None:
            self.allocation.release()
        self.state = ReplicaState.TERMINATED
