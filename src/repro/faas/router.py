"""Function Router: request dispatch and the cold-start path (paper §2).

"The Function Router dispatches new requests or events to the correct
function replicas (or, queue the requests and events while the replicas
are still not available to process them)." When no replica is idle the
router triggers the Deployer — that synchronous detour *is* the cold
start the paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro import obs
from repro.faas.deployer import FunctionDeployer
from repro.faults.errors import CapacityExhausted, ReplicaCrashed, RequestTimeout
from repro.osproc.kernel import Kernel
from repro.runtime.base import Request, Response, admit


@dataclass
class InvocationRecord:
    """Telemetry for one routed request."""

    function: str
    cold_start: bool
    queued_ms: float          # time spent waiting for a replica
    service_ms: float
    total_ms: float
    technique: str
    replica_id: int
    requeues: int = 0         # capacity-exhausted waits before dispatch
    crash_retries: int = 0    # re-dispatches after a replica crash


@dataclass
class RouterStats:
    """Aggregate router telemetry."""

    invocations: int = 0
    cold_starts: int = 0
    records: List[InvocationRecord] = field(default_factory=list)

    def cold_start_latencies(self) -> List[float]:
        return [r.queued_ms for r in self.records if r.cold_start]


class FunctionRouter:
    """Synchronous request router (one request at a time per replica).

    Resilience: when provisioning hits capacity the request is
    *re-queued* (a simulated-time backoff, then another dispatch try)
    instead of crashing the router; a replica that dies mid-request is
    reaped and the request re-dispatched to a fresh replica; a request
    that cannot be dispatched before ``request_timeout_ms`` of waiting
    fails with a typed :class:`RequestTimeout`.
    """

    def __init__(
        self,
        kernel: Kernel,
        deployer: FunctionDeployer,
        requeue_backoff_ms: float = 5.0,
        request_timeout_ms: float = 30_000.0,
        max_crash_retries: int = 3,
    ) -> None:
        self.kernel = kernel
        self.deployer = deployer
        self.requeue_backoff_ms = requeue_backoff_ms
        self.request_timeout_ms = request_timeout_ms
        self.max_crash_retries = max_crash_retries
        self.stats = RouterStats()

    def route(self, function: str, request: Optional[Request] = None) -> Response:
        """Deliver one request, provisioning a replica if none is idle."""
        request = admit(self.kernel, request)
        arrived = self.kernel.clock.now
        deadline = arrived + self.request_timeout_ms
        cold = False
        requeues = 0
        crash_retries = 0
        with obs.span(self.kernel, "router.route", function=function,
                      request_id=request.request_id,
                      context=request.trace) as route_span:
            # Mint the causal trace handle here if nothing upstream
            # (the gateway) already did; everything the request causes
            # downstream — provisioning, restore, serving — joins this
            # trace even when it runs outside this call stack.
            # (NullSpan.context is None, so unobserved worlds stay bare.)
            if request.trace is None:
                request.trace = route_span.context
            obs.record(self.kernel, obs.flight.REQUEST_ADMITTED,
                       function=function, request_id=request.request_id)
            while True:
                replica = self._acquire(function, deadline)
                if replica is None:
                    # Capacity stayed exhausted: wait out one backoff
                    # and re-queue, unless the deadline has passed.
                    requeues += 1
                    obs.count(self.kernel, "router_requeued_total",
                              labels={"function": function})
                    obs.record(self.kernel, obs.flight.REQUEST_REQUEUED,
                               function=function, requeues=requeues)
                    if self.kernel.clock.now + self.requeue_backoff_ms > deadline:
                        waited = self.kernel.clock.now - arrived
                        obs.count(self.kernel, "router_timeouts_total",
                                  labels={"function": function})
                        obs.record(self.kernel, obs.flight.REQUEST_TIMEOUT,
                                   function=function,
                                   waited_ms=round(waited, 3))
                        raise RequestTimeout(
                            f"request {request.request_id} for {function!r} "
                            f"timed out after {waited:.1f} ms in queue",
                            function=function, waited_ms=waited,
                        )
                    self.kernel.clock.advance(self.requeue_backoff_ms)
                    continue
                cold = cold or replica.provisioned_cold
                dispatched = self.kernel.clock.now
                try:
                    response = replica.serve(request)
                    break
                except ReplicaCrashed:
                    crash_retries += 1
                    obs.count(self.kernel, "router_crash_retries_total",
                              labels={"function": function})
                    obs.record(self.kernel, obs.flight.REQUEST_CRASH_RETRY,
                               function=function,
                               replica_id=replica.replica_id,
                               crash_retries=crash_retries)
                    if crash_retries > self.max_crash_retries:
                        raise
            route_span.set(cold_start=cold, replica_id=replica.replica_id,
                           technique=replica.technique, requeues=requeues,
                           crash_retries=crash_retries)
            obs.record(self.kernel, obs.flight.REQUEST_ROUTED,
                       function=function, cold_start=cold,
                       replica_id=replica.replica_id,
                       technique=replica.technique)
        record = InvocationRecord(
            function=function,
            cold_start=cold,
            queued_ms=dispatched - arrived,
            service_ms=response.service_ms,
            total_ms=response.finished_ms - arrived,
            technique=replica.technique,
            replica_id=replica.replica_id,
            requeues=requeues,
            crash_retries=crash_retries,
        )
        self.stats.invocations += 1
        if cold:
            self.stats.cold_starts += 1
        self.stats.records.append(record)
        labels = {"function": function, "technique": replica.technique}
        # These land after route_span closed, so the span stack can no
        # longer supply the exemplar — link the buckets explicitly.
        exemplar = request.trace.trace_id if request.trace else None
        obs.count(self.kernel, "router_invocations_total", labels=labels)
        if cold:
            obs.count(self.kernel, "router_cold_starts_total", labels=labels)
            obs.observe(self.kernel, "router_cold_start_wait_ms",
                        record.queued_ms, labels=labels, exemplar=exemplar)
        obs.observe(self.kernel, "router_request_total_ms", record.total_ms,
                    labels=labels, exemplar=exemplar)
        return response

    def _acquire(self, function: str, deadline: float):
        """One dispatch try: an idle healthy replica, or a fresh one.

        Returns None when capacity is exhausted (the caller re-queues).
        The returned replica is annotated with ``provisioned_cold`` so
        the caller can attribute cold-start latency correctly across
        re-dispatches.
        """
        replica = self.deployer.idle_replica(function)
        if replica is not None and not replica.healthy:
            # A stale idle entry whose process died under us: reap dead
            # replicas for this function and look again.
            self.deployer.health_check(function)
            replica = self.deployer.idle_replica(function)
        if replica is not None:
            replica.provisioned_cold = False
            return replica
        try:
            # Cold start: the request waits while the Deployer brings a
            # replica up (Figure 1's execution flow).
            replica = self.deployer.provision(function)
        except CapacityExhausted:
            # Reap any crashed replicas first — that may free a slot
            # for the next try.
            self.deployer.health_check(function)
            return None
        replica.provisioned_cold = True
        return replica
