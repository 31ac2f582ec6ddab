"""Concurrent cluster simulation on the discrete-event engine.

The sequential router (:mod:`repro.faas.router`) reproduces the paper's
single-replica measurements; scale-out behaviour — "if a replica is
busy and a new request arrives, the platform starts another replica to
do the job" (§4.1) — needs real concurrency: overlapping cold starts,
queueing at the replica cap, idle-timeout GC racing arrivals. This
module models that with coroutine processes over
:class:`~repro.sim.engine.Simulation`.

Start-up and service durations are drawn from the calibrated substrate
via :class:`LatencySampler` (each sample is measured in a scratch
world, so the distributions are exactly those of the paper
experiments), then replayed as event delays so any number can overlap
in virtual time.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional

from repro.bench.harness import run_service_experiment, run_startup_experiment
from repro.core.policy import AfterReady, SnapshotPolicy
from repro.sim.engine import Simulation
from repro.sim.events import Signal
from repro.sim.rng import RandomStreams, _derive_seed


class LatencySampler:
    """Seeded pools of start-up/service durations for one treatment."""

    def __init__(
        self,
        function: str,
        technique: str,
        policy: Optional[SnapshotPolicy] = None,
        seed: int = 42,
        pool_size: int = 48,
    ) -> None:
        policy = policy or AfterReady()
        startup = run_startup_experiment(
            function, technique, policy=policy,
            repetitions=pool_size, seed=seed, metric="ready",
        )
        service = run_service_experiment(
            function, technique, policy=policy,
            requests=pool_size, seed=seed,
        )
        self.function = function
        self.technique = technique
        self._startups = startup.values
        self._services = service.service_times_ms
        self._rng = RandomStreams(_derive_seed(seed, f"sampler-{technique}"))

    def startup_ms(self) -> float:
        return self._rng.choice("startup", self._startups)

    def service_ms(self) -> float:
        return self._rng.choice("service", self._services)

    @property
    def median_startup_ms(self) -> float:
        ordered = sorted(self._startups)
        return ordered[len(ordered) // 2]


@dataclass
class RequestRecord:
    """Timeline of one request through the cluster."""

    request_id: int
    arrival_ms: float
    dispatched_ms: float = 0.0
    finished_ms: float = 0.0
    cold_start: bool = False
    queued_for_replica: bool = False

    @property
    def wait_ms(self) -> float:
        return self.dispatched_ms - self.arrival_ms

    @property
    def total_ms(self) -> float:
        return self.finished_ms - self.arrival_ms


@dataclass
class ClusterMetrics:
    """Aggregate telemetry of one simulation run."""

    records: List[RequestRecord] = field(default_factory=list)
    cold_starts: int = 0
    peak_replicas: int = 0
    gc_kills: int = 0

    def wait_quantile(self, q: float) -> float:
        from repro.bench.stats import quantile
        waits = [r.wait_ms for r in self.records]
        return quantile(waits, q) if waits else 0.0

    @property
    def makespan_ms(self) -> float:
        if not self.records:
            return 0.0
        return (max(r.finished_ms for r in self.records)
                - min(r.arrival_ms for r in self.records))


class _Replica:
    _ids = itertools.count(1)

    def __init__(self) -> None:
        self.replica_id = next(self._ids)
        self.busy = False
        self.last_used_ms = 0.0
        self.dead = False


class SimulatedCluster:
    """Concurrent replica pool driven by coroutine processes."""

    def __init__(
        self,
        sim: Simulation,
        sampler: LatencySampler,
        max_replicas: int = 16,
        idle_timeout_ms: float = 60_000.0,
    ) -> None:
        if max_replicas < 1:
            raise ValueError(f"max_replicas must be >= 1, got {max_replicas}")
        self.sim = sim
        self.sampler = sampler
        self.max_replicas = max_replicas
        self.idle_timeout_ms = idle_timeout_ms
        self.metrics = ClusterMetrics()
        self._idle: List[_Replica] = []
        self._replicas: List[_Replica] = []
        self._waiters: Deque[Signal] = deque()
        self._request_ids = itertools.count(1)

    # -- public API ---------------------------------------------------------------

    def submit_trace(self, arrivals: List[float]) -> None:
        """Schedule one request process per arrival timestamp.

        Bulk-scheduled: one heapify instead of a heap push per arrival,
        which matters for trace-driven studies injecting hundreds of
        thousands of requests up front.
        """
        start_request = self._start_request
        self.sim.schedule_many(
            ((arrival, start_request) for arrival in arrivals),
            label="cluster-arrival",
        )

    def run(self) -> ClusterMetrics:
        """Run the simulation to completion and return the telemetry."""
        self.sim.run()
        return self.metrics

    @property
    def live_replicas(self) -> int:
        return sum(1 for r in self._replicas if not r.dead)

    # -- internals -------------------------------------------------------------------

    def _start_request(self) -> None:
        record = RequestRecord(
            request_id=next(self._request_ids),
            arrival_ms=self.sim.now,
        )
        self.metrics.records.append(record)
        self.sim.spawn(self._request_proc(record),
                       name=f"request-{record.request_id}")

    def _request_proc(self, record: RequestRecord):
        replica = self._acquire_idle()
        if replica is None:
            if self.live_replicas < self.max_replicas:
                # Cold start: this request waits for its own replica.
                record.cold_start = True
                self.metrics.cold_starts += 1
                replica = self._provision_placeholder()
                yield self.sampler.startup_ms()
            else:
                # At the cap: queue until some replica frees up.
                record.queued_for_replica = True
                gate = Signal(f"wait-{record.request_id}")
                self._waiters.append(gate)
                replica = yield gate
        record.dispatched_ms = self.sim.now
        replica.busy = True
        yield self.sampler.service_ms()
        record.finished_ms = self.sim.now
        self._release(replica)

    def _acquire_idle(self) -> Optional[_Replica]:
        while self._idle:
            replica = self._idle.pop()
            if not replica.dead:
                return replica
        return None

    def _provision_placeholder(self) -> _Replica:
        replica = _Replica()
        self._replicas.append(replica)
        self.metrics.peak_replicas = max(self.metrics.peak_replicas,
                                         self.live_replicas)
        return replica

    def _release(self, replica: _Replica) -> None:
        replica.busy = False
        replica.last_used_ms = self.sim.now
        if self._waiters:
            # Hand the replica straight to the longest waiter.
            self._waiters.popleft().fire(replica)
            return
        self._idle.append(replica)
        self.sim.schedule_in(
            self.idle_timeout_ms,
            lambda r=replica, t=self.sim.now: self._gc_check(r, t),
            label="idle-gc",
        )

    def _gc_check(self, replica: _Replica, idle_since: float) -> None:
        if replica.dead or replica.busy:
            return
        if replica.last_used_ms > idle_since:
            return  # was reused since this timer was armed
        replica.dead = True
        if replica in self._idle:
            self._idle.remove(replica)
        self.metrics.gc_kills += 1


def run_burst_experiment(
    function: str,
    technique: str,
    burst_size: int,
    policy: Optional[SnapshotPolicy] = None,
    max_replicas: int = 16,
    seed: int = 42,
) -> ClusterMetrics:
    """N simultaneous arrivals against an empty (scaled-to-zero) pool.

    The scenario where cold-start latency hurts most: every request in
    the burst (up to the replica cap) pays a cold start, and the rest
    queue behind them.
    """
    sampler = LatencySampler(function, technique, policy=policy, seed=seed)
    sim = Simulation()
    cluster = SimulatedCluster(sim, sampler, max_replicas=max_replicas)
    cluster.submit_trace([0.0] * burst_size)
    return cluster.run()
