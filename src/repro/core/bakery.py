"""Checkpoint-as-a-service: concurrent snapshot generation (paper §7).

"We plan to evaluate the checkpoint/restore as a service including
aspects such as the performance to deal with even bigger function code
sizes and concurrent snapshots."

:class:`BakeService` models a build farm: bake jobs queue against a
fixed number of builder workers; each bake occupies a worker for the
(calibrated) bake duration of its function. The experiment it enables:
how does deploy latency behave when many functions (or versions) bake
at once, and how does worker count trade against queue wait?
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro.core.bake import Prebaker
from repro.core.policy import AfterReady, SnapshotPolicy
from repro.functions.base import make_app
from repro.sim.engine import Simulation
from repro.sim.rng import _derive_seed


def measure_bake_duration(function,
                          policy: SnapshotPolicy = AfterReady()) -> float:
    """Measure one bake's duration (ms) in a scratch world."""
    from repro import make_world  # local import: avoids a package cycle
    factory = function if callable(function) else (lambda: make_app(function))
    world = make_world(seed=_derive_seed(42, "bake-oracle"))
    prebaker = Prebaker(world.kernel)
    report = prebaker.bake(factory(), policy=policy)
    return report.bake_duration_ms


@dataclass
class BakeJob:
    """One queued snapshot-generation request."""

    function: str
    duration_ms: float
    submitted_ms: float
    started_ms: float = -1.0
    finished_ms: float = -1.0

    @property
    def queue_wait_ms(self) -> float:
        return self.started_ms - self.submitted_ms

    @property
    def done(self) -> bool:
        return self.finished_ms >= 0


@dataclass
class BakeServiceMetrics:
    jobs: List[BakeJob] = field(default_factory=list)

    @property
    def makespan_ms(self) -> float:
        done = [j for j in self.jobs if j.done]
        if not done:
            return 0.0
        return max(j.finished_ms for j in done) - min(j.submitted_ms for j in done)

    def wait_quantile(self, q: float) -> float:
        from repro.bench.stats import quantile
        waits = [j.queue_wait_ms for j in self.jobs if j.done]
        return quantile(waits, q) if waits else 0.0


class BakeService:
    """FIFO bake queue served by ``workers`` concurrent builders."""

    def __init__(self, sim: Simulation, workers: int = 2) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.sim = sim
        self.workers = workers
        self.metrics = BakeServiceMetrics()
        self._queue: Deque[BakeJob] = deque()
        self._busy_workers = 0
        self._durations: Dict[str, float] = {}

    def register_function(self, name: str, bake_duration_ms: float) -> None:
        """Declare a function's bake cost (from :func:`measure_bake_duration`)."""
        if bake_duration_ms <= 0:
            raise ValueError(f"bake duration must be positive, got {bake_duration_ms}")
        self._durations[name] = bake_duration_ms

    def submit(self, function: str, at_ms: Optional[float] = None) -> None:
        """Schedule a bake request (defaults to now)."""
        duration = self._durations.get(function)
        if duration is None:
            raise KeyError(
                f"function {function!r} not registered; "
                f"known: {sorted(self._durations)}"
            )
        when = self.sim.now if at_ms is None else at_ms
        self.sim.schedule_at(when, lambda: self._enqueue(function, duration),
                             label=f"bake-submit:{function}")

    def run(self) -> BakeServiceMetrics:
        self.sim.run()
        return self.metrics

    # -- internals ---------------------------------------------------------------

    def _enqueue(self, function: str, duration: float) -> None:
        job = BakeJob(
            function=function,
            duration_ms=duration,
            submitted_ms=self.sim.now,
        )
        self.metrics.jobs.append(job)
        self._queue.append(job)
        self._pump()

    def _pump(self) -> None:
        while self._queue and self._busy_workers < self.workers:
            job = self._queue.popleft()
            self._busy_workers += 1
            job.started_ms = self.sim.now
            self.sim.schedule_in(job.duration_ms,
                                 lambda j=job: self._finish(j),
                                 label=f"bake-run:{job.function}")

    def _finish(self, job: BakeJob) -> None:
        job.finished_ms = self.sim.now
        self._busy_workers -= 1
        self._pump()


def registry_growth_curve(
    functions: List[str],
    seed: int = 42,
) -> List[Dict[str, float]]:
    """Registry footprint as functions accumulate in one shared store.

    Bakes ``functions`` one by one into a single world's content-
    addressed :class:`~repro.core.store.SnapshotStore` and records the
    cumulative logical vs. physical bytes after each deploy. With a
    shared runtime base the physical curve grows sublinearly — the
    registry-engineering claim the dedup experiment renders.
    """
    from repro import make_world  # local import: avoids a package cycle
    from repro.core.manager import PrebakeManager
    world = make_world(seed=_derive_seed(seed, "registry-growth"))
    manager = PrebakeManager(world.kernel)
    points: List[Dict[str, float]] = []
    for count, name in enumerate(functions, start=1):
        manager.deploy(make_app(name))
        store = manager.store
        points.append({
            "functions": float(count),
            "logical_mib": store.logical_bytes / (1024 * 1024),
            "physical_mib": store.physical_bytes / (1024 * 1024),
            "dedup_ratio": store.dedup_ratio,
        })
    return points


def bake_farm_sweep(
    functions: List[str],
    submissions: int,
    worker_counts: List[int],
) -> Dict[int, BakeServiceMetrics]:
    """Sweep builder concurrency for a burst of bake requests.

    ``submissions`` requests (cycling through ``functions``) all arrive
    at t=0; returns metrics per worker count.
    """
    durations = {name: measure_bake_duration(name)
                 for name in functions}
    results: Dict[int, BakeServiceMetrics] = {}
    for workers in worker_counts:
        sim = Simulation()
        service = BakeService(sim, workers=workers)
        for name, duration in durations.items():
            service.register_function(name, duration)
        for i in range(submissions):
            service.submit(functions[i % len(functions)], at_ms=0.0)
        results[workers] = service.run()
    return results
