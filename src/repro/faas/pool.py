"""Warm-pool baseline: the cold-start mitigation prebaking competes with.

Paper §1: "A common approach is to avoid delays by being conservative
when provisioning functions [14]. On the one hand, by maintaining an
idle pool of functions instances, the platform addresses surges in
demand with no performance penalty. On the other hand, as the platform
provider does not charge for idle function instances, this strategy
increases the platform's operational cost."

:class:`WarmPool` implements that strategy so experiments can compare
the three options on both axes the paper frames:

* request-observed cold-start latency (pool wins when a warm instance
  is available, loses exactly like vanilla on pool misses);
* idle memory held by the platform (the pool's standing cost; prebaking
  holds only the snapshot bytes, vanilla holds nothing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro import obs
from repro.core.starters import ReplicaHandle, Starter
from repro.functions.base import FunctionApp
from repro.osproc.kernel import Kernel
from repro.runtime.base import Request, Response, admit

#: Pre-started idle replicas a pool keeps.
POOL_SIZE = 1


@dataclass
class PoolStats:
    """Hit/miss and cost accounting for one pool."""

    hits: int = 0
    misses: int = 0
    refills: int = 0
    idle_mib_ms: float = 0.0     # memory-time integral of idle instances
    wasted_warm_ms: float = 0.0  # wall-time integral of idle instances


class WarmPool:
    """Keeps up to ``POOL_SIZE`` pre-started idle replicas of one function.

    ``take()`` pops a warm replica (a pool *hit*: effectively zero
    start-up) or falls back to a cold start via the wrapped starter (a
    *miss*). ``refill()`` replenishes the pool — in this synchronous
    model the refill cost is charged to the platform, not to any
    request, but the memory each idle instance holds is accounted
    per-replica from the moment it becomes idle.
    """

    def __init__(
        self,
        kernel: Kernel,
        starter: Starter,
        app_factory: Callable[[], FunctionApp],
    ) -> None:
        self.kernel = kernel
        self.starter = starter
        self.app_factory = app_factory
        self.stats = PoolStats()
        self._idle: List[Tuple[ReplicaHandle, float]] = []  # (handle, idle_since)

    # -- pool mechanics ---------------------------------------------------------

    def refill(self) -> int:
        """Top the pool back up to ``POOL_SIZE``; returns replicas started."""
        started = 0
        with obs.span(self.kernel, "pool.refill",
                      technique=self.starter.technique) as refill_span:
            while len(self._idle) < POOL_SIZE:
                handle = self.starter.start(self.app_factory())
                self._idle.append((handle, self.kernel.clock.now))
                started += 1
            refill_span.set(started=started)
        if started:
            self.stats.refills += started
            obs.count(self.kernel, "pool_refills_total", started)
        obs.gauge(self.kernel, "pool_idle_replicas", len(self._idle))
        return started

    def _pop_idle(self) -> ReplicaHandle:
        handle, since = self._idle.pop()
        idle_ms = self.kernel.clock.now - since
        self.stats.idle_mib_ms += idle_ms * handle.process.rss_mib
        self._accrue_wasted(idle_ms)
        return handle

    def _accrue_wasted(self, idle_ms: float) -> None:
        """Wasted warm-seconds: idle wall-time a warm replica held.

        The cost axis the prewarm study (X13) reports next to the
        cold-start wins — a policy only counts as better when it cuts
        cold starts *without* holding more idle warm time.
        """
        if idle_ms <= 0:
            return
        self.stats.wasted_warm_ms += idle_ms
        obs.count(self.kernel, "pool_wasted_warm_ms_total", idle_ms)

    def take(self) -> ReplicaHandle:
        """Pop a warm replica, or cold-start on a miss.

        Dead pool entries (a replica crashed while idling) are skipped
        and reaped — a poisoned pool degrades to a miss, never to a
        dead replica serving a request.
        """
        while self._idle and not self._idle[-1][0].process.alive:
            handle, since = self._idle.pop()
            self.stats.idle_mib_ms += ((self.kernel.clock.now - since)
                                       * handle.process.rss_mib)
            self._accrue_wasted(self.kernel.clock.now - since)
            obs.count(self.kernel, "pool_reaped_total")
        if self._idle:
            self.stats.hits += 1
            obs.count(self.kernel, "pool_hits_total")
            obs.gauge(self.kernel, "pool_idle_replicas", len(self._idle) - 1)
            return self._pop_idle()
        self.stats.misses += 1
        obs.count(self.kernel, "pool_misses_total")
        with obs.span(self.kernel, "pool.miss_start",
                      technique=self.starter.technique):
            return self.starter.start(self.app_factory())

    def release(self, handle: ReplicaHandle) -> bool:
        """Return a replica to the pool; kills it if the pool is full."""
        if len(self._idle) < POOL_SIZE:
            self._idle.append((handle, self.kernel.clock.now))
            return True
        handle.kill()
        return False

    def serve(self, request: Optional[Request] = None,
              release: bool = True) -> Response:
        """Take a replica, serve one request, and (optionally) return
        the replica to the pool afterwards."""
        request = admit(self.kernel, request)
        # Join whatever trace is active at the seam (router or harness)
        # so the replica's serve span lands in the caller's tree even
        # if it runs outside this call stack later.
        if request.trace is None:
            request.trace = obs.current_context(self.kernel)
        handle = self.take()
        response = handle.invoke(request)
        if release:
            self.release(handle)
        return response

    # -- cost accounting -----------------------------------------------------------

    @property
    def idle_count(self) -> int:
        return len(self._idle)

    def snapshot_idle_cost(self) -> float:
        """Flush per-replica accounting; return the MiB·ms integral."""
        now = self.kernel.clock.now
        flushed = []
        for handle, since in self._idle:
            self.stats.idle_mib_ms += (now - since) * handle.process.rss_mib
            self._accrue_wasted(now - since)
            flushed.append((handle, now))
        self._idle = flushed
        return self.stats.idle_mib_ms
