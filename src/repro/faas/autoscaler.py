"""Autoscaler: replica pool management.

Combines the paper's two platform behaviours: garbage-collecting
replicas "inactive for a certain period" (§4.1) and the
Prometheus-alert-driven scale-up OpenFaaS implements (§5.1). The
policy here is deliberately simple — target concurrency with idle
timeout — because the paper's contribution is *how fast* a scale-up
replica starts, not the scaling policy itself.

Every action (``scale-up``, ``gc``, ``reap``, ``prewarm``)
is recorded once, through the telemetry hub: an
``autoscaler.action`` event on the flight tape and the
``autoscaler_actions_total{function,action}`` counter. Every
idle-GC'd replica also adds its terminal idle stretch to
``autoscaler_wasted_warm_ms_total{function}``, the cost-side metric
X13 reports next to the cold-start wins. With neither a hub nor a
flight recorder installed, nothing is recorded.

An optional :class:`~repro.predict.policy.PrewarmController` (off by
default) adds the ``prewarm`` action — budget-capped pre-placement of
replicas ahead of forecast bursts — and lets the forecaster's
histogram choose per-function keep-alive instead of the fixed idle
timeout. A replica the controller's timer schedule places is held
past the keep-alive until the schedule's hold ends. Like every other
decision here, it reads only the pool and the arrival stream, never
telemetry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro import obs
from repro.faas.deployer import MAX_REPLICAS, FunctionDeployer
from repro.faas.registry import FunctionRegistry, RegistryError
from repro.faas.replica import ReplicaState
from repro.faults.errors import CapacityExhausted
from repro.osproc.kernel import Kernel
from repro.predict.policy import (
    PREFETCH_BUDGET_BYTES,
    PrewarmController,
    idle_expiry_ms,
)


@dataclass(frozen=True)
class AutoscalerConfig:
    """Tunables for the pool policy."""

    idle_timeout_ms: float = 60_000.0


class Autoscaler:
    """Idle-GC plus demand-driven scale-up (plus optional prewarm)."""

    def __init__(
        self,
        kernel: Kernel,
        registry: FunctionRegistry,
        deployer: FunctionDeployer,
        config: AutoscalerConfig = AutoscalerConfig(),
        prewarm: Optional[PrewarmController] = None,
    ) -> None:
        self.kernel = kernel
        self.registry = registry
        self.deployer = deployer
        self.config = config
        self.prewarm = prewarm

    def _record_event(self, function: str, action: str,
                      replicas_after: int) -> None:
        obs.record(self.kernel, obs.flight.AUTOSCALER_ACTION,
                   function=function, action=action,
                   replicas_after=replicas_after)
        obs.count(self.kernel, "autoscaler_actions_total",
                  labels={"function": function, "action": action})

    def note_arrival(self, function: str) -> None:
        """Feed one arrival to the prewarm forecaster (no-op when off)."""
        if self.prewarm is not None:
            self.prewarm.note_arrival(function, self.kernel.clock.now)

    def tick(self) -> None:
        """Run one reconciliation pass over every registered function.

        Order matters: reap crashed replicas first (freeing node
        memory), then GC idle replicas. The prewarm pass runs last,
        against the post-GC pool, so forecast targets see the capacity
        that actually survived this tick.
        """
        now = self.kernel.clock.now
        for name in self.registry.names():
            self._reap_crashed(name)
            self._gc_idle(name, now)
        if self.prewarm is not None:
            self._prewarm_pass(now)

    def _reap_crashed(self, function: str) -> None:
        reaped = self.deployer.health_check(function)
        for _ in reaped:
            remaining = len(self.deployer.replicas(function))
            self._record_event(function, "reap", remaining)

    def _gc_idle(self, function: str, now: float) -> None:
        metadata = self.registry.lookup(function)
        timeout = min(self.config.idle_timeout_ms, metadata.idle_timeout_ms)
        hold_end = -math.inf
        if self.prewarm is not None:
            timeout = self.prewarm.keepalive_ms(function, timeout)
            hold_end = self.prewarm.hold_end_ms(function)
        for replica in self.deployer.replicas(function):
            if replica.state is ReplicaState.IDLE and now >= idle_expiry_ms(
                    replica.last_active_ms, timeout, hold_end):
                idle_ms = replica.idle_for_ms(now)
                obs.count(self.kernel, "autoscaler_wasted_warm_ms_total",
                          idle_ms, labels={"function": function})
                replica.terminate()
                remaining = len(self.deployer.replicas(function))
                self._record_event(function, "gc", remaining)
                obs.gauge(self.kernel, "autoscaler_replicas", remaining,
                          labels={"function": function})

    def _prewarm_pass(self, now: float) -> None:
        """Pre-place replicas and prefetch chunks ahead of forecast load."""
        assert self.prewarm is not None
        current_warm = {
            name: len(self.deployer.replicas(name))
            for name in self.registry.names()
        }
        actions = self.prewarm.plan(now, current_warm)
        for action in actions:
            try:
                self.registry.lookup(action.function)
            except RegistryError:
                # An invoke of an unknown name still counts as an arrival.
                continue
            for _ in range(action.add_replicas):
                if len(self.deployer.replicas(action.function)) >= MAX_REPLICAS:
                    break
                try:
                    with obs.span(self.kernel, "autoscaler.prewarm",
                                  function=action.function,
                                  forecast=action.forecast):
                        self.deployer.provision(action.function)
                except CapacityExhausted:
                    break
                remaining = len(self.deployer.replicas(action.function))
                self._record_event(action.function, "prewarm", remaining)
                obs.gauge(self.kernel, "autoscaler_replicas", remaining,
                          labels={"function": action.function})
            self.deployer.prefetch_function(
                action.function, budget_bytes=PREFETCH_BUDGET_BYTES)

    def ensure_capacity(self, function: str, pending_requests: int) -> int:
        """Scale up so ``pending_requests`` can be served concurrently.

        Returns how many replicas were added. This is the action an
        OpenFaaS Prometheus alert triggers (§5.1).
        """
        self.registry.lookup(function)
        current = len(self.deployer.replicas(function))
        wanted = min(pending_requests, MAX_REPLICAS)
        added = 0
        while current + added < wanted:
            with obs.span(self.kernel, "autoscaler.scale_up",
                          function=function, pending=pending_requests):
                self.deployer.provision(function)
            added += 1
            self._record_event(function, "scale-up", current + added)
            obs.gauge(self.kernel, "autoscaler_replicas", current + added,
                      labels={"function": function})
        return added
