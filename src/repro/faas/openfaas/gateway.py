"""The OpenFaaS API Gateway (§5.1).

"Every request that comes through the platform hits the Gateway API,
which is the OpenFaaS platform entry point. It provides APIs to deploy,
invoke, scale, gather information, and metrics about the instances of
the function." Scale-up decisions come from Prometheus alerts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import obs
from repro.core.policy import policy_from_key
from repro.core.starters import PrebakeStarter, VanillaStarter
from repro.core.store import SnapshotStore
from repro.faas.openfaas.containers import ContainerImage
from repro.faas.openfaas.imagerepo import ImageRepository
from repro.faas.openfaas.prometheus import Alert, AlertRule, PrometheusLite
from repro.faas.openfaas.providers import FaasProvider, ScheduledContainer
from repro.faas.openfaas.watchdog import Watchdog
from repro.functions.base import FunctionApp
from repro.osproc.kernel import Kernel
from repro.runtime.base import Request, Response


class GatewayError(Exception):
    """Deploy/invoke failure at the gateway."""


@dataclass
class DeployedService:
    """One deployed function service and its replica set."""

    name: str
    image: ContainerImage
    app_factory: Callable[[], FunctionApp]
    memory_mib: float
    privileged: bool
    replicas: List["GatewayReplica"] = field(default_factory=list)

    def live_replicas(self) -> List["GatewayReplica"]:
        self.replicas = [r for r in self.replicas if r.watchdog.healthy()]
        return self.replicas


@dataclass
class GatewayReplica:
    """A scheduled container plus the watchdog supervising it."""

    scheduled: ScheduledContainer
    watchdog: Watchdog
    cold_start_ms: float


class Gateway:
    """OpenFaaS entry point: deploy / invoke / scale / metrics."""

    def __init__(
        self,
        kernel: Kernel,
        provider: FaasProvider,
        image_repo: ImageRepository,
        snapshot_store: SnapshotStore,
        prometheus: Optional[PrometheusLite] = None,
    ) -> None:
        self.kernel = kernel
        self.provider = provider
        self.image_repo = image_repo
        self.snapshot_store = snapshot_store
        if prometheus is None:
            # Share the world's metrics registry when telemetry is
            # installed, so gateway series and harness series merge.
            registry = kernel.obs.metrics if kernel.obs is not None else None
            prometheus = PrometheusLite(registry=registry)
        self.prometheus = prometheus
        self._services: Dict[str, DeployedService] = {}
        self._latency: Dict[str, "LatencyDigest"] = {}
        self.prometheus.subscribe(self._on_alert)

    # -- deploy -------------------------------------------------------------------

    def deploy(
        self,
        service: str,
        image_reference: str,
        app_factory: Callable[[], FunctionApp],
        memory_mib: float = 256.0,
        initial_replicas: int = 0,
    ) -> DeployedService:
        """Deploy (or update) a service from an image in the repository."""
        image = self.image_repo.pull(image_reference)
        # Snapshot images need --privileged unless the provider's
        # kernel grants CAP_CHECKPOINT_RESTORE (unprivileged criu).
        unprivileged_cr = getattr(self.provider, "allow_unprivileged_cr", False)
        privileged = image.requires_privileged and not unprivileged_cr
        deployed = DeployedService(
            name=service,
            image=image,
            app_factory=app_factory,
            memory_mib=memory_mib,
            privileged=privileged,
        )
        if service in self._services:
            self.provider.remove_service(service)
        self._services[service] = deployed
        # Default scale-from-zero alert for this service.
        self.prometheus.add_rule(AlertRule(
            name=f"{service}-backpressure",
            metric="gateway_pending_requests",
            threshold=0.0,
            labels={"function": service},
        ))
        for _ in range(initial_replicas):
            self._add_replica(deployed)
        return deployed

    def remove(self, service: str) -> None:
        deployed = self._services.pop(service, None)
        if deployed is None:
            raise GatewayError(f"service {service!r} is not deployed")
        for replica in deployed.replicas:
            replica.watchdog.shutdown()
        self.provider.remove_service(service)

    # -- invoke --------------------------------------------------------------------

    def invoke(self, service: str, request: Optional[Request] = None) -> Response:
        """Invoke a function, cold-starting a replica when none exists."""
        deployed = self._services.get(service)
        if deployed is None:
            raise GatewayError(f"service {service!r} is not deployed")
        request = request or Request()
        with obs.span(self.kernel, "gateway.invoke", function=service,
                      request_id=request.request_id,
                      context=request.trace) as invoke_span:
            # The gateway is the platform entry point: mint the causal
            # trace here so provisioning, restore, and serving all
            # attach to this request's tree. (NullSpan.context is None,
            # so unobserved worlds stay bare.)
            if request.trace is None:
                request.trace = invoke_span.context
            self.prometheus.inc("gateway_function_invocation_total",
                                labels={"function": service})
            replicas = deployed.live_replicas()
            if not replicas:
                self.prometheus.set_gauge("gateway_pending_requests", 1.0,
                                          labels={"function": service})
                replica = self._add_replica(deployed)
                self.prometheus.set_gauge("gateway_pending_requests", 0.0,
                                          labels={"function": service})
                self.prometheus.inc("gateway_cold_start_total",
                                    labels={"function": service})
                invoke_span.set(cold_start=True)
            else:
                replica = replicas[0]
            response = replica.watchdog.forward(request)
        self._record_latency(service, response.service_ms)
        self.prometheus.observe("gateway_service_duration_ms",
                                response.service_ms,
                                labels={"function": service})
        return response

    def _record_latency(self, service: str, service_ms: float) -> None:
        from repro.bench.digest import LatencyDigest
        digest = self._latency.get(service)
        if digest is None:
            digest = LatencyDigest()
            self._latency[service] = digest
        digest.observe(service_ms)

    def latency_summary(self, service: str) -> Dict[str, float]:
        """Streaming latency percentiles for one service (P² digest)."""
        digest = self._latency.get(service)
        if digest is None:
            raise GatewayError(f"no latency recorded for {service!r}")
        return digest.summary()

    def invoke_http(self, service: str, wire: bytes) -> bytes:
        """Wire-level entry point: HTTP request bytes in, response out.

        Malformed requests produce proper HTTP error responses instead
        of exceptions — this is the gateway's public surface.
        """
        from repro.faas.http import (
            HttpError,
            HttpResponse,
            compose_response,
            from_runtime_response,
            parse_request,
            to_runtime_request,
        )
        try:
            http_request = parse_request(wire)
        except HttpError as exc:
            return compose_response(HttpResponse(
                status=exc.status, body=str(exc).encode("utf-8")))
        try:
            response = self.invoke(service, to_runtime_request(http_request))
        except GatewayError as exc:
            return compose_response(HttpResponse(
                status=404, body=str(exc).encode("utf-8")))
        return compose_response(from_runtime_response(response))

    # -- scale ----------------------------------------------------------------------

    def scale(self, service: str, replicas: int) -> int:
        """Set the replica count (scale up only adds; down removes)."""
        deployed = self._services.get(service)
        if deployed is None:
            raise GatewayError(f"service {service!r} is not deployed")
        deployed.live_replicas()     # prune unhealthy replicas first
        added = 0
        while len(deployed.replicas) < replicas:
            self._add_replica(deployed)
            added += 1
        while len(deployed.replicas) > replicas:
            victim = deployed.replicas.pop()
            victim.watchdog.shutdown()
            victim.scheduled.remove()
        self.prometheus.set_gauge("gateway_service_count",
                                  len(deployed.replicas),
                                  labels={"function": service})
        return added

    def replica_count(self, service: str) -> int:
        deployed = self._services.get(service)
        return len(deployed.live_replicas()) if deployed else 0

    def services(self) -> List[str]:
        return sorted(self._services)

    # -- internals ----------------------------------------------------------------------

    def _add_replica(self, deployed: DeployedService) -> GatewayReplica:
        scheduled = self.provider.run_container(
            deployed.name, deployed.image, deployed.memory_mib,
            privileged=deployed.privileged,
        )
        unprivileged_cr = getattr(self.provider, "allow_unprivileged_cr", False)
        watchdog = Watchdog(
            self.kernel,
            privileged=scheduled.container.privileged,
            checkpoint_restore=deployed.image.has_snapshot and unprivileged_cr,
        )
        app = deployed.app_factory()
        started = self.kernel.clock.now
        if deployed.image.has_snapshot:
            key = deployed.image.snapshot_key
            starter = PrebakeStarter(
                self.kernel,
                self.snapshot_store,
                policy=policy_from_key(key.policy),
                version=key.version,
            )
        else:
            starter = VanillaStarter(self.kernel)
        try:
            watchdog.start_function(starter, app)
        except Exception:
            watchdog.shutdown()
            scheduled.remove()
            raise
        replica = GatewayReplica(
            scheduled=scheduled,
            watchdog=watchdog,
            cold_start_ms=self.kernel.clock.now - started,
        )
        deployed.replicas.append(replica)
        self.prometheus.set_gauge("gateway_service_count",
                                  len(deployed.replicas),
                                  labels={"function": deployed.name})
        return replica

    def _on_alert(self, alert: Alert) -> None:
        """Prometheus alert → scale-up decision (the OpenFaaS loop)."""
        function = alert.rule.labels.get("function")
        if not function or function not in self._services:
            return
        deployed = self._services[function]
        if not deployed.live_replicas():
            self._add_replica(deployed)
