"""The OpenFaaS API Gateway (§5.1).

"Every request that comes through the platform hits the Gateway API,
which is the OpenFaaS platform entry point. It provides APIs to deploy,
invoke, scale, gather information, and metrics about the instances of
the function." Here the gateway is the front door of one
:class:`~repro.faas.platform.FaaSPlatform`: it opens each request's
trace and hands everything else to the platform's router, autoscaler
and deployer.
"""

from __future__ import annotations

from typing import Optional

from repro import obs
from repro.faas.platform import FaaSPlatform
from repro.runtime.base import Request, Response, admit


class Gateway:
    """OpenFaaS entry point: invoke / scale / remove over the platform."""

    def __init__(self, platform: FaaSPlatform) -> None:
        self.platform = platform

    def invoke(self, service: str, request: Optional[Request] = None) -> Response:
        """Invoke a function, cold-starting a replica when none is idle."""
        request = admit(self.platform.kernel, request)
        with obs.span(self.platform.kernel, "gateway.invoke", function=service,
                      request_id=request.request_id,
                      context=request.trace) as invoke_span:
            # The gateway is the platform entry point: mint the causal
            # trace here so provisioning, restore, and serving all
            # attach to this request's tree. (NullSpan.context is None,
            # so unobserved worlds stay bare.)
            if request.trace is None:
                request.trace = invoke_span.context
            return self.platform.invoke(service, request)

    def scale(self, service: str, replicas: int) -> int:
        """Set the replica count; returns how many replicas were added."""
        added = self.platform.scale(service, replicas)
        deployer = self.platform.deployer
        deployer.retire(deployer.replicas(service)[replicas:])
        return added

    def replica_count(self, service: str) -> int:
        return self.platform.replica_count(service)
