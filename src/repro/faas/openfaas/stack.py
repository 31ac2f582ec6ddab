"""One-call wiring of the full OpenFaaS stack (used by examples/tests)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.faas.openfaas.cli import FaasCli
from repro.faas.openfaas.gateway import Gateway
from repro.faas.openfaas.imagerepo import ImageRepository
from repro.faas.openfaas.templates import TemplateStore
from repro.faas.platform import FaaSPlatform, PlatformConfig
from repro.obs.metrics import MetricsRegistry
from repro.osproc.kernel import Kernel


@dataclass
class OpenFaasStack:
    """All the §5 components, wired over one platform.

    ``metrics`` is the world's registry (None without telemetry): the
    series the platform's instrumentation writes.
    """

    kernel: Kernel
    platform: FaaSPlatform
    templates: TemplateStore
    image_repo: ImageRepository
    metrics: Optional[MetricsRegistry]
    gateway: Gateway
    cli: FaasCli


def make_openfaas_stack(
    kernel: Kernel,
    provider_name: str = "kubernetes",
    allow_unprivileged_cr: bool = False,
) -> OpenFaasStack:
    """Build a complete OpenFaaS deployment on top of ``kernel``.

    The provider decides whether the platform's nodes may host the
    privileged restore (§5.2): Kubernetes runs ``--privileged``
    containers; Docker Swarm cannot, unless the kernel grants criu
    CAP_CHECKPOINT_RESTORE (Linux >= 5.9 [11]) — ``allow_unprivileged_cr``.
    """
    if provider_name not in ("kubernetes", "dockerswarm"):
        raise ValueError(f"unknown provider {provider_name!r}")
    platform = FaaSPlatform(kernel, PlatformConfig(nodes=2))
    if provider_name == "dockerswarm":
        for node in platform.resources.nodes:
            node.allow_privileged = allow_unprivileged_cr
    templates = TemplateStore()
    image_repo = ImageRepository()
    return OpenFaasStack(
        kernel=kernel,
        platform=platform,
        templates=templates,
        image_repo=image_repo,
        metrics=kernel.obs.metrics if kernel.obs is not None else None,
        gateway=Gateway(platform),
        cli=FaasCli(platform, templates, image_repo),
    )
