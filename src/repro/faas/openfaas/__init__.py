"""OpenFaaS integration (paper §5).

Models the OpenFaaS components the paper integrated prebaking with:
faas-cli (new/build/push/deploy), the template store (including the
CRIU templates the authors published), the container image repository,
the API gateway with Prometheus-driven autoscaling, the per-replica
watchdog, and pluggable FaaS providers (Kubernetes / Docker Swarm)
with ``--privileged`` support for the restore operation. The gateway's
``/metrics`` text is :func:`repro.obs.export.render_prometheus` of its
``PrometheusLite`` registry.
"""

from repro.faas.openfaas.containers import Container, ContainerImage, ImageLayer
from repro.faas.openfaas.templates import Template, TemplateStore
from repro.faas.openfaas.imagerepo import ImageRepository, ImageNotFound
from repro.faas.openfaas.prometheus import AlertRule, PrometheusLite
from repro.faas.openfaas.providers import (
    DockerSwarmProvider,
    FaasProvider,
    KubernetesProvider,
    ProviderError,
)
from repro.faas.openfaas.watchdog import Watchdog
from repro.faas.openfaas.gateway import Gateway
from repro.faas.openfaas.cli import FaasCli, FaasCliError
from repro.obs.export import parse_prometheus, render_prometheus

__all__ = [
    "render_prometheus",
    "parse_prometheus",
    "Container",
    "ContainerImage",
    "ImageLayer",
    "Template",
    "TemplateStore",
    "ImageRepository",
    "ImageNotFound",
    "AlertRule",
    "PrometheusLite",
    "FaasProvider",
    "KubernetesProvider",
    "DockerSwarmProvider",
    "ProviderError",
    "Watchdog",
    "Gateway",
    "FaasCli",
    "FaasCliError",
]
