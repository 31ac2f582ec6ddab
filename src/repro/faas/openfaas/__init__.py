"""OpenFaaS integration (paper §5), as a front end over one platform.

Models the OpenFaaS pieces the paper integrated prebaking with —
faas-cli (new/build/push/deploy), the template store (including the
CRIU templates the authors published), the container image repository
and the API gateway — on top of one
:class:`~repro.faas.platform.FaaSPlatform`. ``faas-cli build`` runs the
platform's Function Builder (the CRIU templates bake there) and ships
the snapshot as an image layer; ``deploy`` registers the built version;
the gateway opens each request's trace and routes it through the
platform. Kubernetes vs Docker Swarm is whether the platform's nodes
allow the privileged restore. The stack exposes the world's metrics
registry, whose ``/metrics`` text is
:func:`repro.obs.export.render_prometheus`; SLOs over it are
:func:`repro.obs.slo.evaluate_slos`.
"""

from repro.faas.openfaas.containers import ContainerImage, ImageLayer
from repro.faas.openfaas.templates import Template, TemplateStore
from repro.faas.openfaas.imagerepo import ImageRepository, ImageNotFound
from repro.faas.openfaas.gateway import Gateway
from repro.faas.openfaas.cli import FaasCli, FaasCliError
from repro.obs.export import parse_prometheus, render_prometheus

__all__ = [
    "render_prometheus",
    "parse_prometheus",
    "ContainerImage",
    "ImageLayer",
    "Template",
    "TemplateStore",
    "ImageRepository",
    "ImageNotFound",
    "Gateway",
    "FaasCli",
    "FaasCliError",
]
