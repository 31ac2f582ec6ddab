"""faas-cli: the developer workflow (§5.1/§5.2).

Implements the four operations the paper lists — ``new`` (copy a
template), ``build`` (artifact + build-time checkpoint for CRIU
templates), ``push`` (to the image repository) and ``deploy`` (to the
gateway) — including the Docker Buildx wrinkle: "Since usual docker
build does not allow the execution of privileged operations, it was
necessary to install the Docker Buildx CLI plugin".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.bake import Prebaker
from repro.faas.openfaas.containers import ContainerImage, ImageLayer
from repro.faas.openfaas.gateway import DeployedService, Gateway
from repro.faas.openfaas.imagerepo import ImageRepository
from repro.faas.openfaas.templates import Template, TemplateStore
from repro.functions.base import FunctionApp
from repro.osproc.kernel import Kernel


class FaasCliError(Exception):
    """faas-cli operation failure."""


@dataclass
class FunctionProject:
    """A function project created by ``faas-cli new``."""

    name: str
    template: Template
    app_factory: Callable[[], FunctionApp]
    image: Optional[ContainerImage] = None
    version: int = 1

    @property
    def image_reference(self) -> str:
        return f"registry.local/{self.name}:{self.version}"


class FaasCli:
    """The developer-facing command set."""

    BASE_LAYER_BYTES = 85 * 1024 * 1024   # of-watchdog + runtime base image
    CRIU_LAYER_BYTES = 9 * 1024 * 1024    # criu + its dependencies
    PACKAGE_BASE_MS = 350.0               # compile + docker-build baseline
    PACKAGE_PER_MIB_MS = 120.0

    def __init__(
        self,
        kernel: Kernel,
        templates: TemplateStore,
        prebaker: Prebaker,
        image_repo: ImageRepository,
        gateway: Gateway,
        buildx_installed: bool = True,
    ) -> None:
        self.kernel = kernel
        self.templates = templates
        self.prebaker = prebaker
        self.image_repo = image_repo
        self.gateway = gateway
        self.buildx_installed = buildx_installed
        self._projects: Dict[str, FunctionProject] = {}

    # -- operations ---------------------------------------------------------------

    def new(self, name: str, template_name: str,
            app_factory: Callable[[], FunctionApp]) -> FunctionProject:
        """``faas-cli new``: create a project from a template."""
        if name in self._projects:
            raise FaasCliError(f"project {name!r} already exists")
        template = self.templates.get(template_name)
        sample = app_factory()
        if sample.runtime_kind != template.runtime_kind:
            raise FaasCliError(
                f"function {sample.name!r} targets runtime "
                f"{sample.runtime_kind!r} but template {template_name!r} "
                f"provides {template.runtime_kind!r}"
            )
        project = FunctionProject(name=name, template=template,
                                  app_factory=app_factory)
        self._projects[name] = project
        return project

    def build(self, name: str) -> ContainerImage:
        """``faas-cli build``: artifact → container image (± snapshot).

        For CRIU templates the build "start[s] the function runtime and
        run[s] an optional post-processing script (e.g., warm-up
        requests), and checkpoint[s] the function process into the
        container image" (§5.2).
        """
        project = self._require_project(name)
        template = project.template
        app = project.app_factory()
        artifact_path = app.ensure_artifacts(self.kernel)
        artifact_bytes = self.kernel.fs.lookup(artifact_path).size
        package_ms = (self.PACKAGE_BASE_MS
                      + self.PACKAGE_PER_MIB_MS * artifact_bytes / (1024 * 1024))
        self.kernel.clock.advance(self.kernel.costs.jitter(
            package_ms, self.kernel.streams, "faascli.build"))
        layers = [
            ImageLayer("base", self.BASE_LAYER_BYTES),
            ImageLayer("function", artifact_bytes),
        ]
        snapshot_key = None
        requires_privileged = False
        if template.criu_enabled:
            if not self.buildx_installed:
                raise FaasCliError(
                    "usual docker build does not allow privileged operations; "
                    "install the Docker Buildx CLI plugin to build CRIU templates"
                )
            report = self.prebaker.bake(
                app, policy=template.snapshot_policy(), version=project.version
            )
            layers.append(ImageLayer("criu-deps", self.CRIU_LAYER_BYTES))
            # The snapshot layer's digest is the checkpoint's sealed
            # content digest: identical snapshots share a registry
            # blob, distinct ones never collide on (name, size).
            layers.append(ImageLayer(
                "criu-snapshot", report.image.total_bytes,
                digest=(f"sha256:{report.image.digest}"
                        if report.image.digest else ""),
            ))
            snapshot_key = report.key
            requires_privileged = True
        image = ContainerImage(
            repository=f"registry.local/{name}",
            tag=str(project.version),
            layers=layers,
            snapshot_key=snapshot_key,
            requires_privileged=requires_privileged,
        )
        project.image = image
        return image

    def push(self, name: str) -> str:
        """``faas-cli push``: upload the built image."""
        project = self._require_project(name)
        if project.image is None:
            raise FaasCliError(f"project {name!r} has not been built")
        self.image_repo.push(project.image)
        return project.image.reference

    def deploy(self, name: str, memory_mib: float = 256.0,
               initial_replicas: int = 0) -> DeployedService:
        """``faas-cli deploy``: make the function invokable."""
        project = self._require_project(name)
        if project.image is None or not self.image_repo.contains(
                project.image.reference):
            raise FaasCliError(
                f"project {name!r} must be built and pushed before deploy"
            )
        return self.gateway.deploy(
            service=name,
            image_reference=project.image.reference,
            app_factory=project.app_factory,
            memory_mib=memory_mib,
            initial_replicas=initial_replicas,
        )

    def up(self, name: str, **deploy_kwargs) -> DeployedService:
        """``faas-cli up`` = build + push + deploy."""
        self.build(name)
        self.push(name)
        return self.deploy(name, **deploy_kwargs)

    def list(self) -> List[Dict[str, object]]:
        """``faas-cli list``: deployed services with replica counts."""
        rows = []
        for service in self.gateway.services():
            deployed = self.gateway._services[service]
            rows.append({
                "name": service,
                "image": deployed.image.reference,
                "replicas": len(deployed.live_replicas()),
                "prebaked": deployed.image.has_snapshot,
            })
        return rows

    def describe(self, name: str) -> Dict[str, object]:
        """``faas-cli describe``: one project's full lifecycle state."""
        project = self._require_project(name)
        deployed = self.gateway._services.get(name)
        info: Dict[str, object] = {
            "name": name,
            "template": project.template.name,
            "version": project.version,
            "built": project.image is not None,
            "pushed": bool(project.image and self.image_repo.contains(
                project.image.reference)),
            "deployed": deployed is not None,
        }
        if project.image is not None:
            info["image"] = project.image.reference
            info["image_bytes"] = project.image.total_bytes
            info["snapshot_key"] = (str(project.image.snapshot_key)
                                    if project.image.snapshot_key else None)
        if deployed is not None:
            info["replicas"] = len(deployed.live_replicas())
        return info

    # -- helpers ---------------------------------------------------------------------

    def _require_project(self, name: str) -> FunctionProject:
        project = self._projects.get(name)
        if project is None:
            raise FaasCliError(
                f"no project {name!r}; create it with `faas-cli new` first"
            )
        return project

    def bump_version(self, name: str) -> int:
        """Start a new version of the project (next build re-bakes)."""
        project = self._require_project(name)
        project.version += 1
        project.image = None
        return project.version
