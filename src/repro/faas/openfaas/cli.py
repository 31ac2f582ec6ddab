"""faas-cli: the developer workflow (§5.1/§5.2).

Implements the four operations the paper lists — ``new`` (copy a
template), ``build`` (artifact + build-time checkpoint for CRIU
templates), ``push`` (to the image repository) and ``deploy`` (to the
platform) — including the Docker Buildx wrinkle: "Since usual docker
build does not allow the execution of privileged operations, it was
necessary to install the Docker Buildx CLI plugin". ``build`` and
``deploy`` are the two steps of
:meth:`~repro.faas.platform.FaaSPlatform.register_function`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.faas.openfaas.containers import ContainerImage, ImageLayer
from repro.faas.openfaas.imagerepo import ImageRepository
from repro.faas.openfaas.templates import Template, TemplateStore
from repro.faas.platform import FaaSPlatform
from repro.faas.registry import FunctionMetadata
from repro.functions.base import FunctionApp


class FaasCliError(Exception):
    """faas-cli operation failure."""


@dataclass
class FunctionProject:
    """A function project created by ``faas-cli new``."""

    name: str
    template: Template
    app_factory: Callable[[], FunctionApp]
    image: Optional[ContainerImage] = None
    metadata: Optional[FunctionMetadata] = None   # the built version
    version: int = 1


class FaasCli:
    """The developer-facing command set."""

    BASE_LAYER_BYTES = 85 * 1024 * 1024   # of-watchdog + runtime base image
    CRIU_LAYER_BYTES = 9 * 1024 * 1024    # criu + its dependencies

    def __init__(
        self,
        platform: FaaSPlatform,
        templates: TemplateStore,
        image_repo: ImageRepository,
    ) -> None:
        self.platform = platform
        self.templates = templates
        self.image_repo = image_repo
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
        if sample.name != name:
            # The platform registers, routes and snapshots a function
            # under its handler's name, so the service carries it too.
            raise FaasCliError(
                f"project {name!r} must be named after its function "
                f"{sample.name!r}"
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
        container image" (§5.2). The platform's Function Builder does
        both; the image's layers are assembled from what it produced.
        """
        project = self._require_project(name)
        template = project.template
        result = self.platform.build(
            project.app_factory,
            start_technique=template.start_technique,
            snapshot_policy=(template.snapshot_policy()
                             if template.criu_enabled else None),
            version=project.version,
        )
        layers = [
            ImageLayer("base", self.BASE_LAYER_BYTES),
            ImageLayer("function", result.artifact_bytes),
        ]
        report = result.bake_report
        if report is not None:
            layers.append(ImageLayer("criu-deps", self.CRIU_LAYER_BYTES))
            # The snapshot layer's digest is the checkpoint's sealed
            # content digest: identical snapshots share a registry
            # blob, distinct ones never collide on (name, size).
            layers.append(ImageLayer(
                "criu-snapshot", report.image.total_bytes,
                digest=(f"sha256:{report.image.digest}"
                        if report.image.digest else ""),
            ))
        project.image = ContainerImage(
            repository=f"registry.local/{name}",
            tag=str(project.version),
            layers=layers,
            snapshot_key=report.key if report is not None else None,
        )
        project.metadata = result.metadata
        return project.image

    def push(self, name: str) -> str:
        """``faas-cli push``: upload the built image."""
        project = self._require_project(name)
        if project.image is None:
            raise FaasCliError(f"project {name!r} has not been built")
        self.image_repo.push(project.image)
        return project.image.reference

    def deploy(self, name: str, initial_replicas: int = 0) -> FunctionMetadata:
        """``faas-cli deploy``: register the built version on the platform."""
        project = self._require_project(name)
        if project.image is None or not self.image_repo.contains(
                project.image.reference):
            raise FaasCliError(
                f"project {name!r} must be built and pushed before deploy"
            )
        self.image_repo.pull(project.image.reference)
        metadata = self.platform.deploy(project.metadata)
        if initial_replicas:
            self.platform.scale(name, initial_replicas)
        return metadata

    def up(self, name: str, **deploy_kwargs) -> FunctionMetadata:
        """``faas-cli up`` = build + push + deploy."""
        self.build(name)
        self.push(name)
        return self.deploy(name, **deploy_kwargs)

    # -- helpers ---------------------------------------------------------------------

    def _require_project(self, name: str) -> FunctionProject:
        project = self._projects.get(name)
        if project is None:
            raise FaasCliError(
                f"no project {name!r}; create it with `faas-cli new` first"
            )
        return project
