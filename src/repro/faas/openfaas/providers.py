"""FaaS providers: the orchestrator abstraction (§5.1).

"Instead of directly executing operations ... the API Gateway
delegates it to the FaaS-Provider. This indirection abstract details
about different container orchestration mechanisms and tools.
Currently, the FaaS-Provider has implementations for Kubernetes and
DockerSwarm integration."

Both providers here schedule containers onto the shared
:class:`~repro.faas.resources.ResourceManager` and honour the
``--privileged`` requirement the restore operation carries: "the
restore operation is privileged. The docker run command already
supports this functionality by starting the container using the
--privileged option. As Kubernetes already support this behavior, we
only needed to introduce it in the FaaS-Provider implementation" (§5.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.faas.openfaas.containers import Container, ContainerImage
from repro.faas.resources import Allocation, ResourceManager


class ProviderError(Exception):
    """Scheduling / provider configuration failure."""


@dataclass
class ScheduledContainer:
    """A container plus its placement."""

    container: Container
    allocation: Allocation
    service: str

    def remove(self) -> None:
        self.container.stop()
        self.allocation.release()


class FaasProvider:
    """Provider interface the Gateway drives."""

    name = "abstract"
    supports_privileged = False

    def __init__(self, resources: ResourceManager) -> None:
        self.resources = resources
        self._services: Dict[str, List[ScheduledContainer]] = {}

    # -- operations -------------------------------------------------------------

    def run_container(self, service: str, image: ContainerImage,
                      memory_mib: float, privileged: bool = False) -> ScheduledContainer:
        if privileged and not self.supports_privileged:
            raise ProviderError(
                f"provider {self.name!r} cannot run privileged containers; "
                "prebaked (CRIU-restore) functions require --privileged"
            )
        if image.requires_privileged and not privileged:
            raise ProviderError(
                f"image {image.reference!r} carries a CRIU snapshot and must "
                "be run with privileged=True"
            )
        allocation = self.resources.place(service, memory_mib, privileged=privileged)
        scheduled = ScheduledContainer(
            container=Container(image=image, privileged=privileged),
            allocation=allocation,
            service=service,
        )
        self._services.setdefault(service, []).append(scheduled)
        return scheduled

    def remove_service(self, service: str) -> int:
        containers = self._services.pop(service, [])
        for scheduled in containers:
            scheduled.remove()
        return len(containers)

    def service_containers(self, service: str) -> List[ScheduledContainer]:
        live = [s for s in self._services.get(service, []) if s.container.running]
        self._services[service] = live
        return live

    def services(self) -> List[str]:
        return sorted(name for name, lst in self._services.items() if lst)


class KubernetesProvider(FaasProvider):
    """faas-netes-style provider (privileged via SecurityContext)."""

    name = "kubernetes"
    supports_privileged = True


class DockerSwarmProvider(FaasProvider):
    """Docker Swarm provider.

    Swarm services historically cannot run privileged containers, which
    is exactly the integration wrinkle the paper calls out — prebaked
    functions need the Kubernetes provider (or CRIU's unprivileged mode,
    see ``allow_unprivileged_cr``).
    """

    name = "dockerswarm"
    supports_privileged = False

    def __init__(self, resources: ResourceManager,
                 allow_unprivileged_cr: bool = False) -> None:
        super().__init__(resources)
        # Kernels with CAP_CHECKPOINT_RESTORE (Linux >= 5.9 [11]) let
        # criu restore without full privilege.
        self.supports_privileged = False
        self.allow_unprivileged_cr = allow_unprivileged_cr

    def run_container(self, service: str, image: ContainerImage,
                      memory_mib: float, privileged: bool = False) -> ScheduledContainer:
        if image.requires_privileged and self.allow_unprivileged_cr:
            # CAP_CHECKPOINT_RESTORE removes the --privileged requirement.
            image = ContainerImage(
                repository=image.repository,
                tag=image.tag,
                layers=image.layers,
                snapshot_key=image.snapshot_key,
                requires_privileged=False,
            )
        return super().run_container(service, image, memory_mib, privileged=privileged)
