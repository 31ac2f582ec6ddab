"""Function application protocol and registry.

A :class:`FunctionApp` bundles what the platform deploys: a handler, a
calibrated cost profile (:class:`~repro.sim.costmodel.FunctionCosts`),
the runtime kind it needs, and (for the paper's synthetic functions)
the class set the first invocation lazily loads — a shared, immutable
:class:`~repro.runtime.classes.ClassTable`. The same app object is
hosted by simulated runtimes and drives the real compute substrates
(markdown engine, imaging) for its responses.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple, TYPE_CHECKING

from repro.osproc.kernel import Kernel
from repro.runtime.classes import ClassTable, total_size_kib
from repro.sim.costmodel import FunctionCosts

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.base import ManagedRuntime, Request


class FunctionApp:
    """Base class for deployable functions."""

    runtime_kind = "jvm"

    def __init__(self, profile: FunctionCosts) -> None:
        self.profile = profile
        self.classes: ClassTable = ClassTable()

    @property
    def name(self) -> str:
        return self.profile.name

    # -- deployment ---------------------------------------------------------

    def artifact_path(self) -> str:
        return f"/srv/functions/{self.name}/function.jar"

    def artifact_size(self) -> int:
        """Size of the deployable artifact in bytes."""
        base = 256 * 1024
        if not self.classes:
            return base
        return base + int(total_size_kib(self.classes) * 1024)

    def ensure_artifacts(self, kernel: Kernel) -> str:
        """Create the function's artifact(s) in the simulated VFS."""
        path = self.artifact_path()
        kernel.fs.ensure(path, size=self.artifact_size())
        return path

    # -- lifecycle hooks ------------------------------------------------------

    def init(self, runtime: "ManagedRuntime") -> None:
        """APPINIT-time work (open files, preload data)."""

    def execute(self, runtime: "ManagedRuntime", request: "Request") -> Tuple[Any, int]:
        """Produce (body, http_status) for a request."""
        raise NotImplementedError


_REGISTRY: Dict[str, Callable[[], FunctionApp]] = {}


def register_app(name: str, factory: Callable[[], FunctionApp]) -> None:
    """Register a factory under ``name`` (last registration wins)."""
    _REGISTRY[name] = factory


def make_app(name: str) -> FunctionApp:
    """Instantiate a registered function by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown function {name!r}; known: {sorted(_REGISTRY)}"
        ) from None
    return factory()


def registered_names() -> List[str]:
    return sorted(_REGISTRY)
