"""Function Registry: "a repository for the metadata and binaries of
the functions available in the platform" (paper §2)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.policy import AfterReady, SnapshotPolicy
from repro.functions.base import FunctionApp


class RegistryError(Exception):
    """Registry lookup/registration failure."""


@dataclass
class FunctionMetadata:
    """Everything the platform knows about one registered function."""

    name: str
    runtime_kind: str
    version: int
    app_factory: Callable[[], FunctionApp]
    start_technique: str = "vanilla"          # "vanilla" | "prebake"
    snapshot_policy: SnapshotPolicy = field(default_factory=AfterReady)
    idle_timeout_ms: float = 60_000.0
    # The node-local hot-chunk cache policy ("freq-over-size" | "lru" |
    # None); None restores without a node cache.
    cache_policy: Optional[str] = None

    def make_app(self) -> FunctionApp:
        return self.app_factory()


class FunctionRegistry:
    """Versioned store of deployable functions."""

    def __init__(self) -> None:
        self._functions: Dict[str, FunctionMetadata] = {}

    def register(self, metadata: FunctionMetadata) -> FunctionMetadata:
        existing = self._functions.get(metadata.name)
        if existing is not None and metadata.version <= existing.version:
            raise RegistryError(
                f"function {metadata.name!r} v{metadata.version} does not "
                f"supersede registered v{existing.version}"
            )
        self._functions[metadata.name] = metadata
        return metadata

    def lookup(self, name: str) -> FunctionMetadata:
        meta = self._functions.get(name)
        if meta is None:
            raise RegistryError(
                f"function {name!r} is not registered; known: {sorted(self._functions)}"
            )
        return meta

    def contains(self, name: str) -> bool:
        return name in self._functions

    def names(self) -> List[str]:
        return sorted(self._functions)
