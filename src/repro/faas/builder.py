"""Function Builder: source → deployable artifact (+ snapshot).

"The Function Builder transforms the function representations ... into
a deployable form" (§2). With prebaking, "the Function Builder [should]
trigger the function snapshot since this component is responsible for
transforming the function into deployable artifacts" (§3.1) — so the
bake runs here, at build time, off the request path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.bake import BakeReport, Prebaker
from repro.faas.registry import FunctionMetadata
from repro.osproc.kernel import Kernel


@dataclass
class BuildResult:
    """Outcome of one build: the built version's metadata, ready to deploy."""

    metadata: FunctionMetadata
    artifact_path: str
    artifact_bytes: int
    build_duration_ms: float
    bake_report: Optional[BakeReport] = None

    @property
    def prebaked(self) -> bool:
        return self.bake_report is not None


class FunctionBuilder:
    """Builds artifacts and (for prebaked functions) snapshots."""

    # Modeled toolchain throughput: compile + package.
    BUILD_BASE_MS = 350.0
    BUILD_PER_MIB_MS = 120.0

    def __init__(self, kernel: Kernel, prebaker: Prebaker) -> None:
        self.kernel = kernel
        self.prebaker = prebaker

    def build(self, metadata: FunctionMetadata) -> BuildResult:
        """Produce the deployable artifact; bake if the function opts in."""
        kernel = self.kernel
        started = kernel.clock.now
        app = metadata.make_app()
        artifact_path = app.ensure_artifacts(kernel)
        artifact_bytes = kernel.fs.lookup(artifact_path).size

        # Compile/package time scales with artifact size.
        build_cost = self.BUILD_BASE_MS + self.BUILD_PER_MIB_MS * (
            artifact_bytes / (1024 * 1024)
        )
        kernel.clock.advance(
            kernel.costs.jitter(build_cost, kernel.streams, "builder.package")
        )

        bake_report = None
        if metadata.start_technique == "prebake":
            bake_report = self.prebaker.bake(
                app, policy=metadata.snapshot_policy, version=metadata.version
            )

        metadata.artifact_path = artifact_path
        metadata.artifact_bytes = artifact_bytes
        return BuildResult(
            metadata=metadata,
            artifact_path=artifact_path,
            artifact_bytes=artifact_bytes,
            build_duration_ms=kernel.clock.now - started,
            bake_report=bake_report,
        )
