"""Tests for the Function Builder and faas-cli list/describe."""

from repro.core.bake import Prebaker
from repro.core.policy import AfterWarmup
from repro.faas.builder import FunctionBuilder
from repro.faas.registry import FunctionMetadata
from repro.functions import MarkdownFunction


class TestFunctionBuilder:
    def _builder(self, kernel):
        return FunctionBuilder(kernel, Prebaker(kernel))

    def _meta(self, technique="vanilla", policy=None):
        return FunctionMetadata(
            name="markdown", runtime_kind="jvm", version=1,
            app_factory=MarkdownFunction,
            start_technique=technique,
            snapshot_policy=policy or AfterWarmup(1),
        )

    def test_vanilla_build_produces_artifact_only(self, kernel):
        builder = self._builder(kernel)
        result = builder.build(self._meta("vanilla"))
        assert result.bake_report is None
        assert result.artifact_bytes > 0
        assert kernel.fs.exists(MarkdownFunction().artifact_path())

    def test_prebake_build_bakes(self, kernel):
        builder = self._builder(kernel)
        result = builder.build(self._meta("prebake"))
        assert result.bake_report is not None
        assert result.bake_report.image.warm is True
        assert builder.prebaker.store.contains(result.bake_report.key)

    def test_build_returns_the_built_metadata(self, kernel):
        builder = self._builder(kernel)
        meta = self._meta()
        assert builder.build(meta).metadata is meta

    def test_build_charges_time(self, kernel):
        builder = self._builder(kernel)
        before = kernel.clock.now
        builder.build(self._meta())
        assert kernel.clock.now - before > FunctionBuilder.BUILD_BASE_MS
