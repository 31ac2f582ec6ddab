"""Tests for the Function Builder and faas-cli list/describe."""

import pytest

from repro.core.bake import Prebaker
from repro.core.policy import AfterWarmup
from repro.faas.builder import FunctionBuilder
from repro.faas.openfaas.stack import make_openfaas_stack
from repro.faas.registry import FunctionMetadata
from repro.functions import MarkdownFunction, NoopFunction


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
        assert not result.prebaked
        assert result.artifact_bytes > 0
        assert kernel.fs.exists(result.artifact_path)

    def test_prebake_build_bakes(self, kernel):
        builder = self._builder(kernel)
        result = builder.build(self._meta("prebake"))
        assert result.prebaked
        assert result.bake_report.image.warm is True
        assert builder.prebaker.store.contains(result.bake_report.key)

    def test_build_updates_metadata(self, kernel):
        builder = self._builder(kernel)
        meta = self._meta()
        builder.build(meta)
        assert meta.artifact_path
        assert meta.artifact_bytes > 0

    def test_build_charges_time(self, kernel):
        builder = self._builder(kernel)
        before = kernel.clock.now
        result = builder.build(self._meta())
        assert kernel.clock.now - before == pytest.approx(
            result.build_duration_ms)
        assert result.build_duration_ms > 100.0


class TestFaasCliListDescribe:
    def test_list_empty(self, kernel):
        stack = make_openfaas_stack(kernel)
        assert stack.cli.list() == []

    def test_list_after_deploy(self, kernel):
        stack = make_openfaas_stack(kernel)
        stack.cli.new("markdown", "java8-criu", MarkdownFunction)
        stack.cli.up("markdown", initial_replicas=2)
        rows = stack.cli.list()
        assert len(rows) == 1
        assert rows[0]["name"] == "markdown"
        assert rows[0]["replicas"] == 2
        assert rows[0]["prebaked"] is True

    def test_describe_lifecycle_stages(self, kernel):
        stack = make_openfaas_stack(kernel)
        stack.cli.new("noop", "java8", NoopFunction)
        info = stack.cli.describe("noop")
        assert info["built"] is False and info["deployed"] is False
        stack.cli.build("noop")
        info = stack.cli.describe("noop")
        assert info["built"] is True and info["pushed"] is False
        stack.cli.push("noop")
        stack.cli.deploy("noop")
        info = stack.cli.describe("noop")
        assert info["deployed"] is True
        assert info["snapshot_key"] is None

    def test_describe_snapshot_key(self, kernel):
        stack = make_openfaas_stack(kernel)
        stack.cli.new("markdown", "java8-criu", MarkdownFunction)
        stack.cli.build("markdown")
        info = stack.cli.describe("markdown")
        assert "markdown@v1" in info["snapshot_key"]
