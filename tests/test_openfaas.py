"""Tests for the OpenFaaS integration layer (paper §5)."""

import pytest

from repro.faas.openfaas import (
    ContainerImage,
    FaasCliError,
    ImageLayer,
    ImageNotFound,
    ImageRepository,
    Template,
    TemplateStore,
)
from repro import faults, make_world
from repro.faas.openfaas.stack import make_openfaas_stack
from repro.faas.openfaas.templates import TemplateError
from repro.faas.registry import RegistryError
from repro.obs.metrics import MetricsError, MetricsRegistry
from repro.faas.resources import ResourceError
from repro.functions import MarkdownFunction, NoopFunction
from repro.runtime.base import Request


@pytest.fixture
def stack(kernel):
    return make_openfaas_stack(kernel)


class TestTemplates:
    def test_builtin_templates_present(self):
        store = TemplateStore()
        for name in ("java8", "python3", "node12", "java8-criu",
                     "java8-criu-warm"):
            assert store.get(name).name == name

    def test_criu_templates_flagged(self):
        store = TemplateStore()
        assert store.get("java8-criu").criu_enabled
        assert not store.get("java8").criu_enabled

    def test_criu_template_policies(self):
        store = TemplateStore()
        assert store.get("java8-criu").snapshot_policy().key == "after-ready"
        assert store.get("java8-criu-warm").snapshot_policy().key == "after-warmup-1"

    def test_non_criu_template_has_no_policy(self):
        with pytest.raises(TemplateError):
            TemplateStore().get("java8").snapshot_policy()

    def test_unknown_template(self):
        with pytest.raises(TemplateError, match="available"):
            TemplateStore().get("rust")

    def test_duplicate_template_rejected(self):
        store = TemplateStore()
        with pytest.raises(TemplateError, match="duplicate"):
            store.add(Template(name="java8", language="java", runtime_kind="jvm"))


class TestImageRepository:
    def _image(self, tag="1"):
        return ContainerImage(repository="registry.local/fn", tag=tag,
                              layers=[ImageLayer("base", 100)])

    def test_push_pull(self):
        repo = ImageRepository()
        image = self._image()
        repo.push(image)
        assert repo.pull("registry.local/fn:1") is image

    def test_pull_missing(self):
        with pytest.raises(ImageNotFound):
            ImageRepository().pull("ghost:1")

    def test_total_bytes(self):
        repo = ImageRepository()
        repo.push(self._image("1"))
        repo.push(self._image("2"))
        assert repo.total_bytes == 200


class TestPrometheus:
    """The series the stack's ``metrics`` registry serves."""

    def test_counter_and_gauge(self):
        prom = MetricsRegistry()
        prom.inc("hits", labels={"fn": "a"})
        prom.inc("hits", 2, labels={"fn": "a"})
        prom.set_gauge("replicas", 4, labels={"fn": "a"})
        assert prom.value("hits", {"fn": "a"}) == 3
        assert prom.value("replicas") == 4

    def test_counter_cannot_decrease(self):
        with pytest.raises(MetricsError):
            MetricsRegistry().inc("x", -1)

    def test_label_subset_matching(self):
        prom = MetricsRegistry()
        prom.inc("hits", labels={"fn": "a", "code": "200"})
        prom.inc("hits", labels={"fn": "b", "code": "200"})
        assert prom.value("hits") == 2
        assert prom.value("hits", {"fn": "a"}) == 1

    def test_absent_metric_reads_zero(self):
        assert MetricsRegistry().value("free") == 0.0

    def test_label_subset_sums_matching_gauge_series_only(self):
        prom = MetricsRegistry()
        prom.set_gauge("pending", 10.0, labels={"fn": "b"})
        assert prom.value("pending", {"fn": "a"}) == 0.0
        prom.set_gauge("pending", 4.0, labels={"fn": "a"})
        assert prom.value("pending", {"fn": "a"}) == 4.0
        assert prom.value("pending") == 14.0

    def test_histogram_series_have_no_scalar_value(self):
        prom = MetricsRegistry()
        prom.observe("lat_ms", 100.0)
        assert prom.value("lat_ms") == 0.0
        assert prom.histogram("lat_ms").count == 1

    def test_stack_metrics_is_the_worlds_registry(self):
        kernel = make_world(seed=3, observe=True).kernel
        stack = make_openfaas_stack(kernel)
        assert stack.metrics is kernel.obs.metrics
        kernel.obs.metrics.set_gauge("load", 10.0)  # written by the world
        assert stack.metrics.value("load") == 10.0

    def test_stack_without_telemetry_has_no_metrics(self, stack):
        assert stack.metrics is None


class TestCliWorkflow:
    def test_new_build_push_deploy_invoke(self, stack):
        stack.cli.new("markdown", "java8-criu-warm", MarkdownFunction)
        image = stack.cli.build("markdown")
        assert image.has_snapshot
        assert image.requires_privileged
        assert any(layer.name == "criu-snapshot" for layer in image.layers)
        stack.cli.push("markdown")
        stack.cli.deploy("markdown")
        response = stack.gateway.invoke("markdown", Request(body="# X"))
        assert "<h1>X</h1>" in response.body

    def test_up_shortcut(self, stack):
        stack.cli.new("noop", "java8", NoopFunction)
        stack.cli.up("noop", initial_replicas=1)
        assert stack.gateway.replica_count("noop") == 1

    def test_vanilla_template_image_has_no_snapshot(self, stack):
        stack.cli.new("noop", "java8", NoopFunction)
        image = stack.cli.build("noop")
        assert not image.has_snapshot
        assert not image.requires_privileged

    def test_new_duplicate_project_rejected(self, stack):
        stack.cli.new("noop", "java8", NoopFunction)
        with pytest.raises(FaasCliError, match="already exists"):
            stack.cli.new("noop", "java8", NoopFunction)

    def test_project_named_after_its_function(self, stack):
        with pytest.raises(FaasCliError, match="named after its function"):
            stack.cli.new("md", "java8", MarkdownFunction)

    def test_runtime_template_mismatch_rejected(self, stack):
        with pytest.raises(FaasCliError, match="runtime"):
            stack.cli.new("bad", "python3", NoopFunction)

    def test_build_without_new_rejected(self, stack):
        with pytest.raises(FaasCliError, match="no project"):
            stack.cli.build("ghost")

    def test_push_before_build_rejected(self, stack):
        stack.cli.new("noop", "java8", NoopFunction)
        with pytest.raises(FaasCliError, match="not been built"):
            stack.cli.push("noop")

    def test_deploy_before_push_rejected(self, stack):
        stack.cli.new("noop", "java8", NoopFunction)
        stack.cli.build("noop")
        with pytest.raises(FaasCliError, match="built and pushed"):
            stack.cli.deploy("noop")


class TestGateway:
    def test_cold_start_on_first_invoke(self, stack):
        stack.cli.new("noop", "java8-criu", NoopFunction)
        stack.cli.up("noop")
        assert stack.gateway.replica_count("noop") == 0
        stack.gateway.invoke("noop")
        assert stack.gateway.replica_count("noop") == 1
        assert stack.platform.router.stats.cold_starts == 1

    def test_scale_up_and_down(self, stack):
        stack.cli.new("noop", "java8", NoopFunction)
        stack.cli.up("noop")
        assert stack.gateway.scale("noop", 3) == 3
        assert stack.gateway.replica_count("noop") == 3
        assert stack.gateway.scale("noop", 1) == 0
        assert stack.gateway.replica_count("noop") == 1

    def test_scale_down_kills_function_process(self, stack):
        stack.cli.new("noop", "java8", NoopFunction)
        stack.cli.up("noop", initial_replicas=1)
        (replica,) = stack.platform.deployer.replicas("noop")
        assert replica.healthy
        stack.gateway.scale("noop", 0)
        assert not replica.handle.process.alive
        assert replica.allocation.released

    def test_invoke_unknown_service(self, stack):
        with pytest.raises(RegistryError, match="not registered"):
            stack.gateway.invoke("ghost")

    def test_remove_service(self, stack):
        stack.cli.new("noop", "java8", NoopFunction)
        stack.cli.up("noop", initial_replicas=2)
        replicas = stack.platform.deployer.replicas("noop")
        stack.gateway.remove("noop")
        assert "noop" not in stack.gateway.services()
        assert stack.gateway.replica_count("noop") == 0
        assert not any(r.handle.process.alive for r in replicas)

    def test_invocations_counted_in_router_series(self):
        kernel = make_world(seed=3, observe=True).kernel
        stack = make_openfaas_stack(kernel)
        stack.cli.new("noop", "java8", NoopFunction)
        stack.cli.up("noop")
        for _ in range(3):
            stack.gateway.invoke("noop")
        assert stack.metrics.value("router_invocations_total",
                                      {"function": "noop"}) == 3
        assert stack.metrics.value("router_cold_starts_total",
                                      {"function": "noop"}) == 1


class TestClusterFlavours:
    def test_swarm_cannot_place_privileged_restore(self, kernel):
        stack = make_openfaas_stack(kernel, provider_name="dockerswarm")
        stack.cli.new("markdown", "java8-criu", MarkdownFunction)
        stack.cli.up("markdown")
        with pytest.raises(ResourceError, match="privileged=True"):
            stack.gateway.invoke("markdown")

    def test_swarm_runs_vanilla_functions(self, kernel):
        stack = make_openfaas_stack(kernel, provider_name="dockerswarm")
        stack.cli.new("noop", "java8", NoopFunction)
        stack.cli.up("noop")
        assert stack.gateway.invoke("noop").ok

    def test_swarm_with_unprivileged_cr_capability(self, kernel):
        """CAP_CHECKPOINT_RESTORE [11] removes the --privileged need."""
        stack = make_openfaas_stack(kernel, provider_name="dockerswarm",
                                    allow_unprivileged_cr=True)
        stack.cli.new("markdown", "java8-criu", MarkdownFunction)
        stack.cli.up("markdown")
        response = stack.gateway.invoke("markdown")
        assert response.ok

    def test_kubernetes_runs_privileged(self, stack):
        stack.cli.new("markdown", "java8-criu", MarkdownFunction)
        stack.cli.up("markdown", initial_replicas=1)
        (replica,) = stack.platform.deployer.replicas("markdown")
        assert replica.allocation.privileged

    def test_unknown_provider_rejected(self, kernel):
        with pytest.raises(ValueError):
            make_openfaas_stack(kernel, provider_name="nomad")


class TestOnePlatform:
    """A CRIU-template function runs on the platform's restore path."""

    def _deployed(self, kernel):
        stack = make_openfaas_stack(kernel)
        stack.cli.new("markdown", "java8-criu-warm", MarkdownFunction)
        stack.cli.up("markdown")
        return stack

    def test_gateway_invoke_is_a_platform_request(self, kernel):
        stack = self._deployed(kernel)
        platform = stack.platform
        assert stack.gateway.invoke("markdown", Request(body="# X")).ok
        (record,) = platform.router.stats.records
        assert record.cold_start and record.technique == "prebake"
        assert [r.replica_id for r in platform.deployer.replicas("markdown")] \
            == [record.replica_id]
        assert platform.cold_start_latencies("markdown") == [record.queued_ms]
        store = platform.prebake_manager.store
        assert store.restore_count(store.keys()[0]) == 1

    def test_restore_faults_take_the_starter_retry_path(self):
        kernel = make_world(seed=4, observe=True).kernel
        stack = self._deployed(kernel)
        stack.platform.install_faults(faults.FaultPlan.of(restore_fail=1.0))
        assert stack.gateway.invoke("markdown").ok
        metrics = kernel.obs.metrics
        assert metrics.value("prebake_restore_retries_total") >= 1
        assert metrics.value("prebake_fallback_total") == 1
        (record,) = stack.platform.router.stats.records
        assert record.cold_start and record.technique == "vanilla"
