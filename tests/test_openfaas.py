"""Tests for the OpenFaaS integration layer (paper §5)."""

import pytest

from repro.faas.openfaas import (
    AlertRule,
    ContainerImage,
    FaasCliError,
    ImageLayer,
    ImageNotFound,
    ImageRepository,
    PrometheusLite,
    ProviderError,
    Template,
    TemplateStore,
)
from repro.faas.openfaas.stack import make_openfaas_stack
from repro.faas.openfaas.templates import TemplateError
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
        assert len(store.criu_templates()) >= 3

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
        assert repo.pull_count("registry.local/fn:1") == 1

    def test_pull_missing(self):
        with pytest.raises(ImageNotFound):
            ImageRepository().pull("ghost:1")

    def test_total_bytes(self):
        repo = ImageRepository()
        repo.push(self._image("1"))
        repo.push(self._image("2"))
        assert repo.total_bytes == 200


class TestPrometheus:
    def test_counter_and_gauge(self):
        prom = PrometheusLite()
        prom.inc("hits", labels={"fn": "a"})
        prom.inc("hits", 2, labels={"fn": "a"})
        prom.set_gauge("replicas", 4, labels={"fn": "a"})
        assert prom.value("hits", {"fn": "a"}) == 3
        assert prom.value("replicas") == 4

    def test_counter_cannot_decrease(self):
        with pytest.raises(ValueError):
            PrometheusLite().inc("x", -1)

    def test_label_subset_matching(self):
        prom = PrometheusLite()
        prom.inc("hits", labels={"fn": "a", "code": "200"})
        prom.inc("hits", labels={"fn": "b", "code": "200"})
        assert prom.value("hits") == 2
        assert prom.value("hits", {"fn": "a"}) == 1

    def test_alert_fires_and_delivers(self):
        prom = PrometheusLite()
        fired = []
        prom.subscribe(fired.append)
        prom.add_rule(AlertRule(name="hot", metric="load", threshold=5.0))
        prom.set_gauge("load", 10.0)
        alerts = prom.evaluate(now_ms=1.0)
        assert len(alerts) == 1
        assert fired[0].value == 10.0

    def test_alert_below_threshold_silent(self):
        prom = PrometheusLite()
        prom.add_rule(AlertRule(name="hot", metric="load", threshold=5.0))
        prom.set_gauge("load", 5.0)
        assert prom.evaluate() == []

    def test_less_than_rule(self):
        prom = PrometheusLite()
        prom.add_rule(AlertRule(name="low", metric="free", threshold=2.0,
                                comparison="<"))
        prom.set_gauge("free", 1.0)
        assert len(prom.evaluate()) == 1

    def test_less_than_rule_fires_on_absent_metric(self):
        # An unwritten metric sums to 0, which is below any positive
        # threshold — "<" rules see missing data as an outage.
        prom = PrometheusLite()
        prom.add_rule(AlertRule(name="low", metric="free", threshold=2.0,
                                comparison="<"))
        (alert,) = prom.evaluate()
        assert alert.value == 0.0

    def test_rule_with_label_filter_sums_matching_series_only(self):
        prom = PrometheusLite()
        prom.add_rule(AlertRule(name="hot-a", metric="pending", threshold=3.0,
                                labels={"fn": "a"}))
        prom.set_gauge("pending", 10.0, labels={"fn": "b"})
        assert prom.evaluate() == []  # fn=b alone must not trip fn=a's rule
        prom.set_gauge("pending", 4.0, labels={"fn": "a"})
        (alert,) = prom.evaluate()
        assert alert.value == 4.0

    def test_less_than_rule_with_label_filter(self):
        prom = PrometheusLite()
        prom.add_rule(AlertRule(name="starved", metric="idle", threshold=1.0,
                                comparison="<", labels={"fn": "a"}))
        prom.set_gauge("idle", 5.0, labels={"fn": "b"})
        prom.set_gauge("idle", 0.0, labels={"fn": "a"})
        (alert,) = prom.evaluate(now_ms=3.0)
        assert alert.value == 0.0
        assert alert.at_ms == 3.0

    def test_unsupported_comparison_rejected(self):
        rule = AlertRule(name="bad", metric="m", threshold=1.0,
                         comparison=">=")
        with pytest.raises(ValueError, match="unsupported comparison"):
            rule.evaluate(2.0)

    def test_exact_threshold_never_fires(self):
        rule = AlertRule(name="edge", metric="m", threshold=5.0)
        assert not rule.evaluate(5.0)
        assert not AlertRule(name="edge", metric="m", threshold=5.0,
                             comparison="<").evaluate(5.0)

    def test_histogram_series_invisible_to_rules(self):
        # Alert rules compare scalar sums; observations must not trip them.
        prom = PrometheusLite()
        prom.add_rule(AlertRule(name="hot", metric="lat_ms", threshold=1.0))
        prom.observe("lat_ms", 100.0)
        assert prom.evaluate() == []

    def test_shared_registry_is_visible_to_rules(self):
        from repro.obs.metrics import MetricsRegistry
        registry = MetricsRegistry()
        prom = PrometheusLite(registry=registry)
        prom.add_rule(AlertRule(name="hot", metric="load", threshold=5.0))
        registry.set_gauge("load", 10.0)  # written outside PrometheusLite
        (alert,) = prom.evaluate()
        assert alert.value == 10.0


class TestCliWorkflow:
    def test_new_build_push_deploy_invoke(self, stack):
        stack.cli.new("md", "java8-criu-warm", MarkdownFunction)
        image = stack.cli.build("md")
        assert image.has_snapshot
        assert image.requires_privileged
        assert image.snapshot_layer() is not None
        stack.cli.push("md")
        stack.cli.deploy("md")
        response = stack.gateway.invoke("md", Request(body="# X"))
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
        stack.cli.new("a", "java8", NoopFunction)
        with pytest.raises(FaasCliError, match="already exists"):
            stack.cli.new("a", "java8", NoopFunction)

    def test_runtime_template_mismatch_rejected(self, stack):
        with pytest.raises(FaasCliError, match="runtime"):
            stack.cli.new("bad", "python3", NoopFunction)

    def test_build_without_new_rejected(self, stack):
        with pytest.raises(FaasCliError, match="no project"):
            stack.cli.build("ghost")

    def test_push_before_build_rejected(self, stack):
        stack.cli.new("a", "java8", NoopFunction)
        with pytest.raises(FaasCliError, match="not been built"):
            stack.cli.push("a")

    def test_deploy_before_push_rejected(self, stack):
        stack.cli.new("a", "java8", NoopFunction)
        stack.cli.build("a")
        with pytest.raises(FaasCliError, match="built and pushed"):
            stack.cli.deploy("a")

    def test_criu_build_requires_buildx(self, kernel):
        """§5.2: usual docker build cannot run privileged operations."""
        stack = make_openfaas_stack(kernel, buildx_installed=False)
        stack.cli.new("md", "java8-criu", MarkdownFunction)
        with pytest.raises(FaasCliError, match="Buildx"):
            stack.cli.build("md")
        # Vanilla builds still work without buildx.
        stack.cli.new("ok", "java8", NoopFunction)
        stack.cli.build("ok")

    def test_bump_version_rebuilds(self, stack):
        stack.cli.new("md", "java8-criu", MarkdownFunction)
        first = stack.cli.build("md")
        version = stack.cli.bump_version("md")
        assert version == 2
        second = stack.cli.build("md")
        assert second.tag == "2"
        assert first.snapshot_key != second.snapshot_key


class TestGateway:
    def test_cold_start_on_first_invoke(self, stack):
        stack.cli.new("noop", "java8-criu", NoopFunction)
        stack.cli.up("noop")
        assert stack.gateway.replica_count("noop") == 0
        stack.gateway.invoke("noop")
        assert stack.gateway.replica_count("noop") == 1
        assert stack.prometheus.value("gateway_cold_start_total",
                                      {"function": "noop"}) == 1

    def test_scale_up_and_down(self, stack):
        stack.cli.new("noop", "java8", NoopFunction)
        stack.cli.up("noop")
        stack.gateway.scale("noop", 3)
        assert stack.gateway.replica_count("noop") == 3
        stack.gateway.scale("noop", 1)
        assert stack.gateway.replica_count("noop") == 1

    def test_invoke_unknown_service(self, stack):
        from repro.faas.openfaas.gateway import GatewayError
        with pytest.raises(GatewayError, match="not deployed"):
            stack.gateway.invoke("ghost")

    def test_remove_service(self, stack):
        stack.cli.new("noop", "java8", NoopFunction)
        stack.cli.up("noop", initial_replicas=2)
        stack.gateway.remove("noop")
        assert "noop" not in stack.gateway.services()
        assert stack.provider.service_containers("noop") == []

    def test_invocation_metrics_counted(self, stack):
        stack.cli.new("noop", "java8", NoopFunction)
        stack.cli.up("noop")
        for _ in range(3):
            stack.gateway.invoke("noop")
        assert stack.prometheus.value("gateway_function_invocation_total",
                                      {"function": "noop"}) == 3


class TestProviders:
    def test_swarm_refuses_privileged_snapshot_image(self, kernel):
        stack = make_openfaas_stack(kernel, provider_name="dockerswarm")
        stack.cli.new("md", "java8-criu", MarkdownFunction)
        stack.cli.build("md")
        stack.cli.push("md")
        stack.cli.deploy("md")
        with pytest.raises(ProviderError):
            stack.gateway.invoke("md")

    def test_swarm_with_unprivileged_cr_capability(self, kernel):
        """CAP_CHECKPOINT_RESTORE [11] removes the --privileged need."""
        stack = make_openfaas_stack(kernel, provider_name="dockerswarm",
                                    allow_unprivileged_cr=True)
        stack.cli.new("md", "java8-criu", MarkdownFunction)
        stack.cli.build("md")
        stack.cli.push("md")
        stack.cli.deploy("md")
        response = stack.gateway.invoke("md")
        assert response.ok

    def test_kubernetes_runs_privileged(self, stack):
        stack.cli.new("md", "java8-criu", MarkdownFunction)
        stack.cli.up("md", initial_replicas=1)
        containers = stack.provider.service_containers("md")
        assert containers[0].container.privileged

    def test_unknown_provider_rejected(self, kernel):
        with pytest.raises(ValueError):
            make_openfaas_stack(kernel, provider_name="nomad")


class TestWatchdog:
    def test_health_endpoint(self, stack):
        stack.cli.new("noop", "java8", NoopFunction)
        stack.cli.up("noop", initial_replicas=1)
        service = stack.gateway._services["noop"]
        watchdog = service.replicas[0].watchdog
        assert watchdog.healthy()
        assert watchdog.health_checks >= 1

    def test_watchdog_shutdown_kills_function(self, stack):
        stack.cli.new("noop", "java8", NoopFunction)
        stack.cli.up("noop", initial_replicas=1)
        service = stack.gateway._services["noop"]
        replica = service.replicas[0]
        function_proc = replica.watchdog.handle.process
        stack.gateway.scale("noop", 0)
        assert not function_proc.alive

    def test_unprivileged_watchdog_cannot_restore(self, kernel):
        """The watchdog needs --privileged to run criu restore."""
        from repro.core.bake import Prebaker
        from repro.core.starters import PrebakeStarter
        from repro.criu.restore import RestoreError
        from repro.faas.openfaas.watchdog import Watchdog
        app = MarkdownFunction()
        prebaker = Prebaker(kernel)
        prebaker.bake(app)
        starter = PrebakeStarter(kernel, prebaker.store)
        watchdog = Watchdog(kernel, privileged=False)
        with pytest.raises(RestoreError, match="capability"):
            watchdog.start_function(starter, app)
