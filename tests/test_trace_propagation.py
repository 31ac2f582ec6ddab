"""End-to-end causal tracing: one request, one connected span tree.

The tentpole's propagation claim, pinned down on the full platform
path (router → deployer → starter → replica → runtime): every span a
request causes carries the trace id minted at the entry point, the
tree is connected (each non-root span's parent exists in the same
trace), and nothing stays open afterwards — including under WORKING_SET
restores and injected transient restore failures, whose retry/backoff
work must land in the *same* request's trace.
"""

import functools

import pytest

from repro import make_world, obs
from repro.criu.restore import RestoreMode
from repro.faas.platform import FaaSPlatform, PlatformConfig
from repro.faults import FaultPlan, FaultSpec, RESTORE_FAIL
from repro.functions import make_app
from repro.runtime.base import Request
from repro.bench.fault_sweep import knob_plan
from tests.transient import install_transient


def observed_platform(seed=11):
    world = make_world(seed=seed, observe=True)
    return world.kernel, FaaSPlatform(world.kernel, PlatformConfig())


def restore_with(platform, restore_mode):
    """Make the platform's prebake starters restore in ``restore_mode``
    (the platform itself always restores eagerly)."""
    manager = platform.prebake_manager
    manager.starter = functools.partial(manager.starter,
                                        restore_mode=restore_mode)


def spans_by_trace(kernel, trace_id):
    return kernel.obs.tracer.by_trace(trace_id)


def assert_connected_tree(spans):
    """Exactly one root; every parent id resolves inside the trace."""
    ids = {s.span_id for s in spans}
    roots = [s for s in spans if s.parent_id is None]
    assert len(roots) == 1, (
        f"expected one root, got {[s.name for s in roots]}")
    orphans = [s.name for s in spans
               if s.parent_id is not None and s.parent_id not in ids]
    assert not orphans, f"orphaned spans (parent outside trace): {orphans}"
    assert all(s.duration_ms is not None for s in spans), "open span in trace"


class TestSingleRequestTrace:
    @pytest.mark.parametrize("restore_mode",
                             [RestoreMode.EAGER, RestoreMode.WORKING_SET])
    def test_cold_start_spans_share_one_trace(self, restore_mode):
        kernel, platform = observed_platform()
        restore_with(platform, restore_mode)
        platform.register_function(lambda: make_app("markdown"),
                                   start_technique="prebake")
        request = Request()
        platform.invoke("markdown", request)
        assert request.trace is not None, "router did not mint a trace"
        spans = spans_by_trace(kernel, request.trace.trace_id)
        assert_connected_tree(spans)
        names = {s.name for s in spans}
        # The cold-start critical path is all causally attached: routing,
        # provisioning, the restore itself, and first-request serving.
        assert {"router.route", "deployer.provision",
                "criu.restore", "replica.request"} <= names
        assert kernel.obs.tracer.open_spans() == []

    def test_vanilla_cold_start_trace_is_connected(self):
        kernel, platform = observed_platform()
        platform.register_function(lambda: make_app("noop"))
        request = Request()
        platform.invoke("noop", request)
        spans = spans_by_trace(kernel, request.trace.trace_id)
        assert_connected_tree(spans)
        assert "runtime.boot" in {s.name for s in spans}

    def test_warm_request_joins_its_own_trace_not_the_cold_one(self):
        kernel, platform = observed_platform()
        platform.register_function(lambda: make_app("noop"))
        cold, warm = Request(), Request()
        platform.invoke("noop", cold)
        platform.invoke("noop", warm)
        assert cold.trace.trace_id != warm.trace.trace_id
        warm_spans = spans_by_trace(kernel, warm.trace.trace_id)
        assert_connected_tree(warm_spans)
        # No provisioning happens on the warm path.
        assert "deployer.provision" not in {s.name for s in warm_spans}

    def test_preminted_context_is_adopted_downstream(self):
        """A caller-supplied trace context (an upstream gateway) wins."""
        kernel, platform = observed_platform()
        platform.register_function(lambda: make_app("noop"),
                                   start_technique="prebake")
        upstream = obs.TraceContext(trace_id="edge-7f3a")
        request = Request(trace=upstream)
        platform.invoke("noop", request)
        assert request.trace is upstream
        spans = spans_by_trace(kernel, "edge-7f3a")
        assert spans, "downstream spans did not adopt the upstream trace"
        names = {s.name for s in spans}
        assert {"router.route", "criu.restore"} <= names


class TestTraceUnderFaults:
    def test_retried_restore_stays_in_one_trace_without_leaks(self):
        """Transient restore failures: the failed attempts, their
        backoffs, and the eventually-successful restore all belong to
        the same request trace, with the failed spans closed as errors
        and zero spans left open."""
        kernel, platform = observed_platform()
        platform.register_function(lambda: make_app("markdown"),
                                   start_technique="prebake")
        install_transient(kernel, FaultPlan(specs={RESTORE_FAIL: FaultSpec(
            RESTORE_FAIL, 1.0)}), fires=2)
        request = Request()
        response = platform.invoke("markdown", request)
        assert response.status == 200
        spans = spans_by_trace(kernel, request.trace.trace_id)
        assert_connected_tree(spans)
        restores = [s for s in spans if s.name == "criu.restore"]
        assert len(restores) == 3  # two injected failures + the success
        assert [s.status for s in restores].count("error") == 2
        assert all(s.attributes.get("error_type") == "RestoreFailed"
                   for s in restores if s.status == "error")
        assert kernel.obs.tracer.open_spans() == []

    @pytest.mark.parametrize("restore_mode",
                             [RestoreMode.EAGER, RestoreMode.WORKING_SET])
    def test_fallback_after_exhausted_retries_joins_the_trace(
            self, restore_mode):
        kernel, platform = observed_platform()
        restore_with(platform, restore_mode)
        platform.register_function(lambda: make_app("noop"),
                                   start_technique="prebake")
        platform.install_faults(knob_plan(1.0, {"restore.fail": 1.0}))
        request = Request()
        response = platform.invoke("noop", request)
        assert response.status == 200
        spans = spans_by_trace(kernel, request.trace.trace_id)
        assert_connected_tree(spans)
        names = [s.name for s in spans]
        # The vanilla fallback boot rides the same causal trace as the
        # restore attempts that forced it.
        assert "runtime.boot" in names
        assert any(s.name == "criu.restore" and s.status == "error"
                   for s in spans)
        assert kernel.obs.tracer.open_spans() == []


class TestExemplars:
    def test_cold_start_histogram_links_back_to_the_trace(self):
        kernel, platform = observed_platform()
        platform.register_function(lambda: make_app("markdown"),
                                   start_technique="prebake")
        request = Request()
        platform.invoke("markdown", request)
        family = next(f for f in kernel.obs.metrics.families()
                      if f.name == "router_cold_start_wait_ms")
        exemplars = [pair for histogram in family.series.values()
                     for pair in histogram.exemplars.values()]
        assert exemplars, "cold-start histogram recorded no exemplar"
        assert any(trace_id == request.trace.trace_id
                   for trace_id, _value in exemplars)
