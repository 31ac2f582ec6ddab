"""Tests for repro.obs.spans and the zero-cost kernel helpers."""

import pytest

from repro import make_world, obs
from repro.obs.spans import NULL_SPAN, NullSpan, SpanError, Tracer


class FakeClock:
    """Minimal clock: a settable ``now`` in milliseconds."""

    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, ms: float) -> None:
        self.now += ms


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    return Tracer(clock)


class TestTracer:
    def test_nesting_and_parentage(self, tracer, clock):
        with tracer.span("root") as root:
            clock.advance(5.0)
            with tracer.span("child") as child:
                clock.advance(2.0)
        assert child.parent_id == root.span_id
        assert child.trace_id == root.trace_id
        assert tracer.children(root) == [child]
        assert tracer.children(child) == []

    def test_timestamps_come_from_the_clock(self, tracer, clock):
        clock.advance(3.0)
        with tracer.span("op") as span:
            clock.advance(7.5)
        assert span.start_ms == 3.0
        assert span.end_ms == 10.5
        assert span.duration_ms == 7.5

    def test_completion_order_is_innermost_first(self, tracer):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [s.name for s in tracer.spans] == ["inner", "outer"]

    def test_each_root_opens_a_fresh_trace(self, tracer):
        with tracer.span("a") as a:
            pass
        with tracer.span("b") as b:
            pass
        assert a.trace_id != b.trace_id
        assert tracer.by_trace(a.trace_id) == [a]

    def test_attributes_and_set_chain(self, tracer):
        with tracer.span("op", function="md") as span:
            assert span.set(mib=12.5) is span
        assert span.attributes == {"function": "md", "mib": 12.5}
        record = span.as_dict()
        assert record["name"] == "op"
        assert record["attrs"] == {"function": "md", "mib": 12.5}
        assert record["duration_ms"] == record["end_ms"] - record["start_ms"]

    def test_exception_marks_span_error(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("boom") as span:
                raise RuntimeError("kaput")
        assert span.finished
        assert span.status == "error"
        assert "kaput" in span.attributes["error"]

    def test_double_finish_rejected(self, tracer):
        span = tracer.span("op")
        tracer.finish(span)
        with pytest.raises(SpanError, match="twice"):
            tracer.finish(span)

    def test_out_of_order_finish_rejected(self, tracer):
        outer = tracer.span("outer")
        tracer.span("inner")
        with pytest.raises(SpanError, match="out of order"):
            tracer.finish(outer)
        assert len(tracer.open_spans()) == 2

    def test_unfinished_span_has_no_duration(self, tracer):
        span = tracer.span("op")
        with pytest.raises(SpanError, match="not finished"):
            span.duration_ms
        assert span.as_dict()["duration_ms"] is None

    def test_find_sees_finished_spans_only(self, tracer):
        with tracer.span("a"):
            pass
        keep_open = tracer.span("b")
        assert [s.name for s in tracer.find("a")] == ["a"]
        assert tracer.find("b") == []
        tracer.finish(keep_open)
        assert [s.name for s in tracer.find("b")] == ["b"]


class TestKernelHelpers:
    def test_unobserved_world_is_a_noop(self):
        kernel = make_world(seed=1).kernel
        assert kernel.obs is None
        assert obs.span(kernel, "anything", k=1) is NULL_SPAN
        obs.count(kernel, "c")
        obs.gauge(kernel, "g", 1.0)
        obs.observe(kernel, "h", 1.0)
        assert kernel.obs is None

    def test_null_span_api(self):
        with NULL_SPAN as span:
            assert span is NULL_SPAN
            assert span.set(x=1) is NULL_SPAN
        assert NULL_SPAN.finished
        assert isinstance(NULL_SPAN, NullSpan)

    def test_install_is_idempotent(self):
        kernel = make_world(seed=1).kernel
        hub = obs.install(kernel)
        assert obs.install(kernel) is hub
        obs.uninstall(kernel)
        assert kernel.obs is None

    def test_make_world_observe_flag(self):
        kernel = make_world(seed=1, observe=True).kernel
        assert kernel.obs is not None
        assert kernel.obs.tracer.clock is kernel.clock

    def test_helpers_route_to_installed_hub(self):
        kernel = make_world(seed=1, observe=True).kernel
        with obs.span(kernel, "op", k="v"):
            obs.count(kernel, "hits", labels={"fn": "a"})
            obs.gauge(kernel, "depth", 2.0)
            obs.observe(kernel, "lat_ms", 5.0)
        (span,) = kernel.obs.tracer.find("op")
        assert span.attributes == {"k": "v"}
        assert kernel.obs.metrics.value("hits") == 1.0
        assert kernel.obs.metrics.value("depth") == 2.0
        assert kernel.obs.metrics.histogram("lat_ms").count == 1

    def test_per_world_buffers_are_isolated(self):
        w1 = make_world(seed=1, observe=True).kernel
        w2 = make_world(seed=2, observe=True).kernel
        with obs.span(w1, "only-in-w1"):
            pass
        assert w1.obs.tracer.find("only-in-w1")
        assert w2.obs.tracer.spans == []

    def test_spans_stamp_simulated_time(self):
        kernel = make_world(seed=1, observe=True).kernel
        span = obs.span(kernel, "op")
        kernel.clock.advance(42.0)
        span.__exit__(None, None, None)
        assert span.duration_ms == pytest.approx(42.0)
