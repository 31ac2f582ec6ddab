"""Flight recorder: ring semantics, serialization, and zero-cost-off.

Three claims from the issue are pinned here:

* flight events survive an encode/decode round-trip exactly (dict and
  JSONL forms);
* the bounded ring evicts oldest-first and accounts the drops;
* a world with the recorder *off* produces bit-identical startup
  samples to one with it on — the tape reads the clock but never
  advances it (the disabled-path/overhead guard, satellite 6).
"""

import json

import pytest

from repro import make_world, obs
from repro.bench.harness import run_startup_experiment
from repro.core.manager import PrebakeManager
from repro.faas import FaaSPlatform
from repro.functions import make_app
from repro.obs.flight import (
    EVENT_KINDS,
    FLIGHT_SCHEMA,
    FlightEvent,
    FlightRecorder,
    write_flight_jsonl,
)


class TestEventRoundTrip:
    def test_dict_round_trip_exact(self):
        event = FlightEvent(seq=7, at_ms=123.456789, kind="restore.started",
                            trace_id="t-0003", span_id=9,
                            attrs={"image": "img-000001", "mib": 14.056})
        clone = FlightEvent.from_dict(event.as_dict())
        assert clone.as_dict() == event.as_dict()
        assert clone.seq == 7
        assert clone.at_ms == 123.456789
        assert clone.trace_id == "t-0003"
        assert clone.span_id == 9
        assert clone.attrs == event.attrs

    def test_node_field_round_trips_and_hoists_from_attrs(self):
        event = FlightEvent(seq=1, at_ms=5.0, kind="restore.started",
                            node="node-3", attrs={"image": "img-000001"})
        clone = FlightEvent.from_dict(event.as_dict())
        assert clone.node == "node-3"
        assert clone.as_dict()["node"] == "node-3"
        # Recording with a node= attr labels the event without callers
        # having to know about the dedicated field.
        hoisted = FlightEvent(seq=2, at_ms=6.0, kind="restore.started",
                              attrs={"node": "store-1"})
        assert hoisted.node == "store-1"
        # Legacy events without a node stay node-less after a round
        # trip (no "node" key invented on the wire).
        legacy = FlightEvent(seq=3, at_ms=7.0, kind="restore.started")
        assert legacy.node is None
        assert "node" not in legacy.as_dict()
        assert FlightEvent.from_dict(legacy.as_dict()).node is None

    def test_jsonl_round_trip_preserves_order_and_payload(self, tmp_path):
        kernel = make_world(seed=3).kernel
        recorder = obs.install_flight(kernel)
        for index in range(5):
            kernel.clock.advance(10.0)
            recorder.record("request.admitted", request_id=index)
        path = write_flight_jsonl(tmp_path / "tape.jsonl", recorder.events())
        loaded = [FlightEvent.from_dict(json.loads(line))
                  for line in path.read_text(encoding="utf-8").splitlines()]
        assert [e.as_dict() for e in loaded] == \
            [e.as_dict() for e in recorder.events()]
        # Tape order is arrival order.
        assert [e.attrs["request_id"] for e in loaded] == list(range(5))

    def test_from_dict_rejects_garbage(self):
        from repro.obs.flight import FlightError

        assert FLIGHT_SCHEMA == 1
        with pytest.raises(FlightError):
            FlightEvent.from_dict({"not": "an event"})
        with pytest.raises(FlightError):
            FlightEvent.from_dict({"kind": "deploy", "seq": "x",
                                   "at_ms": 0.0})

    def test_kind_catalogue_is_stable(self):
        # Postmortems and dashboards key on these strings.
        assert "restore.failed" in EVENT_KINDS
        assert "fault.injected" in EVENT_KINDS
        assert "slo.breach" in EVENT_KINDS


class TestRingEviction:
    def test_oldest_evicted_first_and_drops_counted(self):
        kernel = make_world(seed=1).kernel
        recorder = FlightRecorder(kernel.clock, capacity=4)
        for index in range(10):
            recorder.record("request.admitted", request_id=index)
        kept = [e.attrs["request_id"] for e in recorder.events()]
        assert kept == [6, 7, 8, 9]
        assert len(recorder) == 4
        assert recorder.total == 10
        assert recorder.dropped == 6
        # seq numbering is global, not per-ring-slot.
        assert [e.seq for e in recorder.events()] == [7, 8, 9, 10]

    def test_evictions_count_into_flight_dropped_total(self):
        from repro.obs.metrics import MetricsRegistry

        kernel = make_world(seed=1).kernel
        registry = MetricsRegistry()
        recorder = FlightRecorder(kernel.clock, capacity=4, metrics=registry)
        for index in range(10):
            recorder.record("request.admitted", request_id=index)
        assert recorder.dropped == 6
        assert registry.value("flight_dropped_total") == 6.0

    def test_installed_recorder_reports_drops_to_world_metrics(self):
        kernel = make_world(seed=2, observe=True).kernel
        recorder = obs.install_flight(kernel, capacity=2)
        for index in range(5):
            recorder.record("request.admitted", request_id=index)
        assert kernel.obs.metrics.value("flight_dropped_total") == 3.0

    def test_last_n_keeps_arrival_order(self):
        kernel = make_world(seed=1).kernel
        recorder = FlightRecorder(kernel.clock, capacity=8)
        recorder.record("request.admitted", request_id=0)
        recorder.record("restore.started", image="img-1")
        recorder.record("request.admitted", request_id=1)
        assert [e.kind for e in recorder.last(2)] == \
            ["restore.started", "request.admitted"]
        assert recorder.last(0) == []


class TestTraceCorrelation:
    def test_events_inside_span_carry_trace_and_span(self):
        kernel = make_world(seed=5, observe=True).kernel
        obs.install_flight(kernel)
        with obs.span(kernel, "unit.work"):
            obs.record(kernel, "deploy", function="noop")
        (event,) = kernel.obs.flight.events()
        (span,) = kernel.obs.tracer.find("unit.work")
        assert event.trace_id == span.trace_id
        assert event.span_id == span.span_id

    def test_events_outside_span_are_uncorrelated(self):
        kernel = make_world(seed=5, observe=True).kernel
        obs.install_flight(kernel)
        obs.record(kernel, "deploy", function="noop")
        (event,) = kernel.obs.flight.events()
        assert event.trace_id is None
        assert event.span_id is None


class TestLifecycleCoverage:
    def test_platform_request_leaves_a_readable_tape(self):
        kernel = make_world(seed=11, observe=True).kernel
        obs.install_flight(kernel)
        platform = FaaSPlatform(kernel)
        platform.register_function(lambda: make_app("markdown"),
                                   start_technique="prebake")
        platform.invoke("markdown")
        kinds = {e.kind for e in kernel.obs.flight.events()}
        assert {"request.admitted", "restore.started", "restore.finished",
                "replica.provisioned", "request.routed"} <= kinds

    def test_manager_deploy_lands_on_tape(self):
        kernel = make_world(seed=11, observe=True).kernel
        obs.install_flight(kernel)
        PrebakeManager(kernel).deploy(make_app("noop"))
        (event,) = [e for e in kernel.obs.flight.events()
                    if e.kind == "deploy"]
        assert event.attrs["function"] == "noop"
        assert event.attrs["version"] == 1

    def test_recording_off_is_a_noop(self):
        kernel = make_world(seed=11).kernel
        assert kernel.obs is None
        obs.record(kernel, "deploy", function="noop")  # must not raise
        manager = PrebakeManager(kernel)
        manager.deploy(make_app("noop"))
        assert kernel.obs is None


class TestDisabledPathOverheadGuard:
    def test_samples_bit_identical_with_and_without_tape(self):
        """Satellite 6: the fig3 harness measurement is unchanged by
        the recorder — it never touches the clock or RNG, so the
        committed perf-gate baselines hold with telemetry on."""
        plain = run_startup_experiment("markdown", "prebake",
                                       repetitions=3, seed=21)
        sink = []
        flight = []
        taped = run_startup_experiment("markdown", "prebake",
                                       repetitions=3, seed=21,
                                       trace_sink=sink, flight_sink=flight)
        assert [s.startup_ms for s in taped.samples] == \
            [s.startup_ms for s in plain.samples]
        assert flight  # the tape did record the lifecycle
        reps = {record["rep"] for record in flight}
        assert reps == {0, 1, 2}

    @pytest.mark.parametrize("write", [
        lambda kernel: obs.count(kernel, "criu_restore_total"),
        lambda kernel: obs.gauge(kernel, "pool_size", 3.0),
        lambda kernel: obs.observe(kernel, "criu_restore_duration_ms", 12.5),
    ], ids=["count", "gauge", "observe"])
    def test_metric_writes_never_reach_the_tape(self, write):
        kernel = make_world(seed=2, observe=True).kernel
        tape = obs.install_flight(kernel)
        obs.enable_timeseries(kernel)
        write(kernel)
        assert tape.events() == []
        assert kernel.obs.timeseries.names()  # the write was live


class TestLogTraceStamping:
    def test_log_lines_carry_trace_id_when_span_open(self, capsys):
        """Satellite 2: structured stderr lines gain ``trace_id=`` when
        a provider is bound and a span is open."""
        from repro.obs.log import bound_trace_provider, get_logger

        kernel = make_world(seed=9, observe=True).kernel
        logger = get_logger("bench")
        with bound_trace_provider(kernel.obs.tracer.current_trace_id):
            logger.info("outside.span", step=1)
            with obs.span(kernel, "unit.work") as span:
                logger.info("inside.span", step=2)
                trace_id = span.trace_id
        logger.info("after.unbind", step=3)
        err = capsys.readouterr().err
        lines = {line.split("event=")[1].split()[0]: line
                 for line in err.strip().splitlines()}
        assert "trace_id" not in lines["outside.span"]
        assert f"trace_id={trace_id}" in lines["inside.span"]
        assert "trace_id" not in lines["after.unbind"]

    def test_explicit_trace_id_field_wins(self, capsys):
        from repro.obs.log import bound_trace_provider, get_logger

        logger = get_logger("bench")
        with bound_trace_provider(lambda: "t-provider"):
            logger.info("explicit.field", trace_id="t-mine")
        err = capsys.readouterr().err
        assert "trace_id=t-mine" in err
        assert "t-provider" not in err
