"""Online anomaly detection: detector math, windows, and wiring.

The detectors are deterministic, numpy-only online estimators; the
tests pin the statistical contract (warmup, robustness to a single
outlier, baseline protection) and the plumbing contract (metric
helpers feed the monitor, emissions land on the flight tape and the
``anomaly_events_total`` counter without re-entering the monitor).
"""

import pytest

from repro import make_world, obs
from repro.obs.anomaly import (
    ABOVE,
    AnomalyEvent,
    BELOW,
    COLD_START_LATENCY,
    EwmaMadDetector,
    RESTORE_FAILURE_RATE,
    AnomalyMonitor,
    default_monitor,
)


class TestEwmaMadDetector:
    def test_warmup_samples_never_flag(self):
        detector = EwmaMadDetector("d", warmup=8)
        for _ in range(8):
            assert detector.update(50.0) is None
        # Warmed up now: a 10x spike flags.
        assert detector.update(500.0) is not None

    def test_spike_flags_and_does_not_poison_baseline(self):
        detector = EwmaMadDetector("d", warmup=4)
        for value in [50.0, 51.0, 49.0, 50.0, 50.5]:
            assert detector.update(value) is None
        baseline_before = detector.ewma
        hit = detector.update(500.0)
        assert hit is not None
        assert hit["score"] > detector.z_threshold
        assert hit["baseline"] == pytest.approx(baseline_before)
        # The anomalous sample was rejected from the estimate, so the
        # very next normal sample does not flag.
        assert detector.ewma == pytest.approx(baseline_before)
        assert detector.update(50.0) is None

    def test_direction_below(self):
        detector = EwmaMadDetector("d", warmup=4, direction=BELOW)
        for value in [50.0, 51.0, 49.0, 50.0]:
            detector.update(value)
        assert detector.update(500.0) is None   # above: ignored
        assert detector.update(1.0) is not None  # below: flagged

    def test_min_delta_suppresses_float_dust(self):
        # All-zero baseline -> MAD 0, rel_floor*0 = 0; without
        # min_delta a 1e-12 'rate' would score astronomically.
        detector = EwmaMadDetector("d", warmup=3, min_delta=0.05)
        for _ in range(4):
            detector.update(0.0)
        assert detector.update(1e-12) is None
        assert detector.update(1.0) is not None

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            EwmaMadDetector("d", warmup=0)
        with pytest.raises(ValueError):
            EwmaMadDetector("d", direction="sideways")


class TestAnomalyMonitorWindows:
    def _warmed_rate_monitor(self, window_ms=100.0, warmup=3):
        monitor = AnomalyMonitor(window_ms=window_ms)
        monitor.watch_rate(
            "fail-rate", bad_metric="fails_total",
            total_metric="ok_total",
            detector=EwmaMadDetector("fail-rate", warmup=warmup,
                                     direction=ABOVE, min_delta=0.05),
            additive_total=True,
        )
        # Clean traffic across `warmup` + 1 windows.
        for window in range(warmup + 1):
            monitor.offer_count("ok_total", window * window_ms + 10.0, 4.0)
        return monitor

    def test_rate_spike_flagged_with_window_bounds(self):
        monitor = self._warmed_rate_monitor()
        hits = []
        monitor.subscribe(hits.append)
        # All-failures window at [400, 500): additive_total keeps the
        # denominator alive even though ok_total saw nothing.
        monitor.offer_count("fails_total", 410.0, 4.0)
        monitor.flush(510.0)
        (event,) = hits
        assert event.detector == "fail-rate"
        assert event.value == 1.0
        assert (event.window_start_ms, event.window_end_ms) == (400.0, 500.0)
        assert monitor.events == [event]

    def test_empty_windows_say_nothing(self):
        monitor = self._warmed_rate_monitor()
        # ~46 idle windows pass before the next traffic; idle windows
        # produce no rate samples, so the detector sees exactly the 5
        # windows that had traffic (4 warmup + the final one).
        monitor.offer_count("ok_total", 5_000.0, 4.0)
        monitor.flush(5_100.0)
        assert monitor.events == []
        assert monitor._rate_watches[0].detector.accepted == 5

    def test_event_round_trip(self):
        event = AnomalyEvent(at_ms=500.0, detector="d", metric="m",
                             value=1.0, baseline=0.0, score=9.9,
                             threshold=6.0, direction=ABOVE,
                             window_start_ms=400.0, window_end_ms=500.0,
                             trace_id="t-0001")
        clone = AnomalyEvent.from_dict(event.as_dict())
        assert clone.as_dict() == event.as_dict()


class TestHelperWiring:
    def test_observe_feeds_watch_and_stamps_flight_and_counter(self):
        kernel = make_world(seed=6, observe=True).kernel
        obs.install_flight(kernel)
        monitor = obs.enable_anomaly(kernel, window_ms=100.0,
                                     latency_warmup=3)
        for _ in range(4):
            obs.observe(kernel, "router_cold_start_wait_ms", 50.0)
        obs.observe(kernel, "router_cold_start_wait_ms", 500.0)
        (event,) = monitor.events
        assert event.detector == COLD_START_LATENCY
        # The emission reached the tape and the registry directly.
        (tape,) = [e for e in kernel.obs.flight.events()
                   if e.kind == "anomaly.detected"]
        assert tape.attrs["detector"] == COLD_START_LATENCY
        assert kernel.obs.metrics.value(
            "anomaly_events_total",
            labels={"detector": COLD_START_LATENCY}) == 1.0

    def test_observe_exemplar_becomes_trace_id(self):
        kernel = make_world(seed=6, observe=True).kernel
        monitor = obs.enable_anomaly(kernel, window_ms=100.0,
                                     latency_warmup=3)
        for _ in range(4):
            obs.observe(kernel, "router_cold_start_wait_ms", 50.0)
        with obs.span(kernel, "router.route") as span:
            obs.observe(kernel, "router_cold_start_wait_ms", 500.0)
        (event,) = monitor.events
        assert event.trace_id == span.trace_id

    def test_default_monitor_watches_the_slo_surface(self):
        monitor = default_monitor()
        assert "router_cold_start_wait_ms" in monitor._sample_watches
        names = {watch.name for watch in monitor._rate_watches}
        assert RESTORE_FAILURE_RATE in names
        restore = next(w for w in monitor._rate_watches
                       if w.name == RESTORE_FAILURE_RATE)
        # criu_restore_total counts only successes; without the
        # additive denominator a 100%-failure window would divide by 0.
        assert restore.additive_total

    def test_default_monitor_watches_placement_locality(self):
        from repro.obs.anomaly import LOCALITY_MISS_RATE

        monitor = default_monitor()
        watch = next(w for w in monitor._rate_watches
                     if w.name == LOCALITY_MISS_RATE)
        assert watch.bad_metric == "deployer_locality_miss_total"
        assert watch.total_metric == "deployer_cold_placement_total"
