"""Postmortem bundles: sealing, persistence, and rendering."""

import json

import pytest

from repro import faults, make_world, obs
from repro.faults.errors import PlatformError
from repro.faults.model import FaultPlan
from repro.obs.postmortem import (
    PostmortemBundle,
    PostmortemCollector,
    load_bundles,
)


def _incident_world(seed=13):
    """A world with the whole incident stack installed and one traced
    cold start on the books."""
    kernel = make_world(seed=seed, observe=True).kernel
    obs.install_flight(kernel)
    obs.enable_timeseries(kernel, window_ms=100.0)
    obs.enable_burn_check(kernel, window_ms=100.0)
    faults.install(kernel, FaultPlan())
    with obs.span(kernel, "router.route", function="markdown") as span:
        obs.record(kernel, "request.admitted", function="markdown",
                   request_id=1)
        obs.observe(kernel, "router_cold_start_wait_ms", 50.0)
        obs.count(kernel, "criu_restore_total")
    kernel.clock.advance(250.0)
    return kernel, span.trace_id


class TestSealing:
    def test_on_error_bundle_captures_world_state(self):
        kernel, trace_id = _incident_world()
        collector = PostmortemCollector(kernel, seed=13, label="unit",
                                        recipe={"experiment": "unit"})
        bundle = collector.on_error(PlatformError("restore exhausted"),
                                    trace_id=trace_id)
        assert bundle.kind == "error"
        assert bundle.trace_id == trace_id
        assert bundle.sealed_at_ms == kernel.clock.now
        assert bundle.reason["error_type"] == "PlatformError"
        payload = bundle.payload
        assert payload["flight"]["events"]          # tape tail present
        spans = payload["trace"]["spans"]
        assert any(s["name"] == "router.route" for s in spans)
        assert "router_cold_start_wait_ms" in \
            payload["metrics_windows"]["series"]
        assert any(s["slo"] == "cold-start-p99" for s in payload["slo"])
        # The live schedule digest was stamped into the replay recipe.
        assert bundle.replay["fault_schedule_digest"] == \
            bundle.payload["faults"]["schedule_digest"] == \
            kernel.faults.schedule_digest()
        assert bundle.replay["seed"] == 13

    def test_on_breach_bundle_carries_the_breach(self):
        kernel, _ = _incident_world()
        collector = PostmortemCollector(kernel, seed=13, label="unit")
        kernel.obs.burn.subscribe(collector.on_breach)
        obs.observe(kernel, "router_cold_start_wait_ms", 50.0)
        obs.observe(kernel, "router_cold_start_wait_ms", 5_000.0)
        assert collector.bundles == []  # the window is still open
        kernel.clock.advance(100.0)
        obs.count(kernel, "criu_restore_total")  # closes it
        (bundle,) = collector.bundles
        assert bundle.kind == "slo-breach"
        (breach,) = bundle.breaches
        assert breach.slo == "cold-start-p99"
        assert breach.bad_fraction == 0.5
        assert breach.burn_rate == pytest.approx(50.0)
        assert breach.window_end_ms - breach.window_start_ms == 100.0
        assert "cold-start-p99" in bundle.reason["detail"]
        assert "SLO BREACHES (1)" in bundle.render()

    def test_bundle_of_a_world_without_the_burn_check_has_no_breaches(self):
        kernel = make_world(seed=13, observe=True).kernel
        obs.install_flight(kernel)
        bundle = PostmortemCollector(kernel, label="unit").on_error(
            PlatformError("boom"))
        assert "breaches" not in bundle.payload
        assert bundle.breaches == []
        assert "SLO BREACHES" not in bundle.render()

    def test_max_bundles_suppresses_but_counts(self):
        kernel, trace_id = _incident_world()
        collector = PostmortemCollector(kernel, label="unit", max_bundles=2)
        for _ in range(5):
            collector.on_error(PlatformError("boom"), trace_id=trace_id)
        assert len(collector.bundles) == 2
        assert collector.suppressed == 3


class TestPersistence:
    def test_write_load_round_trip(self, tmp_path):
        kernel, trace_id = _incident_world()
        collector = PostmortemCollector(kernel, seed=13, label="unit",
                                        out_dir=tmp_path)
        collector.on_error(PlatformError("boom"), trace_id=trace_id)
        (path,) = collector.paths
        assert path.name == "postmortem-unit-001.json"
        loaded = PostmortemBundle.load(path)
        assert loaded.payload == collector.bundles[0].payload
        assert json.loads(loaded.to_json()) == loaded.payload

    def test_load_refuses_another_schema(self):
        kernel, trace_id = _incident_world()
        bundle = PostmortemCollector(kernel, label="unit").on_error(
            PlatformError("boom"), trace_id=trace_id)
        payload = dict(bundle.payload, schema=1)  # an older format
        with pytest.raises(ValueError, match="unsupported postmortem schema"):
            PostmortemBundle.load(json.dumps(payload))

    def test_load_bundles_directory_order(self, tmp_path):
        kernel, trace_id = _incident_world()
        collector = PostmortemCollector(kernel, label="unit",
                                        out_dir=tmp_path)
        collector.on_error(PlatformError("one"), trace_id=trace_id)
        collector.on_error(PlatformError("two"), trace_id=trace_id)
        assert len(collector.paths) == 2
        loaded = load_bundles(tmp_path)
        assert [b.payload["bundle_seq"] for b in loaded] == [1, 2]
        empty = tmp_path / "empty-subdir"
        empty.mkdir()
        assert load_bundles(empty) == []


class TestRendering:
    def test_render_sections(self):
        kernel, trace_id = _incident_world()
        collector = PostmortemCollector(kernel, seed=13, label="unit",
                                        recipe={"experiment": "unit"})
        bundle = collector.on_error(PlatformError("boom"), trace_id=trace_id)
        text = bundle.render(flight_tail=5)
        assert "POSTMORTEM" in text
        assert "REPLAY RECIPE" in text
        assert "SLO BURN AT SEAL" in text
        assert "FAULTS" in text
        assert "FLIGHT TAPE" in text
        assert "INCIDENT SPAN TREE" in text
        assert "router.route" in text

    def test_cli_renders_bundle_directory(self, tmp_path, capsys):
        from repro.obs.cli import main as obs_cli_main

        kernel, trace_id = _incident_world()
        collector = PostmortemCollector(kernel, label="unit",
                                        out_dir=tmp_path)
        collector.on_error(PlatformError("boom"), trace_id=trace_id)
        assert obs_cli_main(["postmortem", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "POSTMORTEM" in out and "REPLAY RECIPE" in out

    def test_cli_replay_flag_prints_recipes(self, tmp_path, capsys):
        from repro.obs.cli import main as obs_cli_main

        kernel, trace_id = _incident_world()
        collector = PostmortemCollector(kernel, seed=13, label="unit",
                                        recipe={"experiment": "unit"},
                                        out_dir=tmp_path)
        collector.on_error(PlatformError("boom"), trace_id=trace_id)
        assert obs_cli_main(["postmortem", str(tmp_path), "--replay"]) == 0
        (line,) = capsys.readouterr().out.strip().splitlines()
        assert json.loads(line)["experiment"] == "unit"

    def test_cli_missing_directory_fails_cleanly(self, tmp_path):
        from repro.obs.cli import main as obs_cli_main

        empty = tmp_path / "none"
        empty.mkdir()
        assert obs_cli_main(["postmortem", str(empty)]) == 1
        assert obs_cli_main(
            ["postmortem", str(tmp_path / "missing.json")]) == 2
