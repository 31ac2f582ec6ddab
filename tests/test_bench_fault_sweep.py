"""The fault sweep: X9 incident acceptance, postmortems and replay.

* a seeded incident run with injected ``restore.fail`` seals >= 1
  postmortem bundle, and the SLO burn check flags restore success in
  the injected-fault window and nothing else;
* a clean run (fault rate 0) flags nothing and seals nothing;
* a bundle's recipe replays exactly the world it came from — for every
  preset — reproducing its fault-schedule digest, and in the process
  that sealed it, the bundle itself byte for byte;
* collecting postmortems leaves every report byte-identical, checked on
  a cell that does seal bundles.
"""

import json

import pytest

from repro.bench import fault_sweep
from repro.bench.fault_sweep import knob_plan

# One seeded run shared by the acceptance assertions (the experiment
# drives ~18 requests through the full platform; re-running it per
# test would triple the wall time for no extra coverage).
_RESULT = {}


def _run(tmp_path_factory):
    if "run" not in _RESULT:
        out = tmp_path_factory.mktemp("bundles")
        _RESULT["run"] = fault_sweep.run("incident", seed=42,
                                         postmortem_dir=out)
    return _RESULT["run"]


def _fault_window(run):
    """The incident's armed phase (warmup, armed, cooldown)."""
    return run.phase_bounds_ms[1]


def _breaches_within(run, start_ms, end_ms):
    """Flags whose window overlaps ``[start_ms, end_ms)``."""
    return [b for b in run.breaches
            if b.window_end_ms > start_ms and b.window_start_ms < end_ms]


def _breach_signature(run):
    """Order-stable fingerprint of a run's flags."""
    return [b.as_dict() for b in run.breaches]


class TestInjectedFaultRun:
    def test_seals_bundles_with_replayable_recipes(self, tmp_path_factory):
        run = _run(tmp_path_factory).cells[0]
        assert run.bundles
        assert len(run.bundle_paths) == len(run.bundles)
        for bundle in run.bundles:
            assert bundle.replay["fault_site"] == "restore.fail"
            assert bundle.replay["seed"] == 42

    def test_burn_check_flags_the_fault_window(self, tmp_path_factory):
        run = _run(tmp_path_factory).cells[0]
        flagged = _breaches_within(run, *_fault_window(run))
        # Warmup stayed quiet: every flag overlaps the fault interval.
        assert flagged == run.breaches
        assert [(b.slo, b.window_start_ms, b.window_end_ms)
                for b in flagged] == [
            ("restore-success-rate", 2500.0, 3000.0),
            ("restore-success-rate", 3000.0, 3500.0)]
        # Fallback cold starts take ~135 ms, inside the 800 ms bound.
        assert max(run.cold_waits_ms) < 800.0

    def test_each_breach_bundle_shows_a_failed_restore(self,
                                                       tmp_path_factory):
        run = _run(tmp_path_factory).cells[0]
        bundles = [b for b in run.bundles if b.reason["kind"] == "slo-breach"]
        assert bundles
        for bundle, breach in zip(bundles, run.breaches):
            assert bundle.trace_id == breach.trace_id is not None
            spans = bundle.payload["trace"]["spans"]
            assert {s["trace"] for s in spans} == {bundle.trace_id}
            assert any(s["name"] == "criu.restore" and s["status"] == "error"
                       for s in spans)

    def test_fallback_absorbs_the_faults(self, tmp_path_factory):
        run = _run(tmp_path_factory).cells[0]
        assert run.faults_fired > 0
        assert run.failed == 0  # vanilla fallback kept serving

    def test_flight_tape_saw_the_injections(self, tmp_path_factory):
        run = _run(tmp_path_factory).cells[0]
        kinds = [e["kind"] for e in run.flight_events]
        assert "fault.injected" in kinds
        assert "restore.failed" in kinds
        assert "slo.breach" in kinds

    def test_replay_reproduces_digest_and_breaches(self, tmp_path_factory):
        run = _run(tmp_path_factory).cells[0]
        replayed = fault_sweep.replay_recipe(run.bundles[0].replay)
        assert replayed.schedule_digests == run.schedule_digests
        assert _breach_signature(replayed) == _breach_signature(run)
        assert len(replayed.bundles) == len(run.bundles)


class TestCleanRun:
    def test_no_flags_and_no_bundles_without_faults(self):
        run = fault_sweep.run("incident", seed=42, fault_rate=0.0,
                              fault_requests=2,
                              cooldown_requests=0).cells[0]
        assert run.breaches == []
        assert run.bundles == []
        assert run.failed == 0
        assert run.faults_fired == 0

    def test_clean_report_says_no_slo_breached(self):
        text = fault_sweep.run("incident", seed=42, fault_rate=0.0,
                               fault_requests=2,
                               cooldown_requests=0).render()
        assert "no SLO breached" in text
        assert "postmortem bundles sealed: 0" in text


class TestRenderAndCli:
    def test_render_mentions_the_flags(self, tmp_path_factory):
        result = _run(tmp_path_factory)
        text = result.render()
        assert "restore-success-rate" in text
        assert "fault schedule digest" in text
        assert (f"postmortem bundles sealed: {len(result.cells[0].bundles)}"
                in text)

    def test_bench_cli_runs_incident(self, tmp_path, capsys):
        from repro.bench.cli import main as bench_main

        code = bench_main(["incident", "--postmortem-dir",
                           str(tmp_path / "pm"),
                           "--flight-out", str(tmp_path / "tape.jsonl")])
        assert code == 0
        out = capsys.readouterr().out
        assert "Incident run" in out
        assert (tmp_path / "tape.jsonl").exists()
        assert list((tmp_path / "pm").glob("postmortem-*.json"))

    def test_bench_cli_refuses_a_tape_of_many_worlds(self, tmp_path):
        from repro.bench.cli import main as bench_main

        for experiment in ("chaos", "shard-chaos"):
            tape = tmp_path / f"{experiment}.jsonl"
            assert bench_main([experiment, "-r", "5", "--postmortem-dir",
                               str(tmp_path / "pm"),
                               "--flight-out", str(tape)]) == 2
            assert not tape.exists()

    def test_run_rejects_parameters_of_another_preset(self):
        with pytest.raises(TypeError, match="node_down_ms"):
            fault_sweep.run("chaos", node_down_ms=1.0)

    def test_incident_takes_no_z_threshold(self):
        # The SLO objective is the only threshold.
        with pytest.raises(TypeError, match="z_threshold"):
            fault_sweep.run("incident", z_threshold=6.0)

    def test_incident_takes_no_repetitions(self):
        # One long-lived world: repeating it would re-run the same world.
        with pytest.raises(TypeError, match="repetitions"):
            fault_sweep.run("incident", repetitions=2)


def _crash_cell():
    """Every request dies unrecovered: replica.crash fires on each try."""
    return fault_sweep.Cell(
        "markdown", "vanilla", 1.0, world="crash-{rep}",
        phases=(fault_sweep.Phase(4, knob_plan(1.0, {"replica.crash": 1.0})),))


class TestChaosPostmortemPath:
    def test_table_unchanged_by_collection(self, tmp_path):
        plain = fault_sweep.run("chaos", repetitions=2, seed=42)
        collected = fault_sweep.run("chaos", repetitions=2, seed=42,
                                    postmortem_dir=tmp_path)
        assert collected.render() == plain.render()

    def test_sealing_cell_report_unchanged_by_collection(self, tmp_path):
        params = dict(fault_sweep.PRESETS["chaos"].defaults, repetitions=1)
        plain = fault_sweep.sweep("chaos", params, [_crash_cell()], [0])
        collected = fault_sweep.sweep("chaos", params, [_crash_cell()], [0],
                                      postmortem_dir=tmp_path)
        run = collected.cells[0]
        assert run.requests == 4 and run.failed == 4
        assert len(run.bundles) >= 1
        assert list(tmp_path.glob("postmortem-crash-0-*.json"))
        assert collected.render() == plain.render()


def _original_digest(result, world, rep):
    for run in result.cells:
        if run.cell.world.format(rep=rep) == world:
            return run.schedule_digests[rep]
    raise AssertionError(f"no world {world}")


class TestReplayRecipe:
    def test_chaos_bundle_replays_its_own_world(self, tmp_path):
        # Knob 10 saturates every site: replica.crash at 1.0 fails each
        # request unrecovered, so every world seals bundles.
        result = fault_sweep.run("chaos", fault_rates=(10.0,),
                                 repetitions=2, postmortem_dir=tmp_path)
        bundle = result.cells[1].bundles[-1]
        recipe = json.loads(json.dumps(bundle.replay))  # as on disk
        assert recipe["experiment"] == "chaos"
        assert (recipe["world"], recipe["rep"]) == ("chaos-prebake-10.0-1", 1)
        replayed = fault_sweep.replay_recipe(recipe)
        assert replayed.cell.world == "chaos-prebake-10.0-{rep}"
        assert replayed.schedule_digests == \
            [_original_digest(result, recipe["world"], 1)]

    def test_shard_chaos_recipe_replays_its_own_world(self):
        params = dict(replication_factors=(1, 2), fault_rates=(0.5,),
                      repetitions=2, requests_per_rep=3)
        result = fault_sweep.run("shard-chaos", **params)
        recipe = {"experiment": "shard-chaos", **params, "seed": 42,
                  "world": "shard-chaos-rf2-0.5-1", "rep": 1}
        replayed = fault_sweep.replay_recipe(recipe)
        assert replayed.cell.replication_factor == 2
        assert replayed.schedule_digests == \
            [_original_digest(result, recipe["world"], 1)]

    def test_incident_bundle_replays_its_own_world(self, tmp_path_factory):
        run = _run(tmp_path_factory).cells[0]
        recipe = json.loads(json.dumps(run.bundles[-1].replay))
        assert recipe["experiment"] == "incident"
        replayed = fault_sweep.replay_recipe(recipe)
        assert replayed.schedule_digests == run.schedule_digests
        assert replayed.phase_bounds_ms == run.phase_bounds_ms
        assert _breach_signature(replayed) == _breach_signature(run)

    def test_replay_in_the_sealing_process_is_byte_identical(
            self, tmp_path_factory):
        # Image, request and replica ids are numbered per world, so the
        # replayed world seals the same bundles byte for byte, ids and
        # all, even though earlier worlds ran in this process.
        run = _run(tmp_path_factory).cells[0]
        replayed = fault_sweep.replay_recipe(run.bundles[-1].replay)
        assert ([bundle.to_json() for bundle in replayed.bundles]
                == [bundle.to_json() for bundle in run.bundles])

    def test_unknown_experiment_raises(self):
        with pytest.raises(ValueError, match="unknown fault-sweep"):
            fault_sweep.replay_recipe({"experiment": "bogus", "rep": 0,
                                       "world": "bogus-0"})

    def test_recipe_for_a_world_no_cell_runs_raises(self):
        with pytest.raises(ValueError, match="no chaos cell"):
            fault_sweep.replay_recipe({"experiment": "chaos", "rep": 0,
                                       "world": "crash-0"})
