"""Smoke tests of the benchmark itself, at a seeded reduced size.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import run, workloads  # noqa: E402
from perfbench.replay import run_pass  # noqa: E402
from perfbench.tracing import Tracer, traced  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED = 3


def smoke(workload):
    """The same workload at a few seconds of simulated traffic."""
    return dataclasses.replace(workload, duration_s=12.0, passes=2)


@pytest.fixture
def smoke_workloads(monkeypatch):
    reduced = {name: smoke(w) for name, w in workloads.WORKLOADS.items()}
    monkeypatch.setattr(workloads, "WORKLOADS", reduced)
    monkeypatch.setattr(run, "REAL_VANILLA_STARTS", 1)
    monkeypatch.setattr(run, "REAL_ZYGOTES_PER_VANILLA", 3)
    return reduced


def _run(capsys, workload: str, trace: int) -> dict:
    code = run.main(["--workload", workload, "--seed", str(SEED),
                     "--seconds", "0.1", "--trace", str(trace)])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert code == 0
    return json.loads(last)


def test_declared_names_and_units_are_well_formed():
    declared = SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]
    names = [m["name"] for m in declared]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_run_reports_every_declared_metric(smoke_workloads, capsys, workload, trace):
    result = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        reading = result["metrics"][metric["name"]]
        assert reading["unit"] == metric["unit"]
        assert isinstance(reading["value"], float)
    if not trace:
        assert all(reading["value"] > 0 for reading in result["metrics"].values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_sim_results_repeat_and_ignore_tracing(workload):
    spec = smoke(workloads.WORKLOADS[workload])
    first = run_pass(spec, SEED)
    again = run_pass(spec, SEED)
    with traced(Tracer()) as tracer:
        spanned = run_pass(spec, SEED, tracer)
    assert first.sim_signature() == again.sim_signature()
    assert first.sim_signature() == spanned.sim_signature()
    assert run_pass(spec, SEED + 1).sim_signature() != first.sim_signature()


def test_sim_metrics_do_not_depend_on_the_interpreter_hash_seed():
    snippet = (
        "import dataclasses, json, sys; sys.path[:0] = ['.', 'src'];"
        "from perfbench import run, workloads;"
        "from perfbench.replay import run_pass;"
        "w = dataclasses.replace(workloads.WORKLOADS['prewarm-fleet'], duration_s=12.0);"
        f"print(json.dumps(run.sim_metrics([run_pass(w, {SEED})])))"
    )
    outputs = []
    for hash_seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", snippet], cwd=ROOT, capture_output=True,
            text=True, env={"PYTHONHASHSEED": hash_seed, "PATH": ""}, check=True)
        outputs.append(proc.stdout.strip().splitlines()[-1])
    assert outputs[0] == outputs[1]


def test_traced_profile_covers_the_replay():
    spec = smoke(workloads.WORKLOADS["cold-fleet"])
    plain = [run_pass(spec, SEED)]
    with traced(Tracer()) as tracer:
        spanned = [run_pass(spec, SEED, tracer)]
    layers = run.layer_metrics(spanned, plain, tracer)
    assert 0.9 <= layers["bench.self_time_coverage"] <= 1.1
    assert layers["criu.restore.calls"] > 0
    assert layers["criu.shard.fetches"] > 0
    for line in tracer.folded():
        stack, value = line.rsplit(" ", 1)
        assert stack and int(value) > 0


def test_program_missing_exits_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-fleet",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
