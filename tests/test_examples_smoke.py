"""Smoke tests: every example script runs to completion.

Examples are documentation that executes; these tests run each one in a
subprocess with reduced repetitions so a broken example fails CI, not a
reader.
"""

import os
import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"

FAST_EXAMPLES = [
    ("quickstart.py", []),
    ("openfaas_demo.py", []),
    ("warmup_study.py", ["3"]),
]


def run_example(name, args, timeout=240):
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name), *args],
        capture_output=True, text=True, timeout=timeout,
    )


class TestExamples:
    @pytest.mark.parametrize("name,args", FAST_EXAMPLES,
                             ids=[n for n, _ in FAST_EXAMPLES])
    def test_example_runs(self, name, args):
        result = run_example(name, args)
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout.strip()

    def test_quickstart_reports_paper_improvement(self):
        result = run_example("quickstart.py", [])
        assert "47%" in result.stdout
        assert "<h1>Hello</h1>" in result.stdout

    @pytest.mark.slow
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="POSIX only")
    def test_real_process_demo_runs(self):
        result = run_example("real_process_demo.py", ["2"], timeout=300)
        assert result.returncode == 0, result.stderr[-2000:]
        assert "zygote" in result.stdout

    def test_all_examples_present(self):
        names = {p.name for p in EXAMPLES_DIR.glob("*.py")}
        assert {"quickstart.py", "warmup_study.py", "openfaas_demo.py",
                "workload_study.py", "bake_farm_demo.py",
                "real_process_demo.py"} <= names
