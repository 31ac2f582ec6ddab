"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload cold-fleet --seeds 1-10

Runs ``perfbench/run.py`` once per seed, one after another (``--trace
0``, the declared ``run_seconds``), and prints, per metric, the median,
the quartile spread as a share of the median
(``statistics.quantiles(values, n=4)``) and that spread as a share of
the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _seeds(text: str):
    if "-" in text:
        low, high = (int(x) for x in text.split("-"))
        return list(range(low, high + 1))
    return [int(x) for x in text.split(",")]


def _run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    if proc.returncode != 0 or not last.startswith("{"):
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(last)
    if not result["correct"]:
        raise RuntimeError(f"seed {seed}: correctness check failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    seeds = _seeds(args.seeds)
    runs = [_run(args.workload, seed, spec["run_seconds"]) for seed in seeds]
    print(f"{args.workload}: {len(runs)} seeds {seeds}")
    worst = 0.0
    for metric in spec["end_to_end"]:
        values = [run[metric["name"]] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        share = spread / metric["bound"]
        if metric["name"] != "setup_s":
            worst = max(worst, share)
        print(f"  {metric['name']:28s} median {median:12.5g} {metric['unit']:9s} "
              f"spread {spread:7.4f}  of bound {share:5.2f}")
    print(f"  worst spread / bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
