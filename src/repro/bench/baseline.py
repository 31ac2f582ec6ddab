"""Continuous-performance gate: recorded baselines + noise-aware compare.

The paper's reproduced numbers (fig3 start-up medians, restore-sweep
latencies, chaos recovery percentiles) are this repo's contract; the
gate turns them into a ratchet. ``record`` runs a smoke-sized bench
and writes a ``BENCH_<name>.json`` baseline — p50/p99/mean plus a
bootstrap CI per metric, together with the seed and repetition count
that produced them. ``compare`` re-runs the bench *at the baseline's
recorded seed and size* and flags any metric that moved beyond a
noise-aware threshold, exiting nonzero so CI fails the build.

Everything here is deterministic: an identical-seed re-run reproduces
the baseline bit-for-bit, so the tolerance only absorbs *intentional*
model drift (cost-model recalibration) — silent regressions of 20% or
more always trip.

    PYTHONPATH=src python -m repro.bench.baseline record            # all benches
    PYTHONPATH=src python -m repro.bench.baseline compare fig3      # gate one

Exit codes: 0 clean, 2 regression detected, 3 usage/missing baseline.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.report import format_table
from repro.bench.stats import bootstrap_median_ci, quantile

SCHEMA_VERSION = 1
DEFAULT_DIR = "benchmarks/baselines"

# Relative drift allowed before a metric counts as regressed. The
# effective threshold per metric is max(tolerance, the baseline's own
# relative CI half-width) capped at TOLERANCE_CAP — so noisy metrics
# get headroom proportional to their measured noise, while nothing can
# drift 20% without tripping the gate.
DEFAULT_TOLERANCE = 0.10
TOLERANCE_CAP = 0.15
P99_TOLERANCE_FACTOR = 2.0  # tails are noisier than medians

LOWER = "lower"    # smaller is better (latencies)
HIGHER = "higher"  # bigger is better (success rates, dedup ratios)


@dataclass
class MetricBaseline:
    """Recorded summary of one metric's distribution (or scalar)."""

    p50: float
    p99: float
    mean: float
    n: int
    direction: str = LOWER
    ci_low: Optional[float] = None
    ci_high: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "p50": self.p50, "p99": self.p99, "mean": self.mean,
            "n": self.n, "direction": self.direction,
            "ci_low": self.ci_low, "ci_high": self.ci_high,
        }

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "MetricBaseline":
        return cls(
            p50=float(record["p50"]), p99=float(record["p99"]),
            mean=float(record["mean"]), n=int(record["n"]),
            direction=str(record.get("direction", LOWER)),
            ci_low=(None if record.get("ci_low") is None
                    else float(record["ci_low"])),
            ci_high=(None if record.get("ci_high") is None
                     else float(record["ci_high"])),
        )


def metric_from_values(values: List[float],
                       direction: str = LOWER) -> MetricBaseline:
    """Distribution metric: quantiles plus a bootstrap CI on the median
    (no CI for a single value)."""
    ci = bootstrap_median_ci(values, seed=0) if len(values) > 1 else None
    return MetricBaseline(
        p50=quantile(values, 0.5),
        p99=quantile(values, 0.99),
        mean=sum(values) / len(values),
        n=len(values),
        direction=direction,
        ci_low=ci.low if ci else None,
        ci_high=ci.high if ci else None,
    )


def scalar_metric(value: float, direction: str = LOWER) -> MetricBaseline:
    """Point metric (already-aggregated bench output): p50 == value."""
    return MetricBaseline(p50=value, p99=value, mean=value, n=1,
                          direction=direction)


# ---------------------------------------------------------------------------
# Bench collectors — smoke-sized versions of the repo's contract benches
# ---------------------------------------------------------------------------

Metrics = Dict[str, MetricBaseline]


def collect_fig3(repetitions: int, seed: int) -> Metrics:
    """Start-up distributions per function/technique (Figure 3)."""
    from repro.bench.figures import figure3
    metrics: Metrics = {}
    result = figure3(repetitions=repetitions, seed=seed)
    for row in result.rows:
        metrics[f"{row.function}/vanilla/startup_ms"] = \
            metric_from_values(row.vanilla.values)
        metrics[f"{row.function}/prebake/startup_ms"] = \
            metric_from_values(row.prebake.values)
        metrics[f"{row.function}/improvement_pct"] = \
            scalar_metric(row.improvement_pct, direction=HIGHER)
    return metrics


def collect_restore_sweep(repetitions: int, seed: int) -> Metrics:
    """Restore-mode latencies and registry dedup (Figure 4 extension)."""
    from repro.bench.restore_sweep import restore_sweep
    metrics: Metrics = {}
    result = restore_sweep(repetitions=repetitions, seed=seed)
    for row in result.rows:
        prefix = row.function
        metrics[f"{prefix}/eager_ms"] = scalar_metric(row.eager_ms)
        metrics[f"{prefix}/lazy_ms"] = scalar_metric(row.lazy_ms)
        metrics[f"{prefix}/lazy_first_response_ms"] = \
            scalar_metric(row.lazy_first_response_ms)
        metrics[f"{prefix}/ws_ms"] = scalar_metric(row.ws_ms)
        metrics[f"{prefix}/ws_speedup_pct"] = \
            scalar_metric(row.ws_speedup_pct, direction=HIGHER)
    metrics["registry/dedup_ratio"] = \
        scalar_metric(result.dedup_ratio, direction=HIGHER)
    return metrics


def collect_restore_pipeline(repetitions: int, seed: int) -> Metrics:
    """Pipelined-restore sweep: overlap + hot-chunk cache win (X8)."""
    from repro.bench.restore_sweep import restore_pipeline_sweep
    metrics: Metrics = {}
    result = restore_pipeline_sweep(
        repetitions=repetitions, seed=seed,
        workers_grid=(1, 4), cache_policies=("none", "freq-over-size"))
    for row in result.rows:
        prefix = f"{row.function}/w{row.workers}/{row.cache_policy}"
        metrics[f"{prefix}/p50_ms"] = scalar_metric(row.p50_ms)
        if row.workers > 1 and row.cache_policy != "none":
            metrics[f"{row.function}/pipeline_improvement_pct"] = \
                scalar_metric(row.improvement_pct, direction=HIGHER)
            metrics[f"{row.function}/cache_hit_ratio"] = \
                scalar_metric(row.hit_ratio, direction=HIGHER)
    return metrics


def collect_chaos(repetitions: int, seed: int) -> Metrics:
    """Cold-start percentiles and success rates under faults."""
    from repro.bench import fault_sweep
    metrics: Metrics = {}
    result = fault_sweep.run("chaos", repetitions=repetitions, seed=seed)
    for r in result.cells:
        prefix = f"rate{r.cell.rate:g}/{r.cell.technique}"
        if r.cold_waits_ms:
            metrics[f"{prefix}/cold_wait_ms"] = \
                metric_from_values(r.cold_waits_ms)
        metrics[f"{prefix}/success_rate"] = \
            scalar_metric(r.success_rate, direction=HIGHER)
    return metrics


def collect_kernel_throughput(repetitions: int, seed: int) -> Metrics:
    """Kernel events/sec: vectorized backend vs per-page reference (X11).

    Both passes run back to back on the same machine, so the *ratio*
    travels across machines while raw events/sec does not. Two things
    are gated:

    * ``kernel/events_total`` — the deterministic event count of one
      workload pass; identical on every machine and every backend, so
      any drift means the simulated workload itself changed.
    * ``kernel/speedup_vs_floor`` — best-of-N speedup clamped at the
      hard floor (``min(speedup / SPEEDUP_HARD_FLOOR, 1.0)``). Records
      1.0 while the vectorized kernel clears the floor with margin;
      only an actual drop toward/below ~4x moves the metric, so normal
      wall-clock noise (the raw ratio swings +/-20% run to run) cannot
      trip the gate. The unclamped ratio lands in the profile artifact
      the CI job uploads, not in the baseline.
    """
    from repro.bench.kernelbench import SPEEDUP_HARD_FLOOR, kernel_bench
    best_speedup = 0.0
    events_total = 0
    for _ in range(repetitions):
        result = kernel_bench(seed=seed)
        best_speedup = max(best_speedup, result.speedup_vs_reference)
        events_total = result.events_total
    metrics: Metrics = {}
    metrics["kernel/events_total"] = \
        scalar_metric(float(events_total), direction=HIGHER)
    metrics["kernel/speedup_vs_floor"] = scalar_metric(
        min(best_speedup / SPEEDUP_HARD_FLOOR, 1.0), direction=HIGHER)
    return metrics


def collect_fleet(repetitions: int, seed: int) -> Metrics:
    """X12 fleet study: 1M-request trace over the sharded fleet.

    Everything recorded here is a deterministic function of the seed
    (numpy PCG64 streams, no wall clocks), so a same-seed re-run
    reproduces every value exactly; tolerance only absorbs legitimate
    model recalibration. ``fleet/requests_total`` and
    ``fleet/stitched_nodes`` double as structural guards: the request
    count pins the synthesized trace and the stitched-node count pins
    the cross-node span tree of the embedded exemplar.
    """
    from repro.bench.fleet_study import fleet_study

    result = fleet_study(repetitions=repetitions, seed=seed)
    rep = result.headline
    metrics: Metrics = {}
    metrics["fleet/requests_total"] = \
        scalar_metric(float(rep.requests), direction=HIGHER)
    metrics["fleet/cold_p50_ms"] = scalar_metric(rep.cold_p50_ms)
    metrics["fleet/cold_p99_ms"] = scalar_metric(rep.cold_p99_ms)
    metrics["fleet/cold_start_rate"] = scalar_metric(
        rep.cold_starts / rep.requests if rep.requests else 0.0)
    metrics["fleet/cache_hit_rate"] = \
        scalar_metric(rep.cache_hit_rate, direction=HIGHER)
    metrics["fleet/locality_hit_rate"] = \
        scalar_metric(rep.locality_hit_rate, direction=HIGHER)
    metrics["fleet/cross_node_kib_per_restore"] = \
        scalar_metric(rep.cross_node_kib_per_restore)
    metrics["fleet/stitched_nodes"] = scalar_metric(
        float(len(result.stitched_nodes())), direction=HIGHER)
    return metrics


def collect_prewarm(repetitions: int, seed: int) -> Metrics:
    """X13 prewarm study: forecast-driven prebaking vs fixed keep-alive.

    Each rep is one paired seed, so every outcome metric is the
    distribution over reps with its bootstrap CI. Two 0/1 verdicts are
    gated with direction HIGHER so any drop from 1.0 trips immediately:

    * ``prewarm/histogram_beats_fixed`` — over the paired seeds, the
      CIs of the histogram − fixed differences lie below zero for cold
      starts and cold p99 and end at or below zero for wasted
      warm-seconds (:func:`~repro.bench.prewarm_study.paired_verdict`);
    * ``prewarm/oracle_bound`` — the clairvoyant oracle's cold-start
      rate lower-bounds the histogram policy's on every repetition.
    """
    from repro.bench.prewarm_study import paired_verdict, prewarm_study

    result = prewarm_study(repetitions=repetitions, seed=seed)

    def per_rep(rung: str, field: str,
                direction: str = LOWER) -> MetricBaseline:
        return metric_from_values(
            [float(getattr(r.outcomes[rung], field)) for r in result.reps],
            direction)

    metrics: Metrics = {}
    metrics["prewarm/histogram_beats_fixed"] = scalar_metric(
        1.0 if paired_verdict(result.reps)["beats"] else 0.0,
        direction=HIGHER)
    metrics["prewarm/oracle_bound"] = scalar_metric(
        1.0 if all(r.oracle_bounds_gap for r in result.reps) else 0.0,
        direction=HIGHER)
    metrics["prewarm/requests_total"] = \
        per_rep("histogram", "requests", direction=HIGHER)
    metrics["prewarm/histogram_cold_rate"] = \
        per_rep("histogram", "cold_start_rate")
    metrics["prewarm/histogram_cold_p99_ms"] = \
        per_rep("histogram", "cold_p99_ms")
    metrics["prewarm/histogram_wasted_warm_s"] = \
        per_rep("histogram", "wasted_warm_s")
    metrics["prewarm/fixed_cold_rate"] = per_rep("fixed", "cold_start_rate")
    metrics["prewarm/oracle_cold_rate"] = per_rep("oracle", "cold_start_rate")
    metrics["prewarm/histogram_timer_cold_starts"] = \
        per_rep("histogram", "timer_cold_starts")
    return metrics


@dataclass(frozen=True)
class Bench:
    """One gated bench: a collector plus its smoke-sized defaults."""

    name: str
    collect: Callable[[int, int], Metrics]
    default_repetitions: int
    default_seed: int = 42


BENCHES: Dict[str, Bench] = {
    "fig3": Bench("fig3", collect_fig3, default_repetitions=20),
    "restore-sweep": Bench("restore-sweep", collect_restore_sweep,
                           default_repetitions=20),
    "restore-pipeline": Bench("restore-pipeline", collect_restore_pipeline,
                              default_repetitions=10),
    "chaos": Bench("chaos", collect_chaos, default_repetitions=10),
    "kernel-throughput": Bench("kernel-throughput", collect_kernel_throughput,
                               default_repetitions=3),
    "fleet": Bench("fleet", collect_fleet, default_repetitions=1),
    "prewarm": Bench("prewarm", collect_prewarm, default_repetitions=10),
}


# ---------------------------------------------------------------------------
# Record / load / compare
# ---------------------------------------------------------------------------


def baseline_path(directory: str, name: str) -> pathlib.Path:
    return pathlib.Path(directory) / f"BENCH_{name.replace('-', '_')}.json"


def record(name: str, directory: str = DEFAULT_DIR,
           repetitions: Optional[int] = None,
           seed: Optional[int] = None) -> pathlib.Path:
    """Run one bench and write (or overwrite) its baseline file."""
    bench = BENCHES[name]
    repetitions = repetitions or bench.default_repetitions
    seed = seed if seed is not None else bench.default_seed
    metrics = bench.collect(repetitions, seed)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "bench": name,
        "seed": seed,
        "repetitions": repetitions,
        "metrics": {key: metrics[key].to_dict() for key in sorted(metrics)},
    }
    path = baseline_path(directory, name)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def load_baseline(path: pathlib.Path) -> Tuple[Dict[str, object], Metrics]:
    payload = json.loads(path.read_text(encoding="utf-8"))
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: baseline schema v{version}, expected v{SCHEMA_VERSION} "
            "— regenerate with `python -m repro.bench.baseline record`"
        )
    metrics = {key: MetricBaseline.from_dict(record)
               for key, record in payload["metrics"].items()}
    return payload, metrics


@dataclass
class Regression:
    """One metric that moved beyond its allowed envelope."""

    metric: str
    statistic: str          # "p50" or "p99"
    baseline: float
    current: float
    change_pct: float       # signed, positive = worse
    allowed_pct: float


def _allowed_fraction(base: MetricBaseline, tolerance: float) -> float:
    rel_ci = 0.0
    if base.ci_low is not None and base.ci_high is not None and base.p50 > 0:
        rel_ci = (base.ci_high - base.ci_low) / 2.0 / base.p50
    return min(TOLERANCE_CAP, max(tolerance, rel_ci))


def _check(metric: str, statistic: str, direction: str, base_value: float,
           cur_value: float, allowed: float) -> Optional[Regression]:
    if base_value <= 0:
        return None  # no meaningful relative comparison
    change = (cur_value - base_value) / base_value
    worse = change if direction == LOWER else -change
    if worse > allowed:
        return Regression(
            metric=metric, statistic=statistic,
            baseline=base_value, current=cur_value,
            change_pct=100.0 * worse, allowed_pct=100.0 * allowed,
        )
    return None


def compare_metrics(baseline: Metrics, current: Metrics,
                    tolerance: float = DEFAULT_TOLERANCE,
                    ) -> Tuple[List[Regression], List[str]]:
    """Regressions plus baseline metrics missing from the current run.

    Metrics new in ``current`` are ignored (a growing bench is not a
    regression); metrics that *disappeared* are reported as missing —
    a gate must never pass because the measurement vanished.
    """
    regressions: List[Regression] = []
    missing: List[str] = []
    for key in sorted(baseline):
        base = baseline[key]
        cur = current.get(key)
        if cur is None:
            missing.append(key)
            continue
        allowed = _allowed_fraction(base, tolerance)
        hit = _check(key, "p50", base.direction, base.p50, cur.p50, allowed)
        if hit:
            regressions.append(hit)
        if base.n > 1:
            hit = _check(key, "p99", base.direction, base.p99, cur.p99,
                         min(TOLERANCE_CAP * P99_TOLERANCE_FACTOR,
                             allowed * P99_TOLERANCE_FACTOR))
            if hit:
                regressions.append(hit)
    return regressions, missing


def compare(name: str, directory: str = DEFAULT_DIR,
            tolerance: float = DEFAULT_TOLERANCE,
            ) -> Tuple[List[Regression], List[str], Metrics]:
    """Re-run one bench at its baseline's seed/size and diff."""
    path = baseline_path(directory, name)
    if not path.exists():
        raise FileNotFoundError(
            f"no baseline at {path} — record it first with "
            f"`python -m repro.bench.baseline record {name}`"
        )
    payload, baseline = load_baseline(path)
    bench = BENCHES[name]
    current = bench.collect(int(payload["repetitions"]), int(payload["seed"]))
    regressions, missing = compare_metrics(baseline, current, tolerance)
    return regressions, missing, current


def render_regressions(name: str, regressions: List[Regression],
                       missing: List[str]) -> str:
    lines = []
    if regressions:
        lines.append(f"{name}: {len(regressions)} regression(s)")
        lines.append(format_table(
            ["metric", "stat", "baseline", "current", "worse by", "allowed"],
            [[r.metric, r.statistic, f"{r.baseline:.3f}", f"{r.current:.3f}",
              f"{r.change_pct:+.1f}%", f"{r.allowed_pct:.1f}%"]
             for r in regressions],
        ))
    for key in missing:
        lines.append(f"{name}: metric {key!r} missing from current run")
    if not lines:
        lines.append(f"{name}: OK")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.baseline",
        description="Record or gate on performance baselines.",
    )
    parser.add_argument("mode", choices=("record", "compare"))
    parser.add_argument("benches", nargs="*", metavar="bench",
                        help=f"subset of {sorted(BENCHES)} (default: all)")
    parser.add_argument("--dir", default=DEFAULT_DIR,
                        help=f"baseline directory (default {DEFAULT_DIR})")
    parser.add_argument("--repetitions", "-r", type=int, default=None,
                        help="override repetitions when recording")
    parser.add_argument("--seed", "-s", type=int, default=None,
                        help="override seed when recording")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="relative drift allowed before failing "
                             f"(default {DEFAULT_TOLERANCE})")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # Same up-front sanity check as prebake-bench: a typo'd override
    # should be a clear exit-2 message, not a downstream traceback.
    for flag, value in (("--repetitions", args.repetitions),
                        ("--seed", args.seed)):
        if value is not None and value < 1:
            print(f"{flag} must be a positive integer, got {value}",
                  file=sys.stderr)
            return 2
    names = args.benches or sorted(BENCHES)
    unknown = [n for n in names if n not in BENCHES]
    if unknown:
        print(f"unknown bench(es): {', '.join(unknown)}; "
              f"known: {', '.join(sorted(BENCHES))}", file=sys.stderr)
        return 3
    if args.mode == "record":
        for name in names:
            path = record(name, directory=args.dir,
                          repetitions=args.repetitions, seed=args.seed)
            print(f"recorded {name} -> {path}")
        return 0
    failed = False
    for name in names:
        try:
            regressions, missing, _ = compare(
                name, directory=args.dir, tolerance=args.tolerance)
        except (FileNotFoundError, ValueError) as exc:
            print(str(exc), file=sys.stderr)
            return 3
        print(render_regressions(name, regressions, missing))
        if regressions or missing:
            failed = True
    return 2 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main(sys.argv[1:]))
