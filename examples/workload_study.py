#!/usr/bin/env python3
"""Platform-level workload study: how strategies behave under real
arrival patterns.

Compares vanilla / prebake / warm-pool on three canonical traces
(steady Poisson, bursty on/off, diurnal) and two idle-timeout settings,
reporting cold-start frequency, tail wait latency, and standing memory
cost — the full trade-off space the paper's introduction sketches.

Run: ``python examples/workload_study.py``
"""

from repro.bench.arrivals import bursty_arrivals, diurnal_arrivals, poisson_arrivals
from repro.bench.platform_study import compare_strategies, render_study

TRACES = {
    "steady (poisson 2 req/s, 5 min)": poisson_arrivals(
        rate_per_s=2.0, duration_ms=300_000, seed=1),
    "bursty (trains every ~60s, 10 min)": bursty_arrivals(
        burst_rate_per_s=20, duration_ms=600_000,
        mean_on_ms=2_000, mean_off_ms=60_000, seed=2),
    "diurnal (100s 'day', 5 min)": diurnal_arrivals(
        peak_rate_per_s=4.0, duration_ms=300_000,
        period_ms=100_000, floor_fraction=0.02, seed=3),
}


def main() -> None:
    for timeout_ms in (10_000.0, 60_000.0):
        for label, trace in TRACES.items():
            results = compare_strategies(
                "markdown", trace, idle_timeout_ms=timeout_ms)
            title = (f"{label} — idle timeout {timeout_ms / 1000:.0f}s, "
                     f"{len(trace)} requests")
            print(render_study(results, title))
            print()


if __name__ == "__main__":
    main()
