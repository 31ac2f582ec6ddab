"""Assemble a reproduction report from recorded benchmark results.

Every benchmark writes its rendered table to ``benchmarks/results/``;
this module stitches those files into a single markdown report (the
machine-generated companion to the curated EXPERIMENTS.md), so a fresh
bench run always leaves an up-to-date record:

    python -m repro.bench.experiments_writer benchmarks/results report.md
"""

from __future__ import annotations

import pathlib
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.obs.log import get_logger

log = get_logger("bench.report")

# Section ordering + titles for known experiment ids; unknown result
# files are appended alphabetically under their file name.
KNOWN_SECTIONS = [
    ("fig3_startup", "Figure 3 — start-up time, real functions"),
    ("fig4_components", "Figure 4 — start-up phase breakdown"),
    ("fig5_function_size", "Figure 5 — function size impact"),
    ("fig6_speedup", "Figure 6 — speed-up ratios"),
    ("table1_intervals", "Table 1 — start-up intervals"),
    ("fig7_service_time", "Figure 7 — service time after start-up"),
    ("sec5_openfaas", "Section 5 — OpenFaaS integration"),
    ("ablation_restore", "Ablation — restore strategy"),
    ("ablation_snapshot_point", "Ablation — snapshot point"),
    ("ablation_bake_timing", "Ablation — bake timing"),
    ("ext_runtimes", "Extension — prebaking across runtimes"),
    ("ext_pool_baseline", "Extension — warm-pool baseline"),
    ("chaos_recovery", "X5 — chaos preset of the fault sweep"),
]


@dataclass
class ReportSection:
    experiment_id: str
    title: str
    body: str


def collect_sections(results_dir: pathlib.Path) -> List[ReportSection]:
    """Read every ``*.txt`` result and order known sections first."""
    if not results_dir.is_dir():
        raise FileNotFoundError(f"no results directory at {results_dir}")
    available: Dict[str, str] = {}
    for path in sorted(results_dir.glob("*.txt")):
        available[path.stem] = path.read_text(encoding="utf-8").strip()
    sections: List[ReportSection] = []
    for experiment_id, title in KNOWN_SECTIONS:
        body = available.pop(experiment_id, None)
        if body is not None:
            sections.append(ReportSection(experiment_id, title, body))
    for experiment_id in sorted(available):
        sections.append(ReportSection(
            experiment_id, experiment_id.replace("_", " "),
            available[experiment_id],
        ))
    return sections


def write_report(results_dir: pathlib.Path,
                 output: Optional[pathlib.Path] = None) -> str:
    """Build the markdown report; write it if ``output`` given."""
    sections = collect_sections(results_dir)
    if not sections:
        raise FileNotFoundError(
            f"{results_dir} holds no *.txt results; run "
            "`pytest benchmarks/ --benchmark-only` first"
        )
    lines = [
        "# Reproduction report (generated)",
        "",
        "Assembled from the rendered tables each benchmark wrote to",
        f"`{results_dir}`. See EXPERIMENTS.md for the curated",
        "paper-vs-measured discussion.",
        "",
    ]
    for section in sections:
        lines.append(f"## {section.title}")
        lines.append("")
        lines.append("```text")
        lines.append(section.body)
        lines.append("```")
        lines.append("")
    report = "\n".join(lines)
    if output is not None:
        output.write_text(report, encoding="utf-8")
    return report


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not 1 <= len(argv) <= 2:
        log.error("cli.usage",
                  message="usage: python -m repro.bench.experiments_writer "
                          "<results-dir> [output.md]")
        return 2
    results_dir = pathlib.Path(argv[0])
    output = pathlib.Path(argv[1]) if len(argv) == 2 else None
    try:
        report = write_report(results_dir, output)
    except FileNotFoundError as exc:
        log.error("report.failed", reason=str(exc))
        return 1
    if output is None:
        # stdout carries the result itself, so it stays a bare print.
        print(report)
    else:
        log.info("report.written", file=str(output),
                 sections=report.count("\n## "))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main(sys.argv[1:]))
