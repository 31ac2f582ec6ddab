"""``python -m repro.obs.cli`` — inspect recorded telemetry offline.

Default output is a per-span-name stage table (count, total, mean,
p50/p95, max — exact percentiles, the trace has every sample);
``--tree`` prints the nested spans of one trace instead. Three
subcommands audit other recorded artifacts:

    python -m repro.obs.cli trace.jsonl
    python -m repro.obs.cli trace.jsonl --tree --trace t-0001
    python -m repro.obs.cli alerts metrics.jsonl     # SLO burn rates
    python -m repro.obs.cli profile profile.json     # phase breakdown
    python -m repro.obs.cli postmortem bundles/      # incident bundles

``alerts`` reconstructs a metrics registry from a JSONL dump and
evaluates the stack's SLO contract against it — exit 1 when any SLO
is breached, so recorded runs can gate in CI. ``profile`` re-renders
the critical-path table and folded stacks from a ``prebake-bench
profile --profile-out`` dump.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Dict, List, Optional

from repro.obs.export import SpanRecord, read_trace_jsonl
from repro.obs.fleet import format_table
from repro.obs.log import get_logger

log = get_logger("obs.cli")


def _percentile(sorted_values: List[float], q: float) -> float:
    """Exact inclusive percentile over a sorted sample."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = q * (len(sorted_values) - 1)
    lower = int(position)
    upper = min(lower + 1, len(sorted_values) - 1)
    fraction = position - lower
    return sorted_values[lower] * (1 - fraction) + sorted_values[upper] * fraction


def summarize(records: List[SpanRecord]) -> str:
    """Group finished spans by name into a stage table."""
    by_name: Dict[str, List[float]] = {}
    errors: Dict[str, int] = {}
    for record in records:
        duration = record.get("duration_ms")
        if duration is None:
            continue
        by_name.setdefault(str(record["name"]), []).append(float(duration))
        if record.get("status") == "error":
            errors[str(record["name"])] = errors.get(str(record["name"]), 0) + 1
    rows = []
    order = sorted(by_name, key=lambda n: -sum(by_name[n]))
    for name in order:
        values = sorted(by_name[name])
        total = sum(values)
        rows.append([
            name,
            str(len(values)),
            f"{total:.2f}",
            f"{total / len(values):.2f}",
            f"{_percentile(values, 0.5):.2f}",
            f"{_percentile(values, 0.95):.2f}",
            f"{values[-1]:.2f}",
            str(errors.get(name, 0)),
        ])
    return format_table(
        ["span", "count", "total(ms)", "mean(ms)", "p50(ms)", "p95(ms)",
         "max(ms)", "errors"],
        rows,
    )


def render_tree(records: List[SpanRecord], trace_id: Optional[str] = None) -> str:
    """Indented span tree of one trace (the first, unless selected)."""
    if not records:
        return "(empty trace)"
    if trace_id is None:
        trace_id = str(records[0].get("trace"))
    spans = [r for r in records if r.get("trace") == trace_id]
    if not spans:
        raise SystemExit(f"no spans for trace {trace_id!r}")
    children: Dict[Optional[int], List[SpanRecord]] = {}
    for record in spans:
        children.setdefault(record.get("parent"), []).append(record)
    for siblings in children.values():
        siblings.sort(key=lambda r: (r.get("start_ms", 0.0), r.get("span", 0)))
    lines = [f"trace {trace_id}"]

    def walk(parent: Optional[int], depth: int) -> None:
        for record in children.get(parent, []):
            duration = record.get("duration_ms")
            stamp = "  (open)" if duration is None else f"  {duration:.2f}ms"
            status = "" if record.get("status", "ok") == "ok" else " [error]"
            attrs = record.get("attrs") or {}
            blob = ""
            if attrs:
                blob = "  " + " ".join(
                    f"{k}={v}" for k, v in sorted(attrs.items())
                )
            lines.append("  " * (depth + 1) + f"{record['name']}{stamp}"
                         f"{status}{blob}")
            walk(record.get("span"), depth + 1)

    walk(None, 0)
    return "\n".join(lines)


def alerts_main(argv: List[str]) -> int:
    """Evaluate the SLO contract against a recorded metrics dump."""
    from repro.obs.export import registry_from_jsonl
    from repro.obs.slo import evaluate_slos

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.cli alerts",
        description="Evaluate SLO burn rates over a metrics JSONL dump.",
    )
    parser.add_argument("metrics_file", help="metrics JSONL file (- for stdin)")
    args = parser.parse_args(argv)
    try:
        if args.metrics_file == "-":
            registry = registry_from_jsonl(sys.stdin.read())
        else:
            registry = registry_from_jsonl(pathlib.Path(args.metrics_file))
    except (OSError, ValueError) as exc:
        log.error("metrics.unreadable", file=args.metrics_file,
                  reason=str(exc))
        return 2
    rows = []
    breached = False
    for status in evaluate_slos(registry):
        if status.bad_fraction is None:
            verdict, bad, burn = "no data", "-", "-"
        else:
            verdict = "BREACH" if status.breached else "ok"
            breached = breached or status.breached
            bad = f"{status.bad_fraction:.4f}"
            burn = f"{status.burn_rate:.2f}"
        rows.append([status.slo.name, f"{status.slo.objective:.2%}",
                     bad, burn, verdict])
    print(format_table(
        ["slo", "objective", "bad fraction", "burn rate", "status"], rows))
    return 1 if breached else 0


def postmortem_main(argv: List[str]) -> int:
    """Render sealed postmortem bundles (one file or a directory)."""
    from repro.obs.postmortem import PostmortemBundle, load_bundles

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.cli postmortem",
        description="Render postmortem bundles sealed by the incident "
                    "pipeline.",
    )
    parser.add_argument("path", help="bundle JSON file, or a directory of "
                                     "postmortem-*.json bundles")
    parser.add_argument("--flight-tail", type=int, default=20,
                        help="flight-tape events to show per bundle")
    parser.add_argument("--replay", action="store_true",
                        help="print only each bundle's replay recipe as "
                             "JSON lines")
    args = parser.parse_args(argv)
    target = pathlib.Path(args.path)
    try:
        if target.is_dir():
            bundles = load_bundles(target)
            if not bundles:
                log.warning("postmortem.empty", directory=str(target))
                return 1
        else:
            bundles = [PostmortemBundle.load(target)]
    except (OSError, ValueError, KeyError) as exc:
        log.error("postmortem.unreadable", path=args.path, reason=str(exc))
        return 2
    if args.replay:
        import json
        for bundle in bundles:
            print(json.dumps(bundle.replay, sort_keys=True))
        return 0
    for index, bundle in enumerate(bundles):
        if index:
            print()
        print(bundle.render(flight_tail=args.flight_tail))
    return 0


def profile_main(argv: List[str]) -> int:
    """Re-render a phase-profile dump (critical path + folded stacks)."""
    from repro.bench.profile import load_profile_json, result_from_dict

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.cli profile",
        description="Render a phase-profile JSON dump.",
    )
    parser.add_argument("profile_file", help="profile JSON (- for stdin)")
    parser.add_argument("--flame", action="store_true",
                        help="print only the folded flamegraph stacks")
    args = parser.parse_args(argv)
    try:
        if args.profile_file == "-":
            import json
            result = result_from_dict(json.loads(sys.stdin.read()))
        else:
            result = load_profile_json(args.profile_file)
    except (OSError, ValueError, KeyError) as exc:
        log.error("profile.unreadable", file=args.profile_file,
                  reason=str(exc))
        return 2
    if args.flame:
        print("\n".join(result.folded()))
    else:
        print(result.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.cli",
        description="Summarize a JSONL trace produced by the bench harness.",
    )
    parser.add_argument("trace_file", help="JSONL trace file (- for stdin)")
    parser.add_argument("--tree", action="store_true",
                        help="print the span tree of one trace")
    parser.add_argument("--trace", default=None,
                        help="trace id to print with --tree (default: first)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Subcommand dispatch; the bare form stays the trace summarizer so
    # existing `python -m repro.obs.cli trace.jsonl` invocations hold.
    if argv and argv[0] == "alerts":
        return alerts_main(argv[1:])
    if argv and argv[0] == "profile":
        return profile_main(argv[1:])
    if argv and argv[0] == "postmortem":
        return postmortem_main(argv[1:])
    args = build_parser().parse_args(argv)
    try:
        if args.trace_file == "-":
            records = read_trace_jsonl(sys.stdin.read())
        else:
            records = read_trace_jsonl(pathlib.Path(args.trace_file))
    except (OSError, ValueError) as exc:
        log.error("trace.unreadable", file=args.trace_file, reason=str(exc))
        return 1
    if not records:
        log.warning("trace.empty", file=args.trace_file)
        return 0
    if args.tree:
        print(render_tree(records, args.trace))
    else:
        print(summarize(records))
    log.info("trace.summarized", file=args.trace_file, spans=len(records))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main(sys.argv[1:]))
