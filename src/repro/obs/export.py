"""Exporters: JSONL trace and metric dumps.

Traces export one JSON object per line (JSONL): stream-appendable,
greppable, and cheap to merge across repetitions. A metrics dump
round-trips through :func:`registry_from_jsonl`, so recorded runs can
be audited offline.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, Iterable, List, Union

from repro.obs.metrics import (
    COUNTER,
    GAUGE,
    HISTOGRAM,
    MetricsRegistry,
)
from repro.obs.spans import Span

# ---------------------------------------------------------------------------
# JSONL traces
# ---------------------------------------------------------------------------

SpanRecord = Dict[str, object]


def spans_to_jsonl(spans: Iterable[Union[Span, SpanRecord]]) -> str:
    """One JSON object per line; accepts Span objects or span dicts."""
    lines = []
    for span in spans:
        record = span.as_dict() if isinstance(span, Span) else span
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def write_trace_jsonl(path: Union[str, pathlib.Path],
                      spans: Iterable[Union[Span, SpanRecord]]) -> pathlib.Path:
    path = pathlib.Path(path)
    path.write_text(spans_to_jsonl(spans), encoding="utf-8")
    return path


def read_trace_jsonl(source: Union[str, pathlib.Path]) -> List[SpanRecord]:
    """Load span records from a JSONL file path or raw JSONL text."""
    if isinstance(source, pathlib.Path):
        text = source.read_text(encoding="utf-8")
    else:
        text = str(source)
        if "\n" not in text and not text.lstrip().startswith("{"):
            text = pathlib.Path(text).read_text(encoding="utf-8")
    records = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad trace line {lineno}: {exc}") from None
        if not isinstance(record, dict) or "name" not in record:
            raise ValueError(f"trace line {lineno} is not a span record")
        records.append(record)
    return records


def _format_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def metrics_to_jsonl(registry: MetricsRegistry) -> str:
    """Dump every series as JSONL (histograms with their quantiles)."""
    lines: List[str] = []
    for family in sorted(registry.families(), key=lambda f: f.name):
        for labels in sorted(family.series):
            record: Dict[str, object] = {
                "metric": family.name,
                "kind": family.kind,
                "labels": dict(labels),
            }
            if family.kind == HISTOGRAM:
                histogram = family.series[labels]
                record.update(
                    count=histogram.count,
                    sum=histogram.total,
                    min=histogram.min_value,
                    max=histogram.max_value,
                    quantiles={
                        _format_value(q): histogram.quantile(q)
                        for q in MetricsRegistry.DEFAULT_QUANTILES
                    },
                    # Bucket counts make the dump reconstructable
                    # (registry_from_jsonl) for offline SLO evaluation.
                    buckets={str(i): histogram.buckets[i]
                             for i in sorted(histogram.buckets)},
                    exemplars={str(i): list(histogram.exemplars[i])
                               for i in sorted(histogram.exemplars)},
                )
            else:
                record["value"] = family.series[labels]
            lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def registry_from_jsonl(source: Union[str, pathlib.Path]) -> MetricsRegistry:
    """Rebuild a :class:`MetricsRegistry` from a metrics JSONL dump.

    The inverse of :func:`metrics_to_jsonl` for everything bucketed:
    counters and gauges restore exactly, histograms restore their
    buckets/count/sum/min/max/exemplars (quantiles recompute from the
    buckets). This is what lets ``repro.obs.cli alerts`` evaluate SLOs
    against a recorded run without a live world.
    """
    if isinstance(source, pathlib.Path):
        text = source.read_text(encoding="utf-8")
    else:
        text = str(source)
        if "\n" not in text and not text.lstrip().startswith("{"):
            text = pathlib.Path(text).read_text(encoding="utf-8")
    registry = MetricsRegistry()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad metrics line {lineno}: {exc}") from None
        if not isinstance(record, dict) or "metric" not in record:
            raise ValueError(f"metrics line {lineno} is not a series record")
        name = record["metric"]
        kind = record.get("kind")
        labels = record.get("labels") or {}
        if kind == COUNTER:
            registry.inc(name, float(record["value"]), labels)
        elif kind == GAUGE:
            registry.set_gauge(name, float(record["value"]), labels)
        elif kind == HISTOGRAM:
            histogram = registry.histogram_series(name, labels)
            histogram.buckets = {int(i): int(n)
                                 for i, n in record.get("buckets", {}).items()}
            histogram.count = int(record["count"])
            histogram.total = float(record["sum"])
            histogram.min_value = float(record["min"])
            histogram.max_value = float(record["max"])
            histogram.exemplars = {
                int(i): (str(trace_id), float(value))
                for i, (trace_id, value) in record.get("exemplars", {}).items()
            }
        else:
            raise ValueError(
                f"metrics line {lineno}: unknown kind {kind!r}")
    return registry
