"""Exporters: Prometheus text format and JSONL trace/metric dumps.

The Prometheus renderer emits the v0.0.4 text exposition format —
counters, then gauges, then histograms (as summaries with
``quantile`` labels plus ``_count``/``_sum`` series) — and
:func:`parse_prometheus` round-trips exactly what it emits, so tests
and scrape-style tooling can verify registries symbolically.

Traces export one JSON object per line (JSONL): stream-appendable,
greppable, and cheap to merge across repetitions.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, Iterable, List, Union

from repro.obs.metrics import (
    COUNTER,
    GAUGE,
    HISTOGRAM,
    Histogram,
    LabelSet,
    MetricsRegistry,
)
from repro.obs.spans import Span

# ---------------------------------------------------------------------------
# Prometheus text format
# ---------------------------------------------------------------------------


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels: LabelSet) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in labels
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def _scalar_lines(name: str, series: Dict[LabelSet, object]) -> List[str]:
    return sorted(
        f"{name}{_format_labels(labels)} {_format_value(value)}"
        for labels, value in series.items()
    )


def _summary_lines(name: str, series: Dict[LabelSet, object],
                   quantiles: Iterable[float]) -> List[str]:
    lines: List[str] = []
    for labels, histogram in series.items():
        assert isinstance(histogram, Histogram)
        for q in quantiles:
            quantile_labels = labels + (("quantile", _format_value(q)),)
            lines.append(
                f"{name}{_format_labels(tuple(sorted(quantile_labels)))} "
                f"{_format_value(histogram.quantile(q))}"
            )
        lines.append(f"{name}_count{_format_labels(labels)} "
                     f"{_format_value(histogram.count)}")
        lines.append(f"{name}_sum{_format_labels(labels)} "
                     f"{_format_value(histogram.total)}")
    return sorted(lines)


def _exemplar_lines(name: str, series: Dict[LabelSet, object]) -> List[str]:
    # Exemplars ride as comment lines so parse_prometheus (which skips
    # "#") round-trips untouched; real Prometheus uses OpenMetrics "#"
    # machinery for the same reason.
    lines: List[str] = []
    for labels, histogram in series.items():
        assert isinstance(histogram, Histogram)
        for index in sorted(histogram.exemplars):
            trace_id, value = histogram.exemplars[index]
            lines.append(
                f"# EXEMPLAR {name}{_format_labels(labels)} "
                f"bucket={index} value={_format_value(value)} "
                f"trace_id={trace_id}"
            )
    return sorted(lines)


def render_prometheus(
    registry: MetricsRegistry,
    quantiles: Iterable[float] = MetricsRegistry.DEFAULT_QUANTILES,
) -> str:
    """Render every series: counters, gauges, then histogram summaries.

    Deterministic: metric families sort by name within each kind group,
    series sort within each family.
    """
    sections: List[str] = []
    families = registry.families()
    for kind, type_name in ((COUNTER, "counter"), (GAUGE, "gauge")):
        for family in sorted((f for f in families if f.kind == kind),
                             key=lambda f: f.name):
            sections.append(f"# TYPE {family.name} {type_name}")
            sections.extend(_scalar_lines(family.name, family.series))
    for family in sorted((f for f in families if f.kind == HISTOGRAM),
                         key=lambda f: f.name):
        sections.append(f"# TYPE {family.name} summary")
        sections.extend(_summary_lines(family.name, family.series, quantiles))
        sections.extend(_exemplar_lines(family.name, family.series))
    return "\n".join(sections) + ("\n" if sections else "")


ParsedSeries = Dict[str, Dict[LabelSet, float]]


def parse_prometheus(text: str) -> ParsedSeries:
    """Parse exposition text back into ``{metric: {labelset: value}}``.

    Supports the subset :func:`render_prometheus` emits (no escapes in
    label names, one series per line).
    """
    out: ParsedSeries = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        series, _, value_text = line.rpartition(" ")
        if not series:
            raise ValueError(f"malformed exposition line {raw!r}")
        if "{" in series:
            name, _, label_blob = series.partition("{")
            if not label_blob.endswith("}"):
                raise ValueError(f"malformed label set in {raw!r}")
            labels = []
            blob = label_blob[:-1]
            if blob:
                for pair in blob.split(","):
                    key, _, quoted = pair.partition("=")
                    if not (quoted.startswith('"') and quoted.endswith('"')):
                        raise ValueError(f"malformed label value in {raw!r}")
                    labels.append((key, quoted[1:-1]
                                   .replace('\\"', '"')
                                   .replace("\\n", "\n")
                                   .replace("\\\\", "\\")))
            labelset = tuple(sorted(labels))
        else:
            name, labelset = series, ()
        try:
            value = float(value_text)
        except ValueError:
            raise ValueError(f"bad sample value in {raw!r}") from None
        out.setdefault(name, {})[labelset] = value
    return out


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
