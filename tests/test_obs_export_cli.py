"""Tests for the JSONL exporters and the trace CLI."""

import json

import pytest

from repro.obs.cli import main as cli_main
from repro.obs.cli import render_tree, summarize
from repro.obs.export import (
    metrics_to_jsonl,
    read_trace_jsonl,
    spans_to_jsonl,
    write_trace_jsonl,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Tracer


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0


def _loaded_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.inc("requests_total", 3.0, labels={"fn": "a"})
    reg.inc("requests_total", 1.0, labels={"fn": "b"})
    reg.set_gauge("replicas", 2.0, labels={"fn": "a"})
    reg.set_gauge("load", 0.75)
    for v in (1.5, 2.5, 40.0, 41.0, 300.0):
        reg.observe("latency_ms", v, labels={"fn": "a"})
    return reg


def _sample_trace():
    """A two-trace span set: one nested trace, one flat errored trace."""
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("episode", rep=0):
        clock.now = 2.0
        with tracer.span("restore", image="img-1"):
            clock.now = 12.0
        clock.now = 15.0
    try:
        with tracer.span("episode", rep=1):
            clock.now = 18.0
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    return [s.as_dict() for s in tracer.spans]


class TestJsonl:
    def test_spans_to_jsonl_one_object_per_line(self):
        records = _sample_trace()
        text = spans_to_jsonl(records)
        lines = text.strip().splitlines()
        assert len(lines) == 3
        assert all(json.loads(line)["name"] for line in lines)

    def test_write_then_read_round_trip(self, tmp_path):
        records = _sample_trace()
        path = write_trace_jsonl(tmp_path / "trace.jsonl", records)
        assert read_trace_jsonl(path) == records
        # a str path works too
        assert read_trace_jsonl(str(path)) == records

    def test_read_accepts_raw_text(self):
        records = _sample_trace()
        assert read_trace_jsonl(spans_to_jsonl(records)) == records

    def test_read_rejects_bad_json(self):
        with pytest.raises(ValueError, match="bad trace line 1"):
            read_trace_jsonl("{not json}")

    def test_read_rejects_non_span_records(self):
        with pytest.raises(ValueError, match="not a span record"):
            read_trace_jsonl('{"foo": 1}')

    def test_metrics_to_jsonl_includes_quantiles(self):
        lines = metrics_to_jsonl(_loaded_registry()).strip().splitlines()
        records = [json.loads(line) for line in lines]
        by_name = {r["metric"]: r for r in records}
        assert by_name["requests_total"]["kind"] == "counter"
        hist = [r for r in records if r["metric"] == "latency_ms"][0]
        assert hist["count"] == 5
        assert set(hist["quantiles"]) == {"0.5", "0.95", "0.99"}


class TestCliSummaries:
    def test_summarize_groups_by_name(self):
        table = summarize(_sample_trace())
        lines = table.splitlines()
        assert lines[0].split()[:2] == ["span", "count"]
        episode_row = next(l for l in lines if l.startswith("episode"))
        assert episode_row.split()[1] == "2"   # two episode spans
        assert episode_row.split()[-1] == "1"  # one errored

    def test_summarize_skips_unfinished_spans(self):
        records = _sample_trace()
        records.append({"name": "open", "duration_ms": None})
        assert "open" not in summarize(records)

    def test_render_tree_nests_children(self):
        tree = render_tree(_sample_trace())
        lines = tree.splitlines()
        assert lines[0] == "trace t-0001"
        assert lines[1].startswith("  episode")
        assert lines[2].startswith("    restore")
        assert "image=img-1" in lines[2]

    def test_render_tree_marks_errors(self):
        tree = render_tree(_sample_trace(), trace_id="t-0002")
        assert "[error]" in tree

    def test_render_tree_unknown_trace_exits(self):
        with pytest.raises(SystemExit, match="no spans"):
            render_tree(_sample_trace(), trace_id="t-9999")

    def test_render_tree_empty(self):
        assert render_tree([]) == "(empty trace)"


class TestCliMain:
    def _trace_file(self, tmp_path):
        return write_trace_jsonl(tmp_path / "trace.jsonl", _sample_trace())

    def test_summary_output(self, tmp_path, capsys):
        assert cli_main([str(self._trace_file(tmp_path))]) == 0
        captured = capsys.readouterr()
        assert "span" in captured.out and "restore" in captured.out
        assert "event=trace.summarized" in captured.err

    def test_tree_output(self, tmp_path, capsys):
        path = self._trace_file(tmp_path)
        assert cli_main([str(path), "--tree", "--trace", "t-0001"]) == 0
        assert "trace t-0001" in capsys.readouterr().out

    def test_missing_file_fails(self, tmp_path, capsys):
        assert cli_main([str(tmp_path / "ghost.jsonl")]) == 1
        assert "event=trace.unreadable" in capsys.readouterr().err

    def test_empty_file_warns(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert cli_main([str(empty)]) == 0
        assert "event=trace.empty" in capsys.readouterr().err
