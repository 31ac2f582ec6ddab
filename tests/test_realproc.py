"""Tests for the real-process backend (host-dependent, kept small)."""

import io
import os

import pytest

from repro.realproc.child import (
    FUNCTION_NAMES,
    build_handler,
    parse_ok_line,
    parse_ready_line,
    serve,
)
from repro.realproc.runner import VanillaProcessRunner
from repro.realproc.zygote import ZygoteRunner


class TestProtocol:
    def test_parse_ready(self):
        assert parse_ready_line("READY 12345\n") == 12345

    def test_parse_ready_malformed(self):
        with pytest.raises(ValueError):
            parse_ready_line("NOPE\n")

    def test_parse_ok(self):
        ns, digest = parse_ok_line("OK 500 abc123\n")
        assert ns == 500 and digest == "abc123"

    def test_parse_ok_malformed(self):
        with pytest.raises(ValueError):
            parse_ok_line("OK 500\n")


class TestHandlers:
    def test_all_functions_have_builders(self):
        for name in FUNCTION_NAMES:
            assert callable(build_handler(name))

    def test_unknown_function(self):
        with pytest.raises(SystemExit):
            build_handler("ghost")

    def test_noop_handler(self):
        assert build_handler("noop")("") == "ok"

    def test_markdown_handler_renders(self):
        html = build_handler("markdown")("# Title")
        assert "<h1>Title</h1>" in html

    def test_markdown_handler_default_document(self):
        assert "OpenPiton" in build_handler("markdown")("")

    def test_resizer_handler_reports_dims(self):
        assert build_handler("image-resizer")("") == "69x29"

    def test_serve_loop_in_memory(self):
        infile = io.StringIO("# A\nQUIT\n")
        outfile = io.StringIO()
        assert serve("markdown", infile, outfile) == 0
        lines = outfile.getvalue().splitlines()
        assert lines[0].startswith("READY ")
        assert lines[1].startswith("OK ")

    def test_serve_reports_errors_without_dying(self):
        infile = io.StringIO("x\ny\nQUIT\n")
        outfile = io.StringIO()

        calls = {"n": 0}

        def bad_handler(body):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ValueError("boom")
            return "fine"

        from repro.realproc.child import serve_with_handler
        serve_with_handler(bad_handler, infile, outfile)
        lines = outfile.getvalue().splitlines()
        assert lines[1].startswith("ERR ValueError")
        assert lines[2].startswith("OK ")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="POSIX only")
class TestRealProcesses:
    def test_vanilla_start_measures(self):
        sample = VanillaProcessRunner().start_once("noop")
        assert sample.startup_ms > 1.0
        assert sample.first_service_ms is not None

    def test_zygote_much_faster_than_vanilla(self):
        vanilla = VanillaProcessRunner().start_once("noop").startup_ms
        with ZygoteRunner("noop") as zygote:
            forked = zygote.start_once().startup_ms
        assert forked < 0.5 * vanilla

    def test_zygote_serves_correct_results(self):
        with ZygoteRunner("markdown") as zygote:
            sample = zygote.start_once()
        assert sample.first_service_ms is not None

    def test_zygote_multiple_spawns(self):
        with ZygoteRunner("noop") as zygote:
            samples = zygote.measure(repetitions=3)
        assert len(samples) == 3
        assert all(s.startup_ms > 0 for s in samples)
