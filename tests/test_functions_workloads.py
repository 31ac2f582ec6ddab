"""Tests for the function workloads and registry."""

import pytest

from repro.core.starters import VanillaStarter
from repro.functions import (
    ImageResizerFunction,
    MarkdownFunction,
    NoopFunction,
    SAMPLE_DOCUMENT,
    custom_function,
    make_app,
    registered_names,
)
from repro.functions.base import FunctionApp, register_app
from repro.functions.image_resizer import SCALE_FRACTION, SOURCE_IMAGE_PATH
from repro.functions.imaging.generate import synthetic_photo
from repro.functions.imaging.resize import scale_to_fraction
from repro.runtime.base import Request


class TestRegistry:
    def test_paper_workloads_registered(self):
        names = registered_names()
        for expected in ("noop", "markdown", "image-resizer",
                         "synthetic-small", "synthetic-medium", "synthetic-big"):
            assert expected in names

    def test_make_app_returns_fresh_instances(self):
        assert make_app("noop") is not make_app("noop")

    def test_make_app_unknown_rejected(self):
        with pytest.raises(KeyError, match="unknown function"):
            make_app("nope")

    def test_register_custom(self):
        class Custom(FunctionApp):
            def __init__(self):
                from repro.sim.costmodel import NOOP_COSTS
                super().__init__(NOOP_COSTS)

            def execute(self, runtime, request):
                return "custom", 200

        register_app("test-custom", Custom)
        assert isinstance(make_app("test-custom"), Custom)


class TestNoop:
    def test_returns_empty_200(self, kernel):
        handle = VanillaStarter(kernel).start(NoopFunction())
        response = handle.invoke()
        assert response.status == 200
        assert response.body == ""

    def test_profile_is_paper_noop(self):
        assert NoopFunction().profile.name == "noop"


class TestMarkdown:
    def test_renders_request_body(self, kernel):
        handle = VanillaStarter(kernel).start(MarkdownFunction())
        response = handle.invoke(Request(body="# Hello\n\n- a\n- b"))
        assert "<h1>Hello</h1>" in response.body
        assert response.body.count("<li>") == 2

    def test_default_document_on_empty_body(self, kernel):
        handle = VanillaStarter(kernel).start(MarkdownFunction())
        response = handle.invoke(Request(body=""))
        assert "OpenPiton" in response.body

    def test_sample_document_renders_richly(self, kernel):
        handle = VanillaStarter(kernel).start(MarkdownFunction())
        html = handle.invoke(Request(body=SAMPLE_DOCUMENT)).body
        for fragment in ("<h1>", "<h2>", "<ol>", "<ul>", "<pre>",
                         "<blockquote>", "<hr />", "<a href="):
            assert fragment in html

    def test_non_string_body_uses_default(self, kernel):
        handle = VanillaStarter(kernel).start(MarkdownFunction())
        assert handle.invoke(Request(body={"not": "str"})).ok


class TestImageResizer:
    def test_source_image_created_in_vfs(self, kernel):
        VanillaStarter(kernel).start(ImageResizerFunction())
        source = kernel.fs.lookup(SOURCE_IMAGE_PATH)
        assert source.size == 1024 * 1024  # "a 1MB ... image"

    def test_resize_response_is_ten_percent(self, kernel):
        handle = VanillaStarter(kernel).start(ImageResizerFunction())
        body = handle.invoke().body
        # Working copy is 344x144; 10% → 34x14.
        assert body["width"] == 34
        assert body["height"] == 14

    def test_uninitialized_resizer_errors(self, kernel):
        app = ImageResizerFunction()
        # Execute without init (bypasses APPINIT) → 500, not crash.
        body, status = app.execute(None, Request())
        assert status == 500

    @pytest.mark.slow
    def test_full_scale_resize_matches_paper_geometry(self):
        thumb = scale_to_fraction(synthetic_photo(), SCALE_FRACTION)
        assert (thumb.width, thumb.height) == (344, 144)


class TestSynthetic:
    def test_custom_function_sizes(self):
        app = custom_function(classes=42, total_kib=100.0)
        assert len(app.classes) == 42
        assert app.profile.startup_metric == "first_response"

    def test_profile_without_classes_rejected(self):
        from repro.functions.synthetic import SyntheticFunction
        from repro.sim.costmodel import NOOP_COSTS
        with pytest.raises(ValueError, match="no classes"):
            SyntheticFunction(NOOP_COSTS)

    def test_response_reports_loaded_classes(self, kernel):
        app = make_app("synthetic-small")
        handle = VanillaStarter(kernel).start(app)
        body = handle.invoke().body
        assert body["classes_loaded"] == 374

    def test_artifact_size_includes_classes(self, kernel):
        small = make_app("synthetic-small")
        big = make_app("synthetic-big")
        assert big.artifact_size() - small.artifact_size() == pytest.approx(
            (41.0 - 2.8) * 1024 * 1024, rel=0.01)
