"""Tests for the from-scratch markdown renderer."""

import pytest

from repro.functions.markdown_engine import render, render_document
from repro.functions.markdown_engine.blocks import parse_blocks
from repro.functions.markdown_engine.inline import escape_html, render_inline
from repro.functions.markdown_engine.nodes import (
    CodeBlock,
    Heading,
    ListBlock,
    Paragraph,
)


class TestHeadings:
    @pytest.mark.parametrize("level", range(1, 7))
    def test_atx_levels(self, level):
        assert render("#" * level + " Title") == f"<h{level}>Title</h{level}>\n"

    def test_seven_hashes_is_not_heading(self):
        assert "<h7>" not in render("####### nope")

    def test_trailing_hashes_stripped(self):
        assert render("## Title ##") == "<h2>Title</h2>\n"

    def test_setext_h1(self):
        assert render("Title\n=====") == "<h1>Title</h1>\n"

    def test_setext_h2(self):
        assert render("Title\n-----") == "<h2>Title</h2>\n"

    def test_heading_with_inline_markup(self):
        assert render("# A *b* c") == "<h1>A <em>b</em> c</h1>\n"


class TestParagraphs:
    def test_single_paragraph(self):
        assert render("hello world") == "<p>hello world</p>\n"

    def test_multiline_paragraph_joined(self):
        assert render("line one\nline two") == "<p>line one line two</p>\n"

    def test_blank_line_splits_paragraphs(self):
        html = render("one\n\ntwo")
        assert html == "<p>one</p>\n<p>two</p>\n"

    def test_hard_break(self):
        assert "<br />" in render("one  \ntwo")


class TestCodeBlocks:
    def test_fenced_block(self):
        html = render("```\ncode here\n```")
        assert html == "<pre><code>code here\n</code></pre>\n"

    def test_fenced_with_language(self):
        html = render("```python\nx = 1\n```")
        assert '<code class="language-python">' in html

    def test_fenced_preserves_markdown_syntax(self):
        html = render("```\n# not a heading\n**not bold**\n```")
        assert "<h1>" not in html and "<strong>" not in html

    def test_fenced_escapes_html(self):
        html = render("```\n<script>\n```")
        assert "&lt;script&gt;" in html

    def test_unclosed_fence_runs_to_end(self):
        html = render("```\nabc")
        assert "abc" in html and "<pre>" in html

    def test_tilde_fence(self):
        assert "<pre>" in render("~~~\ncode\n~~~")

    def test_indented_code_block(self):
        html = render("    indented code")
        assert html == "<pre><code>indented code\n</code></pre>\n"

    def test_indented_block_multiline(self):
        html = render("    a\n    b")
        assert "a\nb" in html


class TestLists:
    def test_unordered_list(self):
        html = render("- one\n- two\n- three")
        assert html.count("<li>") == 3
        assert html.startswith("<ul>")

    @pytest.mark.parametrize("marker", ["-", "*", "+"])
    def test_bullet_markers(self, marker):
        assert "<ul>" in render(f"{marker} item")

    def test_ordered_list(self):
        html = render("1. one\n2. two")
        assert html.startswith("<ol>")
        assert html.count("<li>") == 2

    def test_ordered_list_start_attribute(self):
        assert '<ol start="3">' in render("3. three\n4. four")

    def test_ordered_list_start_one_no_attribute(self):
        assert "<ol>" in render("1. one")

    def test_nested_list(self):
        html = render("- outer\n  - inner")
        assert html.count("<ul>") == 2

    def test_list_item_inline_markup(self):
        assert "<strong>b</strong>" in render("- a **b** c")

    def test_loose_list_items_get_paragraphs(self):
        html = render("- one\n\n- two")
        assert "<p>one</p>" in html

    def test_list_then_paragraph(self):
        html = render("- item\n\nafter")
        assert "<p>after</p>" in html
        assert "<li>item</li>" in html

    def test_lazy_continuation(self):
        html = render("- first line\ncontinued")
        assert "first line continued" in html


class TestBlockquotes:
    def test_simple_quote(self):
        html = render("> quoted")
        assert html == "<blockquote>\n<p>quoted</p>\n</blockquote>\n"

    def test_multiline_quote(self):
        html = render("> line one\n> line two")
        assert "line one line two" in html

    def test_quote_with_heading(self):
        html = render("> # Quoted title")
        assert "<blockquote>" in html and "<h1>Quoted title</h1>" in html

    def test_lazy_quote_continuation(self):
        html = render("> start\ncontinues")
        assert "start continues" in html


class TestThematicBreak:
    @pytest.mark.parametrize("rule", ["---", "***", "___", "- - -"])
    def test_rules(self, rule):
        assert render(rule) == "<hr />\n"

    def test_dashes_after_paragraph_are_setext(self):
        assert "<h2>" in render("title\n---")


class TestInline:
    def test_emphasis(self):
        assert render_inline("*em*") == "<em>em</em>"

    def test_strong(self):
        assert render_inline("**strong**") == "<strong>strong</strong>"

    def test_triple_emphasis(self):
        assert render_inline("***both***") == "<em><strong>both</strong></em>"

    def test_underscore_emphasis(self):
        assert render_inline("_em_") == "<em>em</em>"

    def test_unclosed_marker_literal(self):
        assert render_inline("a * b") == "a * b"

    def test_code_span(self):
        assert render_inline("`x = 1`") == "<code>x = 1</code>"

    def test_code_span_escapes(self):
        assert render_inline("`<b>`") == "<code>&lt;b&gt;</code>"

    def test_double_backtick_code_span(self):
        assert render_inline("``a ` b``") == "<code>a ` b</code>"

    def test_emphasis_inside_code_not_rendered(self):
        assert render_inline("`*x*`") == "<code>*x*</code>"

    def test_link(self):
        html = render_inline("[text](https://example.org)")
        assert html == '<a href="https://example.org">text</a>'

    def test_link_with_title(self):
        html = render_inline('[t](https://e.org "Title")')
        assert 'title="Title"' in html

    def test_link_label_markup(self):
        assert "<em>" in render_inline("[*em*](https://e.org)")

    def test_image(self):
        html = render_inline("![alt](pic.png)")
        assert html == '<img src="pic.png" alt="alt" />'

    def test_autolink(self):
        html = render_inline("<https://example.org>")
        assert html == '<a href="https://example.org">https://example.org</a>'

    def test_email_autolink(self):
        assert 'href="mailto:a@b.com"' in render_inline("<a@b.com>")

    def test_backslash_escape(self):
        assert render_inline(r"\*not em\*") == "*not em*"

    def test_html_escaped_by_default(self):
        assert render_inline("a < b & c > d") == "a &lt; b &amp; c &gt; d"

    def test_inline_html_tag_passthrough(self):
        assert render_inline("<span>x</span>") == "<span>x</span>"

    def test_escape_html_quote_mode(self):
        assert escape_html('a"b', quote=True) == "a&quot;b"


class TestDocument:
    def test_full_page_structure(self):
        page = render_document("# Hi")
        assert page.startswith("<!DOCTYPE html>")
        assert "<title>Rendered Markdown</title>" in page
        assert "<h1>Hi</h1>" in page

    def test_empty_input(self):
        assert render("") == ""

    def test_crlf_normalized(self):
        assert render("# A\r\nB") == render("# A\nB")

    def test_mixed_document(self):
        doc = (
            "# Title\n\nIntro *text*.\n\n"
            "## Section\n\n- a\n- b\n\n"
            "```js\ncode\n```\n\n> quote\n\n---\n\nend\n"
        )
        html = render(doc)
        for fragment in ("<h1>", "<h2>", "<ul>", "<pre>",
                         "<blockquote>", "<hr />", "<em>text</em>"):
            assert fragment in html

    def test_ast_types(self):
        doc = parse_blocks("# H\n\npara\n\n    code\n\n- x")
        kinds = [type(n) for n in doc.children]
        assert kinds == [Heading, Paragraph, CodeBlock, ListBlock]
