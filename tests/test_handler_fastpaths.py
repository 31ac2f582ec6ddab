"""The real handlers' fast paths equal the plain algorithms they replace.

The markdown block parser names each line's kind with one alternation
(``blocks._LINE_RE``) and matches list items with one pattern
(``blocks._ITEM_RE``); the inline renderer copies span-free runs whole
and escapes span-free emphasis without re-scanning it; the box filter
sums row boxes straight from the uint8 pixels. Each test here writes the
plain form out and compares.
"""

import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.functions.imaging import Image, resize_box
from repro.functions.markdown_engine import blocks
from repro.functions.markdown_engine.inline import escape_html, render_inline

# -- block classification -----------------------------------------------------

_FENCE = re.compile(r"^ {0,3}(```+|~~~+)\s*([^`\s]*)\s*$")
_THEMATIC = re.compile(r"^ {0,3}((\*\s*){3,}|(-\s*){3,}|(_\s*){3,})$")
_ATX = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
_QUOTE = re.compile(r"^ {0,3}>\s?(.*)$")
_BULLET = re.compile(r"^( {0,3})([-+*])\s+(.*)$")
_ORDERED = re.compile(r"^( {0,3})(\d{1,9})([.)])\s+(.*)$")
_HTML = re.compile(r"^ {0,3}<(?:[a-zA-Z][^>]*|/[a-zA-Z][^>]*|!--.*)>?")


def _cascade_kind(line):
    """The first block kind ``line`` opens, one check at a time."""
    if not line.strip():
        return "blank"
    if _FENCE.match(line):
        return "fence"
    if _THEMATIC.match(line):
        return "thematic"
    if _ATX.match(line.lstrip()) and len(line) - len(line.lstrip()) <= 3:
        return "atx"
    if _QUOTE.match(line):
        return "quote"
    if _BULLET.match(line) or _ORDERED.match(line):
        return "item"
    if line.startswith("    "):
        return "code"
    if _HTML.match(line):
        return "html"
    return None


def _cascade_item(line):
    """(ordered, start, content indent, content) of a list item, or None."""
    m = _BULLET.match(line)
    if m:
        return False, 1, len(m.group(1)) + len(m.group(2)) + 1, m.group(3)
    m = _ORDERED.match(line)
    if m:
        indent = len(m.group(1)) + len(m.group(2)) + len(m.group(3)) + 1
        return True, int(m.group(2)), indent, m.group(4)
    return None


# Block markers, digits (one non-ASCII), HTML openers and whitespace of
# every kind the parser strips. No "\n": the parser splits on it, so a
# line never holds one.
_LINE_TOKENS = st.sampled_from([
    " ", "  ", "   ", "    ", "\t", "\xa0", "\u2003", "\u3000", "\u2028",
    "\x1c", "\x85", "\v", "\f", "\r", "#", "##", "#######", "-", "*", "_",
    "+", "=", ">", "`", "```", "~~~", "~", "1", "9", "123456789",
    "1234567890", "\u0663", ".", ")", "<", "</", "<!--", "a", "Z", "x y",
    "- ", "* ", "+ ", "> ", "# ", "1. ", "2)", "\u06631. ", "123456789) ",
    "1234567890. ", "***", "- - -", "_ _ _", "```py", "~~~ ", "<div>",
    "<!-- x -->", "<1",
])
_lines = st.lists(_LINE_TOKENS, max_size=10).map("".join)


@given(line=_lines)
@settings(max_examples=2000, deadline=None)
def test_line_patterns_equal_the_check_cascade(line):
    # The one-match kind is the cascade's first hit.
    m = blocks._LINE_RE.match(line)
    assert (m.lastgroup if m else None) == _cascade_kind(line)
    # A paragraph ends at any line one of its interrupting checks hits.
    interrupts = bool(_BULLET.match(line) or _ORDERED.match(line)
                      or _QUOTE.match(line) or _FENCE.match(line)
                      or _THEMATIC.match(line)
                      or (_ATX.match(line.lstrip())
                          and len(line) - len(line.lstrip()) <= 3))
    assert (m is not None and m.lastgroup in blocks._INTERRUPTS) == interrupts
    # One item pattern reads what bullet-then-ordered read.
    item = blocks._ITEM_RE.match(line)
    got = None
    if item:
        ordered = item.group(2) is not None
        got = (ordered, int(item.group(2)) if ordered else 1,
               item.end(1) + 1, item.group(3))
    assert got == _cascade_item(line)


def test_list_keeps_item_semantics_over_thematic_break():
    # "- - -" opens a thematic break, but inside a list it is an item.
    doc = blocks.parse_blocks("- a\n- - -\n")
    assert len(doc.children) == 1
    assert len(doc.children[0].items) == 2


# -- inline spans -------------------------------------------------------------

# Text with no span opener: none of ``\ ` * _ ! [ <`` and no "  \n".
_span_free = st.text(alphabet=st.sampled_from(
    list("abc XYZ 019&>\"'.,:;#-+=~|(){}]\n\t\xa0\u00e9\u4e2d")),
    max_size=80).filter(lambda text: "  \n" not in text)


@given(text=_span_free)
@settings(max_examples=500, deadline=None)
def test_span_free_text_renders_to_its_escape(text):
    assert render_inline(text) == escape_html(text)


_SPAN_TOKENS = st.sampled_from([
    "a", "b c", "&", ">", "<", "<b>", "</i>", "<http://x.org>", "_", "__",
    "`", "``", "[", "]", "[l](u)", "![i](s)", "!", "\\", "\\_", "\\&",
    "  \n", " ", "\n", "\u00e9",
])
_inner = st.lists(_SPAN_TOKENS, min_size=1, max_size=8).map("".join).filter(
    lambda text: text == text.strip() and not text.endswith("\\"))
_EMPHASIS = {1: ("<em>", "</em>"), 2: ("<strong>", "</strong>"),
             3: ("<em><strong>", "</strong></em>")}


@given(inner=_inner, width=st.sampled_from([1, 2, 3]))
@settings(max_examples=500, deadline=None)
def test_emphasis_equals_a_full_scan_of_its_inner_text(inner, width):
    # No "*" in ``inner``, so the closing run is the one after it; the
    # emphasis body must be what rendering the inner text on its own
    # gives, whether or not the inner text holds a span opener.
    opening, closing = _EMPHASIS[width]
    marker = "*" * width
    assert render_inline(f"{marker}{inner}{marker}") == \
        f"{opening}{render_inline(inner)}{closing}"


# -- box filter ---------------------------------------------------------------


def _reference_edges(size, count):
    edges = np.round(np.linspace(0, size, count + 1)).astype(int)
    edges = np.maximum.accumulate(np.clip(edges, 0, size))
    for i in range(1, len(edges)):
        if edges[i] <= edges[i - 1]:
            edges[i] = min(edges[i - 1] + 1, size)
    for i in range(len(edges) - 2, -1, -1):
        if edges[i] >= edges[i + 1]:
            edges[i] = max(edges[i + 1] - 1, 0)
    return [int(edge) for edge in edges]


def _reference_box(pixels, width, height):
    xs = _reference_edges(pixels.shape[1], width)
    ys = _reference_edges(pixels.shape[0], height)
    out = np.empty((height, width, 3), dtype=np.float64)
    for r in range(height):
        for c in range(width):
            box = pixels[ys[r]:ys[r + 1], xs[c]:xs[c + 1]].astype(np.int64)
            area = (ys[r + 1] - ys[r]) * (xs[c + 1] - xs[c])
            out[r, c] = box.sum(axis=(0, 1)) / area
    return Image(out)


@st.composite
def _downscales(draw):
    height = draw(st.integers(1, 40))
    width = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    pixels = np.random.default_rng(seed).integers(
        0, 256, size=(height, width, 3), dtype=np.uint8)
    return pixels, draw(st.integers(1, width)), draw(st.integers(1, height))


@given(case=_downscales())
@settings(max_examples=300, deadline=None)
def test_box_filter_equals_direct_box_sums(case):
    pixels, width, height = case
    assert resize_box(Image(pixels), width, height) == \
        _reference_box(pixels, width, height)
