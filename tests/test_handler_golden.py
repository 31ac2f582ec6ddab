"""Golden outputs of the real handlers' engines.

The markdown renderer and the box resize filter are rewritten for host
speed from time to time. A request-level check compares a response with
a render by the same engine, so it cannot see an engine change; these
digests were sealed from the engines before any such rewrite, and a
faster engine must reproduce them byte for byte.
"""

import hashlib
import random

import numpy as np
import pytest

from repro.functions.imaging import Image, resize_box, synthetic_photo
from repro.functions.imaging.resize import scale_to_fraction
from repro.functions.markdown import SAMPLE_DOCUMENT
from repro.functions.markdown_engine import parse_blocks, render_document
from repro.functions.markdown_engine.nodes import (
    BlockQuote, CodeBlock, Heading, ListBlock)

# -- markdown -----------------------------------------------------------------

# Vocabulary of the benchmark's markdown request bodies.
_WORDS = ("cold", "start", "snapshot", "restore", "replica", "prebake",
          "**warm**", "*pool*", "`criu`", "[link](https://example.org)")
# Every character that can open, close or escape a span, plus block
# markers, and the hard line break ("  \n") as one token.
_ALPHABET = list("ab *_`[]()<>!\\&\n#-+.\"'~|") + ["  \n"]


def _bench_documents(seed):
    """Documents shaped like the benchmark's markdown request bodies."""
    rng = random.Random(seed)
    documents = []
    for index in range(8):
        lines = [SAMPLE_DOCUMENT, f"## Section {index}", ""]
        for _ in range(rng.randint(2, 6)):
            lines.append("- " + " ".join(rng.choice(_WORDS)
                                         for _ in range(rng.randint(3, 9))))
        lines.append("")
        lines.append(" ".join(rng.choice(_WORDS)
                              for _ in range(rng.randint(10, 40))))
        documents.append("\n".join(lines))
    return documents


def _random_strings(seed, count=3000):
    rng = random.Random(seed)
    return ["".join(rng.choice(_ALPHABET) for _ in range(rng.randint(0, 40)))
            for _ in range(count)]


# Block markers and line shapes: digits (one of them non-ASCII), setext
# underlines, quote, list, fence, HTML and break markers, indents of
# 1-4 spaces, a tab and a no-break space; lines end in "\n", "\r\n"
# or "\r".
_BLOCK_TOKENS = ("a", "b c", " ", "  ", "   ", "    ", "\t", "\xa0", "0", "7",
                 "12", "\u0663", "=", "===", ">", "> ", "- ", "* ", "+ ",
                 "1. ", "2)", "```", "~~~", "<div>", "</div>", "<!-- ",
                 " -->", "***", "---", "#", "## ", "*", "_", "`")
_LINE_BREAKS = ("\n", "\n", "\n", "\n", "\r\n", "\r")


def _block_documents(seed, count=3000):
    """Random multi-line documents built from block-level tokens."""
    rng = random.Random(seed)
    documents = []
    for _ in range(count):
        parts = []
        for _ in range(rng.randint(1, 10)):
            parts.extend(rng.choice(_BLOCK_TOKENS)
                         for _ in range(rng.randint(0, 5)))
            parts.append(rng.choice(_LINE_BREAKS))
        documents.append("".join(parts))
    return documents


def _digest_renders(documents):
    digest = hashlib.sha256()
    for text in documents:
        digest.update(render_document(text).encode())
        digest.update(b"\0")
    return digest.hexdigest()


MARKDOWN_GOLDEN = {
    "sample":
        "bfdc1881c62a41694d3e12958df92e5965f6f0f48dc769c65773bf3889662dc6",
    "bench-seeds-1-5":
        "cae064cf747765d2997a715b79ae018cdad0d08a1527754113a72f6479a10b9c",
    "random-3000":
        "308f09ffd864eb796d54f2c84c9e626cf48aafb590125716ff85a4d5fefbc466",
    "blocks-random-3000":
        "01b913d0b0dfa957d131881e43c0a1dade0d1bfc6258dc2f323e455ae51f006c",
}


def _markdown_corpus(name):
    if name == "sample":
        return [SAMPLE_DOCUMENT]
    if name == "bench-seeds-1-5":
        return [doc for seed in range(1, 6) for doc in _bench_documents(seed)]
    if name == "blocks-random-3000":
        return _block_documents(seed=2020)
    return _random_strings(seed=2020)


@pytest.mark.parametrize("name", sorted(MARKDOWN_GOLDEN))
def test_markdown_renders_are_unchanged(name):
    assert _digest_renders(_markdown_corpus(name)) == MARKDOWN_GOLDEN[name]


def test_random_corpus_reaches_every_span_kind():
    html = "".join(render_document(text) for text in _random_strings(seed=2020))
    for tag in ("<br />", "<code>", "<em>", "<strong>", "&amp;", "&lt;"):
        assert tag in html


def _block_kinds(nodes, kinds):
    for node in nodes:
        if isinstance(node, ListBlock):
            kinds.add(("ol" if node.ordered else "ul",
                       "tight" if node.tight else "loose"))
            if node.start != 1:
                kinds.add("ol-start")
            for item in node.items:
                _block_kinds(item.children, kinds)
        elif isinstance(node, BlockQuote):
            kinds.add("quote")
            _block_kinds(node.children, kinds)
        elif isinstance(node, CodeBlock):
            kinds.add("fenced" if node.fenced else "indented")
        else:
            kinds.add(type(node).__name__)
    return kinds


def test_block_corpus_reaches_every_block_kind():
    documents = _block_documents(seed=2020)
    kinds = set()
    for text in documents:
        _block_kinds(parse_blocks(text).children, kinds)
    assert kinds >= {("ol", "tight"), ("ol", "loose"), ("ul", "tight"),
                     ("ul", "loose"), "ol-start", "quote", "fenced",
                     "indented", "Heading", "HtmlBlock", "ThematicBreak",
                     "Paragraph"}
    # Setext headings: a level-1 heading in a document without "#".
    assert any(isinstance(node, Heading) and node.level == 1
               for text in documents if "#" not in text
               for node in parse_blocks(text).children)


# -- box resize ---------------------------------------------------------------


def _noise(width, height, seed):
    rng = np.random.default_rng(seed)
    return Image(rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8))


def _pixels_digest(image):
    digest = hashlib.sha256(repr(image.pixels.shape).encode())
    digest.update(image.pixels.tobytes())
    return digest.hexdigest()


RESIZE_GOLDEN = {
    "photo-344x144-to-34x14":
        "d0576e2edf198d02fbf9a0a14c762c876b5769638dfd5ae885bb553860271eb3",
    "photo-3440x1440-to-344x144":
        "c1c9f7c1d6e34ad9c32a11429fe52026739ab6c248d0ca31f8d4e443a363bec7",
    "noise-100x77-to-13x9":
        "548a961cdc4ab876a142a601742f382f0cb32bb0d443e6604a776612b340f538",
    "noise-64x48-identity":
        "0057c695295f30c072d0013391e0e5f0a1459d433edaae768f8d442677eda3e7",
    "noise-31x7-to-3x2":
        "f7391c8811bfdd30e86e21fc93d9f610659643affc702e5804a12f611632993e",
}


def _resize_case(name):
    if name == "photo-344x144-to-34x14":
        return scale_to_fraction(synthetic_photo(344, 144), 0.10)
    if name == "photo-3440x1440-to-344x144":
        return scale_to_fraction(synthetic_photo(), 0.10)
    if name == "noise-100x77-to-13x9":
        return resize_box(_noise(100, 77, seed=1), 13, 9)
    if name == "noise-64x48-identity":
        return resize_box(_noise(64, 48, seed=2), 64, 48)
    return resize_box(_noise(31, 7, seed=3), 3, 2)


@pytest.mark.parametrize("name", sorted(RESIZE_GOLDEN))
def test_box_resize_pixels_are_unchanged(name):
    assert _pixels_digest(_resize_case(name)) == RESIZE_GOLDEN[name]
