"""HTML rendering of the markdown AST."""

from __future__ import annotations

from typing import List

from repro.functions.markdown_engine.blocks import parse_blocks
from repro.functions.markdown_engine.inline import escape_html, render_inline
from repro.functions.markdown_engine.nodes import (
    BlockQuote,
    CodeBlock,
    Document,
    Heading,
    HtmlBlock,
    ListBlock,
    ListItem,
    Node,
    Paragraph,
    ThematicBreak,
)


def render(text: str) -> str:
    """Render markdown ``text`` to an HTML fragment."""
    return _render_children(parse_blocks(text).children)


def render_document(text: str) -> str:
    """Render markdown to a complete HTML page (what the paper's
    Markdown Render function returns for each request)."""
    body = render(text)
    return (
        "<!DOCTYPE html>\n<html>\n<head>\n"
        "<meta charset=\"utf-8\" />\n<title>Rendered Markdown</title>\n"
        "</head>\n<body>\n"
        f"{body}"
        "</body>\n</html>\n"
    )


def _render_children(children: List[Node]) -> str:
    return "".join(_render_node(node) for node in children)


def _render_node(node: Node) -> str:
    if isinstance(node, Heading):
        return f"<h{node.level}>{render_inline(node.text)}</h{node.level}>\n"
    if isinstance(node, Paragraph):
        return f"<p>{render_inline(node.text)}</p>\n"
    if isinstance(node, CodeBlock):
        lang = f' class="language-{escape_html(node.language, quote=True)}"' if node.language else ""
        return f"<pre><code{lang}>{escape_html(node.code)}\n</code></pre>\n"
    if isinstance(node, BlockQuote):
        return f"<blockquote>\n{_render_children(node.children)}</blockquote>\n"
    if isinstance(node, ListBlock):
        return _render_list(node)
    if isinstance(node, ThematicBreak):
        return "<hr />\n"
    if isinstance(node, HtmlBlock):
        return f"{node.html}\n"
    if isinstance(node, Document):
        return _render_children(node.children)
    raise TypeError(f"unknown node type: {type(node).__name__}")


def _render_list(node: ListBlock) -> str:
    tag = "ol" if node.ordered else "ul"
    start_attr = f' start="{node.start}"' if node.ordered and node.start != 1 else ""
    parts = [f"<{tag}{start_attr}>\n"]
    for item in node.items:
        parts.append(_render_item(item, tight=node.tight))
    parts.append(f"</{tag}>\n")
    return "".join(parts)


def _render_item(item: ListItem, tight: bool) -> str:
    if tight and len(item.children) == 1 and isinstance(item.children[0], Paragraph):
        return f"<li>{render_inline(item.children[0].text)}</li>\n"
    inner = _render_children(item.children)
    return f"<li>\n{inner}</li>\n"
