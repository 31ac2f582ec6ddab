"""Block-level markdown parser.

Line-oriented, single pass with recursive sub-parsing for container
blocks (blockquotes and list items). Produces the AST defined in
:mod:`repro.functions.markdown_engine.nodes`.
"""

from __future__ import annotations

import re
from typing import List, Tuple

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

_ATX_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
_FENCE_RE = re.compile(r"^ {0,3}(```+|~~~+)\s*([^`\s]*)\s*$")
# One list item, bullet or ordered: group 1 is the indent and marker
# (the item's content starts one column after it), group 2 the ordered
# number, group 3 the content.
_ITEM_RE = re.compile(r"^( {0,3}(?:[-+*]|(\d{1,9})[.)]))\s+(.*)$")
_QUOTE_RE = re.compile(r"^ {0,3}>\s?(.*)$")
_SETEXT_RE = re.compile(r"^ {0,3}(=+|-+)\s*$")
# Every block kind a line can open, in the parser's priority order; the
# first alternative that matches names the line (``lastgroup``), and no
# match is paragraph text. ATX allows up to three leading whitespace
# characters of any kind (the line is lstripped before the ``#``).
_LINE_RE = re.compile(
    r"(?P<blank>\s*$)"
    r"|(?P<fence> {0,3}(?:```+|~~~+)\s*[^`\s]*\s*$)"
    r"|(?P<thematic> {0,3}(?:(?:\*\s*){3,}|(?:-\s*){3,}|(?:_\s*){3,})$)"
    r"|(?P<atx>\s{0,3}#{1,6}\s)"
    r"|(?P<quote> {0,3}>)"
    r"|(?P<item> {0,3}(?:[-+*]|\d{1,9}[.)])\s)"
    r"|(?P<code>    )"
    r"|(?P<html> {0,3}<(?:/?[a-zA-Z]|!--))"
)
# Kinds that end a paragraph instead of continuing it.
_INTERRUPTS = frozenset(("fence", "thematic", "atx", "quote", "item"))


def parse_blocks(text: str) -> Document:
    """Parse markdown ``text`` into a :class:`Document` AST."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return Document(children=_parse_lines(lines))


def _parse_lines(lines: List[str]) -> List[Node]:
    nodes: List[Node] = []
    classify = _LINE_RE.match
    i = 0
    n = len(lines)
    while i < n:
        line = lines[i]
        m = classify(line)
        kind = m.lastgroup if m else None
        if kind == "blank":
            i += 1
            continue

        if kind == "fence":
            marker, language = _FENCE_RE.match(line).groups()
            close_re = re.compile(r"^ {0,3}" + re.escape(marker[0]) + "{" + str(len(marker)) + r",}\s*$")
            body: List[str] = []
            i += 1
            while i < n and not close_re.match(lines[i]):
                body.append(lines[i])
                i += 1
            i += 1  # skip the closing fence (or run off the end)
            nodes.append(CodeBlock(code="\n".join(body), language=language))
            continue

        if kind == "thematic":
            nodes.append(ThematicBreak())
            i += 1
            continue

        if kind == "atx":
            atx = _ATX_RE.match(line.lstrip())
            nodes.append(Heading(level=len(atx.group(1)), text=atx.group(2)))
            i += 1
            continue

        # Blockquote: gather the contiguous quoted run, strip markers, recurse.
        if kind == "quote":
            quoted: List[str] = []
            while i < n:
                q = _QUOTE_RE.match(lines[i])
                if q:
                    quoted.append(q.group(1))
                elif lines[i].strip() and quoted and quoted[-1].strip():
                    quoted.append(lines[i])  # lazy continuation
                else:
                    break
                i += 1
            nodes.append(BlockQuote(children=_parse_lines(quoted)))
            continue

        if kind == "item":
            block, i = _parse_list(lines, i)
            nodes.append(block)
            continue

        # Indented code block (4+ spaces, not a list continuation).
        if kind == "code":
            body = []
            while i < n and (lines[i].startswith("    ") or not lines[i].strip()):
                body.append(lines[i][4:] if lines[i].startswith("    ") else "")
                i += 1
            while body and not body[-1].strip():
                body.pop()
            nodes.append(CodeBlock(code="\n".join(body)))
            continue

        # Raw HTML block.
        if kind == "html":
            body = []
            while i < n and lines[i].strip():
                body.append(lines[i])
                i += 1
            nodes.append(HtmlBlock(html="\n".join(body)))
            continue

        # Paragraph (with setext heading lookahead). Its first line is
        # paragraph text; each later line is classified again. ``parts``
        # alternates stripped lines and their joins: a hard break after
        # a line ending in two spaces, else one space.
        parts = [line.strip()]
        hard = line.endswith("  ")
        i += 1
        while i < n:
            nxt = lines[i]
            m = classify(nxt)
            kind = m.lastgroup if m else None
            if kind == "blank":
                break
            setext = _SETEXT_RE.match(nxt)
            if setext:
                level = 1 if setext.group(1)[0] == "=" else 2
                nodes.append(Heading(level=level, text=" ".join(parts[::2])))
                parts = []
                i += 1
                break
            if kind in _INTERRUPTS:
                break
            parts.append("  \n" if hard else " ")
            parts.append(nxt.strip())
            hard = nxt.endswith("  ")
            i += 1
        if parts:
            nodes.append(Paragraph(text="".join(parts)))
    return nodes


def _parse_list(lines: List[str], i: int) -> Tuple[ListBlock, int]:
    """Parse a run of list items starting at ``lines[i]``.

    Each line is matched against ``_ITEM_RE`` at most once: ``m`` is
    always the item match of ``lines[i]`` (None when it is no item, is
    blank or is past the end).
    """
    match_item = _ITEM_RE.match
    m = match_item(lines[i])
    ordered = m.group(2) is not None
    block = ListBlock(ordered=ordered, start=int(m.group(2)) if ordered else 1)
    n = len(lines)
    saw_blank_inside = False
    # A list type change ends this list.
    while m is not None and (m.group(2) is not None) == ordered:
        content_indent = m.end(1) + 1
        item_lines = [m.group(3)]
        m = None
        i += 1
        blank_run = 0
        while i < n:
            cont = lines[i]
            if not cont.strip():
                blank_run += 1
                if blank_run > 1:
                    break
                item_lines.append("")
                i += 1
                continue
            stripped_indent = len(cont) - len(cont.lstrip())
            if stripped_indent >= content_indent:
                item_lines.append(cont[content_indent:])
                blank_run = 0
                i += 1
                continue
            m = match_item(cont)
            if blank_run == 0 and m is None and not _QUOTE_RE.match(cont):
                # Lazy continuation of the item's trailing paragraph.
                item_lines.append(cont.strip())
                i += 1
                continue
            break
        # Trailing blanks make the list loose only when another sibling
        # item follows; a blank before unrelated content just ends the
        # list. The only blank item lines are "": a blank source line,
        # or a first line with no content after the marker.
        trailing_blank = False
        while item_lines and not item_lines[-1]:
            item_lines.pop()
            trailing_blank = True
        if trailing_blank and m is not None:
            saw_blank_inside = True
        if "" in item_lines:
            saw_blank_inside = True
        block.items.append(ListItem(children=_parse_lines(item_lines)))
        # Skip a blank separator line between sibling items.
        if m is None and i + 1 < n and not lines[i].strip():
            m = match_item(lines[i + 1])
            if m is not None:
                saw_blank_inside = True
                i += 1
    block.tight = not saw_blank_inside
    return block, i
