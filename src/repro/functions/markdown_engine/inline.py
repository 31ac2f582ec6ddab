"""Inline-level markdown parsing: spans inside a block of text."""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Tuple

_ESCAPABLE = set("\\`*_{}[]()#+-.!<>|\"'~")

_AUTOLINK_RE = re.compile(r"<(https?://[^\s<>]+|[\w.+-]+@[\w.-]+\.\w+)>")
_LINK_RE = re.compile(r"!?\[([^\]]*)\]\(\s*(<[^>]*>|[^\s)]*)(?:\s+\"([^\"]*)\")?\s*\)")
_TAG_RE = re.compile(r"</?[a-zA-Z][\w-]*(\s[^<>]*)?/?>")
# Everything that can start a span: ``\ ` * _ ! [ <`` and the hard
# break "  \n". Text between two openers is plain.
_OPENER_RE = re.compile(r"[\\`*_!\[<]|  \n")


def escape_html(text: str, quote: bool = False) -> str:
    """HTML-escape ``text`` (&, <, >; plus quotes when ``quote``)."""
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    if quote:
        text = text.replace('"', "&quot;")
    return text


def render_inline(text: str) -> str:
    """Render inline markdown in ``text`` to an HTML fragment.

    A single scan that jumps from span opener to span opener. The plain
    run before an opener is copied whole; it needs escaping only when it
    holds "&" or ">" (it cannot hold "<", which is an opener), since
    escaping a run gives the text escaping each character would.
    """
    out: List[str] = []
    append = out.append
    search = _OPENER_RE.search
    n = len(text)
    pos = 0
    while pos < n:
        m = search(text, pos)
        start = m.start() if m else n
        if start > pos:
            run = text[pos:start]
            append(escape_html(run) if "&" in run or ">" in run else run)
        if m is None:
            break
        html, pos = _SPANS[text[start]](text, start)
        append(html)
    return "".join(out)


# -- span handlers: each returns its HTML and the position after it ----------


def _backslash(text: str, pos: int) -> Tuple[str, int]:
    escaped = text[pos + 1:pos + 2]
    if escaped in _ESCAPABLE:
        return escape_html(escaped), pos + 2
    return "\\", pos + 1


def _hard_break(text: str, pos: int) -> Tuple[str, int]:
    return "<br />\n", pos + 3


def _code_span(text: str, pos: int) -> Tuple[str, int]:
    n = len(text)
    run = 1
    while pos + run < n and text[pos + run] == "`":
        run += 1
    opener = "`" * run
    end = text.find(opener, pos + run)
    # A longer closing run does not close a shorter opener.
    while end != -1 and end + run < n and text[end + run] == "`":
        nxt = end
        while nxt < n and text[nxt] == "`":
            nxt += 1
        end = text.find(opener, nxt)
    if end == -1:
        return opener, pos + run
    return f"<code>{escape_html(text[pos + run:end].strip())}</code>", end + run


def _emphasis(text: str, pos: int) -> Tuple[str, int]:
    marker = text[pos]
    n = len(text)
    run = 1
    while pos + run < n and text[pos + run] == marker:
        run += 1
    run = min(run, 3)
    # The content must be non-empty and not start with whitespace.
    for width in range(run, 0, -1):
        closer = marker * width
        start = pos + width
        end = text.find(closer, start)
        while end != -1 and text[end - 1] == "\\":
            end = text.find(closer, end + width)
        if end != -1 and end > start and not text[start].isspace() \
                and not text[end - 1].isspace():
            # Inner text with no span opener is one plain run.
            if _OPENER_RE.search(text, start, end):
                inner = render_inline(text[start:end])
            else:
                inner = escape_html(text[start:end])
            if width == 1:
                return f"<em>{inner}</em>", end + width
            if width == 2:
                return f"<strong>{inner}</strong>", end + width
            return f"<em><strong>{inner}</strong></em>", end + width
    return marker * run, pos + run


def _link(text: str, pos: int) -> Tuple[str, int]:
    # A "!" not followed by "[" matches no link and stays literal.
    m = _LINK_RE.match(text, pos)
    if not m:
        return text[pos], pos + 1
    label, target, title = m.groups()
    if target.startswith("<") and target.endswith(">"):
        target = target[1:-1]
    href = escape_html(target, quote=True)
    title_attr = f' title="{escape_html(title, quote=True)}"' if title else ""
    if text[pos] == "!":
        alt = escape_html(label, quote=True)
        return f'<img src="{href}" alt="{alt}"{title_attr} />', m.end()
    return f'<a href="{href}"{title_attr}>{render_inline(label)}</a>', m.end()


def _angle(text: str, pos: int) -> Tuple[str, int]:
    m = _AUTOLINK_RE.match(text, pos)
    if m:
        target = m.group(1)
        href = target if "://" in target else f"mailto:{target}"
        return (f'<a href="{escape_html(href, quote=True)}">'
                f'{escape_html(target)}</a>'), m.end()
    # Pass through things that look like inline HTML tags.
    close = text.find(">", pos)
    candidate = text[pos:close + 1] if close != -1 else ""
    if _TAG_RE.fullmatch(candidate):
        return candidate, close + 1
    return "&lt;", pos + 1


# The handler for each character ``_OPENER_RE`` can match first (a space
# only as the start of a hard break).
_SPANS: Dict[str, Callable[[str, int], Tuple[str, int]]] = {
    "\\": _backslash, "`": _code_span, "*": _emphasis, "_": _emphasis,
    "!": _link, "[": _link, "<": _angle, " ": _hard_break,
}
