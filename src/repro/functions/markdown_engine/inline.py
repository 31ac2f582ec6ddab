"""Inline-level markdown parsing: spans inside a block of text."""

from __future__ import annotations

import re
from typing import List

_ESCAPABLE = set("\\`*_{}[]()#+-.!<>|\"'~")

_AUTOLINK_RE = re.compile(r"<(https?://[^\s<>]+|[\w.+-]+@[\w.-]+\.\w+)>")
_LINK_RE = re.compile(r"!?\[([^\]]*)\]\(\s*(<[^>]*>|[^\s)]*)(?:\s+\"([^\"]*)\")?\s*\)")
# A run of characters none of which can start a span: anything but
# ``\ ` * _ ! [ <``, and a space unless it begins a hard break "  \n".
_PLAIN_RUN_RE = re.compile(r"(?:[^\\`*_!\[< ]| (?! \n))+")


def escape_html(text: str, quote: bool = False) -> str:
    """HTML-escape ``text`` (&, <, >; plus quotes when ``quote``)."""
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    if quote:
        text = text.replace('"', "&quot;")
    return text


def render_inline(text: str) -> str:
    """Render inline markdown in ``text`` to an HTML fragment."""
    return _InlineRenderer(text).render()


class _InlineRenderer:
    """Single-pass scanner over a block's raw text."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.out: List[str] = []

    def render(self) -> str:
        text = self.text
        n = len(text)
        while self.pos < n:
            ch = text[self.pos]
            if ch == "\\" and self.pos + 1 < n and text[self.pos + 1] in _ESCAPABLE:
                self.out.append(escape_html(text[self.pos + 1]))
                self.pos += 2
            elif ch == "`":
                self._code_span()
            elif ch in "*_":
                self._emphasis(ch)
            elif ch == "!" and text.startswith("![", self.pos):
                self._link(image=True)
            elif ch == "[":
                self._link(image=False)
            elif ch == "<":
                self._angle()
            elif ch == " " and text.startswith("  \n", self.pos):
                self.out.append("<br />\n")
                self.pos += 3
            else:
                # Escaping a run gives the text escaping each of its
                # characters would; a lone "\" or "!" matches no run.
                m = _PLAIN_RUN_RE.match(text, self.pos)
                end = m.end() if m else self.pos + 1
                self.out.append(escape_html(text[self.pos:end]))
                self.pos = end
        return "".join(self.out)

    # -- span handlers --------------------------------------------------------

    def _code_span(self) -> None:
        text = self.text
        run = 1
        while self.pos + run < len(text) and text[self.pos + run] == "`":
            run += 1
        opener = "`" * run
        end = text.find(opener, self.pos + run)
        # A longer closing run does not close a shorter opener.
        while end != -1 and end + run < len(text) and text[end + run] == "`":
            nxt = end
            while nxt < len(text) and text[nxt] == "`":
                nxt += 1
            end = text.find(opener, nxt)
        if end == -1:
            self.out.append(escape_html(opener))
            self.pos += run
            return
        code = text[self.pos + run:end].strip()
        self.out.append(f"<code>{escape_html(code)}</code>")
        self.pos = end + run

    def _emphasis(self, marker: str) -> None:
        text = self.text
        run = 1
        while self.pos + run < len(text) and text[self.pos + run] == marker:
            run += 1
        run = min(run, 3)
        # The content must be non-empty and not start with whitespace.
        for width in (run, 2, 1):
            if width > run:
                continue
            closer = marker * width
            start = self.pos + width
            end = text.find(closer, start)
            while end != -1 and text[end - 1] == "\\":
                end = text.find(closer, end + width)
            if end != -1 and end > start and not text[start].isspace() \
                    and not text[end - 1].isspace():
                inner = render_inline(text[start:end])
                if width == 1:
                    self.out.append(f"<em>{inner}</em>")
                elif width == 2:
                    self.out.append(f"<strong>{inner}</strong>")
                else:
                    self.out.append(f"<em><strong>{inner}</strong></em>")
                self.pos = end + width
                return
        self.out.append(escape_html(text[self.pos:self.pos + run]))
        self.pos += run

    def _link(self, image: bool) -> None:
        m = _LINK_RE.match(self.text, self.pos)
        if not m or m.group(0).startswith("!") != image:
            self.out.append(escape_html(self.text[self.pos]))
            self.pos += 1
            return
        label, target, title = m.group(1), m.group(2), m.group(3)
        if target.startswith("<") and target.endswith(">"):
            target = target[1:-1]
        href = escape_html(target, quote=True)
        title_attr = f' title="{escape_html(title, quote=True)}"' if title else ""
        if image:
            alt = escape_html(label, quote=True)
            self.out.append(f'<img src="{href}" alt="{alt}"{title_attr} />')
        else:
            inner = render_inline(label)
            self.out.append(f'<a href="{href}"{title_attr}>{inner}</a>')
        self.pos = m.end()

    def _angle(self) -> None:
        m = _AUTOLINK_RE.match(self.text, self.pos)
        if m:
            target = m.group(1)
            href = target if "://" in target else f"mailto:{target}"
            self.out.append(
                f'<a href="{escape_html(href, quote=True)}">{escape_html(target)}</a>'
            )
            self.pos = m.end()
            return
        # Pass through things that look like inline HTML tags.
        close = self.text.find(">", self.pos)
        candidate = self.text[self.pos:close + 1] if close != -1 else ""
        if re.fullmatch(r"</?[a-zA-Z][\w-]*(\s[^<>]*)?/?>", candidate):
            self.out.append(candidate)
            self.pos = close + 1
        else:
            self.out.append("&lt;")
            self.pos += 1
