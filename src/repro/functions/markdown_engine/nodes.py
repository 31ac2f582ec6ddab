"""AST node types for the markdown engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class Node:
    """Base AST node."""


@dataclass
class Document(Node):
    children: List[Node] = field(default_factory=list)


@dataclass
class Heading(Node):
    level: int
    text: str


@dataclass
class Paragraph(Node):
    text: str


@dataclass
class CodeBlock(Node):
    code: str
    language: str = ""


@dataclass
class BlockQuote(Node):
    children: List[Node] = field(default_factory=list)


@dataclass
class ListItem(Node):
    children: List[Node] = field(default_factory=list)


@dataclass
class ListBlock(Node):
    ordered: bool
    start: int = 1
    tight: bool = True
    items: List[ListItem] = field(default_factory=list)


@dataclass
class ThematicBreak(Node):
    pass


@dataclass
class HtmlBlock(Node):
    html: str
