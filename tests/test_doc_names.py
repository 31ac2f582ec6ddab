"""Doc-name check: every backticked ``repro.…`` name in the docs resolves.

DESIGN.md, EXPERIMENTS.md and README.md name modules, classes and
functions by their fully-qualified path. A rename or a deleted module
leaves such a name pointing nowhere; this test imports the longest
module prefix of each name and walks the rest as attributes.
"""

from __future__ import annotations

import importlib
import pathlib
import re
from typing import Dict, Tuple

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = ("DESIGN.md", "EXPERIMENTS.md", "README.md")
FENCE = re.compile(r"^```.*?^```", re.M | re.S)
SPAN = re.compile(r"`([^`]+)`")
NAME = re.compile(r"(?<![\w.])repro(?:\.\w+)+")


def _doc_names() -> Dict[str, Tuple[str, int]]:
    """Backticked ``repro.…`` name -> (doc, line) of its first use.
    Fenced blocks hold shell sessions, not names, and are skipped."""
    found: Dict[str, Tuple[str, int]] = {}
    for doc in DOCS:
        text = FENCE.sub(lambda m: "\n" * m.group(0).count("\n"),
                         (ROOT / doc).read_text(encoding="utf-8"))
        for span in SPAN.finditer(text):
            line = text.count("\n", 0, span.start()) + 1
            for name in NAME.findall(span.group(1)):
                found.setdefault(name, (doc, line))
    return found


def _resolve(name: str) -> object:
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attr in parts[split:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(name)


NAMES = _doc_names()


def test_the_docs_name_something():
    assert len(NAMES) >= 40


@pytest.mark.parametrize("name", sorted(NAMES))
def test_doc_name_resolves(name):
    doc, line = NAMES[name]
    try:
        _resolve(name)
    except (ImportError, AttributeError) as exc:
        pytest.fail(f"{doc}:{line} names `{name}`, which does not "
                    f"resolve: {exc}")
