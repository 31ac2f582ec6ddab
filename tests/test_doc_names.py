"""Doc-name check: every backticked name in the docs resolves.

DESIGN.md, EXPERIMENTS.md and README.md name modules, classes and
functions by their fully-qualified path. A rename or a deleted module
leaves such a name pointing nowhere; this test imports the longest
module prefix of each name and walks the rest as attributes.

The docs also name classes bare (`MetricsRegistry`, `Histogram.merge`).
Every backticked CamelCase identifier that is not a dotted tail must be
a class defined in ``src/repro``, a builtin class, or on a short list of
units and standard-library names, so a deleted class cannot linger in
the prose.
"""

from __future__ import annotations

import ast
import builtins
import importlib
import pathlib
import re
from typing import Dict, Iterable, Tuple

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = ("DESIGN.md", "EXPERIMENTS.md", "README.md")
FENCE = re.compile(r"^```.*?^```", re.M | re.S)
SPAN = re.compile(r"`([^`]+)`")
NAME = re.compile(r"(?<![\w.])repro(?:\.\w+)+")
# Upper-case first, then at least one lower-case and one more upper-case
# letter; not a dotted tail (`com.synthetic.ClassNNNNN` is a pattern).
CAMEL = re.compile(r"(?<![\w.])[A-Z]\w*?[a-z]\w*?[A-Z]\w*")
# Names that are neither repro nor builtin classes: units and the one
# standard-library class the docs mention.
NOT_CLASSES = {"KiB", "MiB", "GiB", "ExitStack"}


def _doc_spans() -> Iterable[Tuple[str, str, int]]:
    """(span text, doc, line) of every backticked span. Fenced blocks
    hold shell sessions, not names, and are skipped."""
    for doc in DOCS:
        text = FENCE.sub(lambda m: "\n" * m.group(0).count("\n"),
                         (ROOT / doc).read_text(encoding="utf-8"))
        for span in SPAN.finditer(text):
            yield span.group(1), doc, text.count("\n", 0, span.start()) + 1


def _doc_names(pattern: "re.Pattern[str]") -> Dict[str, Tuple[str, int]]:
    """Backticked name matching ``pattern`` -> (doc, line) of its first
    use."""
    found: Dict[str, Tuple[str, int]] = {}
    for span, doc, line in _doc_spans():
        for name in pattern.findall(span):
            found.setdefault(name, (doc, line))
    return found


def _repro_classes() -> set:
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names.update(node.name for node in ast.walk(tree)
                     if isinstance(node, ast.ClassDef))
    return names


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


NAMES = _doc_names(NAME)
CLASS_NAMES = _doc_names(CAMEL)


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


def test_the_docs_name_classes():
    assert len(CLASS_NAMES) >= 40


def test_doc_class_names_resolve():
    known = _repro_classes() | NOT_CLASSES | {
        name for name in dir(builtins)
        if isinstance(getattr(builtins, name), type)}
    unknown = [f"{doc}:{line} `{name}`"
               for name, (doc, line) in sorted(CLASS_NAMES.items())
               if name not in known]
    assert not unknown, ("backticked class names that name no class: "
                         + ", ".join(unknown))
