"""Dead-code guard: every definition in ``src/repro`` must be referenced.

Every ``def`` and ``class`` under ``src/repro`` (methods and nested
definitions included, dunders skipped) must have its name appear as an
identifier somewhere other than its own definition line: in ``src/``,
``tests/``, ``perfbench/``, ``examples/``, ``benchmarks/`` or the CI
workflows. The match is textual, so a name reached only through a
string (``getattr``, a patch table) counts as referenced. A definition
nothing mentions is dead: delete it, or add it to ``ALLOWED`` with a
one-line reason.
"""

from __future__ import annotations

import ast
import collections
import pathlib
import re
from typing import Dict, List

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
CORPUS_DIRS = ("src", "tests", "perfbench", "examples", "benchmarks")
WORKFLOWS = ROOT / ".github" / "workflows"
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# Qualified name -> why it stays although nothing references it.
ALLOWED: Dict[str, str] = {}


def _definitions() -> Dict[str, List[str]]:
    """Definition name -> qualified names of every definition using it."""
    found: Dict[str, List[str]] = collections.defaultdict(list)

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
                    found[name].append(prefix + name)
                walk(child, f"{prefix}{name}.")
            else:
                walk(child, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE.parent)
                          .with_suffix("").parts)
        walk(ast.parse(path.read_text(encoding="utf-8")), f"{module}.")
    return found


def _corpus() -> List[pathlib.Path]:
    files = [path for directory in CORPUS_DIRS
             for path in sorted((ROOT / directory).rglob("*.py"))]
    files += sorted(WORKFLOWS.glob("*.yml"))
    this = pathlib.Path(__file__).resolve()
    return [path for path in files if path.resolve() != this]


def unreferenced() -> List[str]:
    """Qualified names of definitions no other line mentions."""
    definitions = _definitions()
    uses: collections.Counter = collections.Counter()
    for path in _corpus():
        for token in IDENTIFIER.findall(path.read_text(encoding="utf-8")):
            if token in definitions:
                uses[token] += 1
    dead = []
    for name, qualnames in definitions.items():
        # Each definition's own ``def name`` / ``class name`` is one use.
        if uses[name] <= len(qualnames):
            dead.extend(qualnames)
    return sorted(dead)


def test_scan_sees_the_package():
    definitions = _definitions()
    assert "FaaSPlatform" in definitions
    assert "repro.faas.platform.FaaSPlatform.invoke" in definitions["invoke"]


def test_every_definition_is_referenced():
    dead = [name for name in unreferenced() if name not in ALLOWED]
    assert not dead, (
        f"{len(dead)} definition(s) nothing references; delete them or "
        "allow-list them with a reason:\n  " + "\n  ".join(dead))
