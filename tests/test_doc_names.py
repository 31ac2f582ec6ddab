"""Doc-name check: every backticked name in the docs resolves.

DESIGN.md, EXPERIMENTS.md and README.md name modules, classes and
functions by their fully-qualified path. A rename or a deleted module
leaves such a name pointing nowhere; this test imports the longest
module prefix of each name and walks the rest as attributes.

The docs also name classes bare (`MetricsRegistry`, `Histogram.merge`).
Every backticked CamelCase identifier that is not a dotted tail must be
a class defined in ``src/repro``, a builtin class, or on a short list of
units and standard-library names, so a deleted class cannot linger in
the prose. A backticked ``Class.attr`` whose class is defined there must
name a method, field (a class-body or ``self.`` assignment) or class
attribute of that class or of a base, so a deleted knob or method
cannot linger either.

They cite files too (`bench/fleet_model.py`, `BENCH_fleet.json`,
`sim/costmodel.py:120-140`). Every backticked ``*.py``, ``*.json`` or
``*.md`` path must be a file under one of a few roots, and a cited line
or line range must lie inside it.
"""

from __future__ import annotations

import ast
import builtins
import importlib
import pathlib
import re
from typing import Dict, Iterable, Optional, Tuple

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = ("DESIGN.md", "EXPERIMENTS.md", "README.md")
FENCE = re.compile(r"^```.*?^```", re.M | re.S)
SPAN = re.compile(r"`([^`]+)`")
NAME = re.compile(r"(?<![\w.])repro(?:\.\w+)+")
# Upper-case first, then at least one lower-case and one more upper-case
# letter; not a dotted tail (`com.synthetic.ClassNNNNN` is a pattern).
CAMEL = re.compile(r"(?<![\w.])[A-Z]\w*?[a-z]\w*?[A-Z]\w*")
# `Class.attr` with a capitalised class that is not a dotted tail.
MEMBER = re.compile(r"(?<![\w.])([A-Z]\w*)\.(\w+)")
# Names that are neither repro nor builtin classes: units and the one
# standard-library class the docs mention.
NOT_CLASSES = {"KiB", "MiB", "GiB", "ExitStack"}
# A file path, optionally with a line (`:N`) or a line range (`:A-B`).
CITATION = re.compile(r"(?<![\w./-])([\w./-]*\w\.(?:py|json|md))"
                      r"(?::(\d+)(?:[-–](\d+))?)?(?![\w/])")
# Where a cited path may start: the repo, the package, the baselines
# and the recorded results.
CITATION_ROOTS = ("", "src", "src/repro", "benchmarks/baselines",
                  "benchmarks/results")


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


def _class_members(root: pathlib.Path) -> Dict[str, list]:
    """Class name -> one (bases, members) per class of that name under
    ``root``: the base names, and every method, class-body name and
    ``self.`` attribute its body assigns."""
    found: Dict[str, list] = {}
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            members = set()
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    members.add(child.name)
                targets = (child.targets if isinstance(child, ast.Assign)
                           else [child.target]
                           if isinstance(child, ast.AnnAssign) else [])
                members.update(t.id for t in targets
                               if isinstance(t, ast.Name))
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Attribute)
                        and isinstance(sub.ctx, ast.Store)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"):
                    members.add(sub.attr)
            bases = [b.id if isinstance(b, ast.Name) else b.attr
                     for b in node.bases
                     if isinstance(b, (ast.Name, ast.Attribute))]
            found.setdefault(node.name, []).append((bases, members))
    return found


def _has_member(classes: Dict[str, list], name: str, attr: str,
                seen: frozenset = frozenset()) -> bool:
    """Whether any class called ``name`` (or a base of one) has
    ``attr``; a base outside ``classes`` is looked up as a builtin."""
    if name in seen:
        return False
    if name not in classes:
        base = getattr(builtins, name, object)
        return hasattr(base if isinstance(base, type) else object, attr)
    return any(attr in members
               or any(_has_member(classes, base, attr, seen | {name})
                      for base in bases or ["object"])
               for bases, members in classes[name])


def _member_problems(root: pathlib.Path,
                     names: Dict[Tuple[str, str], Tuple[str, int]]) -> list:
    """``doc:line `Class.attr``` for each name whose class is under
    ``root`` but has no such member."""
    classes = _class_members(root)
    return [f"{doc}:{line} `{cls}.{attr}`"
            for (cls, attr), (doc, line) in sorted(names.items())
            if cls in classes and not _has_member(classes, cls, attr)]


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


def _doc_citations() -> Dict[Tuple[str, int, int], Tuple[str, int]]:
    """(path, first line, last line) -> (doc, line) of its first
    citation. A citation without a line cites line 1."""
    found: Dict[Tuple[str, int, int], Tuple[str, int]] = {}
    for span, doc, line in _doc_spans():
        for path, first, last in CITATION.findall(span):
            first = int(first or 1)
            found.setdefault((path, first, int(last or first)), (doc, line))
    return found


def _cited_file(path: str) -> pathlib.Path:
    for root in CITATION_ROOTS:
        candidate = ROOT / root / path
        if candidate.is_file():
            return candidate
    raise FileNotFoundError(path)


def _citation_problem(path: str, first: int, last: int) -> Optional[str]:
    """Why ``path:first-last`` does not resolve, or None if it does."""
    try:
        lines = len(_cited_file(path).read_text(
            encoding="utf-8").splitlines())
    except FileNotFoundError:
        return f"`{path}`: no such file"
    if not 1 <= first <= last <= max(lines, 1):
        return f"`{path}:{first}-{last}`: the file has {lines} lines"
    return None


NAMES = _doc_names(NAME)
CLASS_NAMES = _doc_names(CAMEL)
MEMBER_NAMES = _doc_names(MEMBER)


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


def test_the_docs_name_class_members():
    assert len(MEMBER_NAMES) >= 20


def test_doc_class_members_resolve():
    unknown = _member_problems(ROOT / "src" / "repro", MEMBER_NAMES)
    assert not unknown, ("backticked `Class.attr` names that name no "
                         "member: " + ", ".join(unknown))


MEMBER_TOY = '''
class Base:
    LIMIT = 3

    def shared(self):
        return 0


class Thing(Base):
    size: int = 1

    def __init__(self):
        self.router = None

    def run(self):
        return 1


class Error(ValueError):
    pass
'''


@pytest.mark.parametrize("attr,ok", [
    ("run", True), ("size", True), ("router", True), ("LIMIT", True),
    ("shared", True), ("__init__", True), ("copy", False),
    ("max_fires", False),
])
def test_member_check_on_a_toy_package(tmp_path, attr, ok):
    (tmp_path / "lib.py").write_text(MEMBER_TOY, encoding="utf-8")
    problems = _member_problems(tmp_path, {("Thing", attr): ("DOC.md", 7)})
    assert problems == ([] if ok else [f"DOC.md:7 `Thing.{attr}`"])


def test_member_check_looks_up_builtin_bases_and_skips_foreign_classes(
        tmp_path):
    (tmp_path / "lib.py").write_text(MEMBER_TOY, encoding="utf-8")
    assert _member_problems(tmp_path, {
        ("Error", "args"): ("DOC.md", 1),
        ("Error", "retries"): ("DOC.md", 2),
        ("ExitStack", "anything"): ("DOC.md", 3),
    }) == ["DOC.md:2 `Error.retries`"]


def test_member_pattern_skips_dotted_tails():
    assert MEMBER.findall("`FaaSPlatform.build` and "
                          "`repro.faas.platform.FaaSPlatform.build`") == [
        ("FaaSPlatform", "build")]


def test_the_docs_cite_files():
    assert len(_doc_citations()) >= 40


def test_doc_file_citations_resolve():
    unresolved = []
    for (path, first, last), (doc, line) in sorted(_doc_citations().items()):
        problem = _citation_problem(path, first, last)
        if problem is not None:
            unresolved.append(f"{doc}:{line} {problem}")
    assert not unresolved, ("backticked file citations that do not "
                            "resolve: " + ", ".join(unresolved))


def test_citation_pattern_reads_lines_and_ranges():
    assert CITATION.findall("see `sim/costmodel.py:120-140` and "
                            "`core/store.py:80`") == [
        ("sim/costmodel.py", "120", "140"), ("core/store.py", "80", "")]
    # An output file with a longer suffix or a directory is no citation.
    assert CITATION.findall("tape.jsonl results/x.json/") == []


def test_citation_check_flags_a_deleted_module():
    assert "no such file" in _citation_problem("criu/serialize.py", 1, 1)


def test_citation_check_flags_lines_past_the_end():
    lines = len((ROOT / "src/repro/core/store.py").read_text(
        encoding="utf-8").splitlines())
    assert _citation_problem("core/store.py", lines, lines) is None
    assert "lines" in _citation_problem("core/store.py", lines, lines + 1)
    assert "lines" in _citation_problem("core/store.py", 0, 1)


def test_citation_roots_resolve_short_and_long_paths():
    for path in ("README.md", "repro/core/store.py", "core/store.py",
                 "src/repro/core/store.py", "BENCH_prewarm.json"):
        assert _citation_problem(path, 1, 1) is None, path
