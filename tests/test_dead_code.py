"""Reachability guard: ``src/repro`` holds only code a real entry point reaches.

Callers count only in the program's own trees: ``src/``, ``perfbench/``,
``benchmarks/`` and ``examples/``, minus every ``tests`` directory
below them. Tests do not make code live. Two rules:

* **Definitions.** Every ``def`` and ``class`` under ``src/repro``
  (methods and nested definitions included, dunders skipped) must be
  referenced in a caller file's syntax tree: as a name, an attribute,
  an import, a keyword, or a word of a string constant, so a name
  reached through ``getattr``, a dispatch table or generated code
  counts. Docstrings and other bare strings, comments and ``__all__``
  are prose, not references.
* **Parameters.** Every parameter with a default must be passed by some
  caller, by keyword or by position. Calls are matched by callee name
  (``f(...)`` or ``x.f(...)``); a class's ``__init__`` matches calls of
  the class name, ``cls(...)`` inside it and ``super().__init__`` in a
  direct subclass. A call with ``*args`` or ``**kwargs`` passes every
  parameter.

A hit is deleted, wired up, or listed in ``ALLOWED`` with one of the
fixed ``REASONS``. An ``ALLOWED`` entry that no longer names an
unreached definition or parameter fails too, so the list cannot rot.
"""

from __future__ import annotations

import ast
import collections
import pathlib
import re
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "perfbench", "benchmarks", "examples")
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

ORACLE = "reference oracle that tests compare against"
REAL_BINARY = "real-binary driver"
SEAM_CLOCK = "test seam: a clock"
SEAM_STREAM = "test seam: a stream"
SEAM_INTERPRETER = "test seam: an interpreter path"
SEAM_SIZE = "test seam: a size that tests shrink"
REASONS = frozenset({ORACLE, REAL_BINARY, SEAM_CLOCK, SEAM_STREAM,
                     SEAM_INTERPRETER, SEAM_SIZE})

# ``module.Qual.name`` or ``module.Qual.name(param)`` -> one of REASONS.
ALLOWED: Dict[str, str] = {
    # Rebuilds an image from chunks alone: dedup-is-lossless checks.
    "repro.core.store.SnapshotStore.materialize": ORACLE,
    # X9's replay claim: a bundle's recipe re-runs to the same digest.
    "repro.bench.fault_sweep.replay_recipe": ORACLE,
    # Page-by-page construction the run-length seal must equal.
    "repro.criu.images.VMADescriptor.from_pages": ORACLE,
    # The calibrated closed forms the JVM's per-class loader must match.
    "repro.sim.costmodel.CostModel.cold_load_cost": ORACLE,
    "repro.sim.costmodel.CostModel.restored_load_cost": ORACLE,
    # The X12 golden artifact is sealed on a 20-function, 4+4-node fleet.
    "repro.bench.fleet_study.fleet_study(functions)": SEAM_SIZE,
    "repro.bench.fleet_study.fleet_study(compute_nodes)": SEAM_SIZE,
    "repro.bench.fleet_study.fleet_study(storage_nodes)": SEAM_SIZE,
    # Window-boundary properties run on 1-, 8- and 16-page chunks.
    "repro.criu.pagestore.PageStore.__init__(chunk_pages)": SEAM_SIZE,
    # Ring-eviction tests fill rings of a few entries.
    "repro.obs.__init__.install_flight(capacity)": SEAM_SIZE,
    "repro.obs.timeseries.WindowedSeries.__init__(capacity)": SEAM_SIZE,
}


class Definition(NamedTuple):
    qualname: str
    name: str
    # Parameters with a default, as (position or None if keyword-only, name).
    defaults: Tuple[Tuple[Optional[int], str], ...]
    # Names a call must use to reach it: the function name, or for
    # ``__init__`` the class name.
    callees: Tuple[str, ...]


class Call(NamedTuple):
    positional: int
    keywords: frozenset
    starred: bool


def _defaults(fn: ast.FunctionDef,
              bound: bool) -> Iterator[Tuple[Optional[int], str]]:
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    skip = 1 if bound else 0
    for index in range(first, len(positional)):
        yield index - skip, positional[index].arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _is_static(fn: ast.FunctionDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "staticmethod"
               for d in fn.decorator_list)


def definitions(package: pathlib.Path) -> List[Definition]:
    """Every non-dunder definition under ``package``, plus each ``__init__``."""
    found: List[Definition] = []

    def walk(node: ast.AST, prefix: str, cls: str = "") -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                found.append(Definition(prefix + child.name, child.name, (), ()))
                walk(child, f"{prefix}{child.name}.", child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                dunder = name.startswith("__") and name.endswith("__")
                bound = bool(cls) and not _is_static(child)
                if name == "__init__" and cls:
                    found.append(Definition(prefix + name, name,
                                            tuple(_defaults(child, bound)),
                                            (cls,)))
                elif not dunder:
                    found.append(Definition(prefix + name, name,
                                            tuple(_defaults(child, bound)),
                                            (name,)))
                walk(child, f"{prefix}{name}.")
            else:
                walk(child, prefix, cls)

    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package.parent)
                          .with_suffix("").parts)
        walk(ast.parse(path.read_text(encoding="utf-8")), f"{module}.")
    return found


def caller_files(root: pathlib.Path) -> List[pathlib.Path]:
    """Python files of the program itself: no ``tests`` directory."""
    return [path for directory in CALLER_DIRS
            for path in sorted((root / directory).rglob("*.py"))
            if "tests" not in path.relative_to(root).parts]


def _callee(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def calls(files: List[pathlib.Path]) -> Dict[str, List[Call]]:
    """Callee name -> every call of that name in ``files``."""
    found: Dict[str, List[Call]] = collections.defaultdict(list)

    def record(names: List[str], node: ast.Call) -> None:
        starred = (any(isinstance(a, ast.Starred) for a in node.args)
                   or any(k.arg is None for k in node.keywords))
        call = Call(len(node.args),
                    frozenset(k.arg for k in node.keywords if k.arg), starred)
        for name in names:
            found[name].append(call)

    def walk(node: ast.AST, cls: str, bases: List[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, child.name,
                     [_callee(b) for b in child.bases if _callee(b)])
                continue
            if isinstance(child, ast.Call):
                name = _callee(child.func)
                names = [name]
                if name == "cls" and cls:
                    names.append(cls)
                if (name == "__init__" and isinstance(child.func, ast.Attribute)
                        and isinstance(child.func.value, ast.Call)
                        and _callee(child.func.value.func) == "super"):
                    names = bases
                record(names, child)
            walk(child, cls, bases)

    for path in files:
        walk(ast.parse(path.read_text(encoding="utf-8")), "", [])
    return found


def _passes(call: Call, position: Optional[int], param: str) -> bool:
    if call.starred or param in call.keywords:
        return True
    return position is not None and position < call.positional


def _is_prose(node: ast.AST) -> bool:
    """A bare string statement (docstring) or an ``__all__`` listing."""
    if isinstance(node, ast.Expr):
        return (isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str))
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, (ast.AugAssign,
                                                       ast.AnnAssign))
               else [])
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def references(node: ast.AST) -> Iterator[str]:
    """Every identifier ``node``'s code refers to, prose left out."""
    for child in ast.iter_child_nodes(node):
        if _is_prose(child):
            continue
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.alias):
            yield from IDENTIFIER.findall(f"{child.name} {child.asname}")
        elif isinstance(child, ast.ImportFrom):
            yield from IDENTIFIER.findall(child.module or "")
        elif isinstance(child, ast.keyword) and child.arg:
            yield child.arg
        elif (isinstance(child, ast.Constant)
              and isinstance(child.value, str)):
            yield from IDENTIFIER.findall(child.value)
        yield from references(child)


def unreached(root: pathlib.Path) -> Tuple[List[str], List[str]]:
    """(definitions, ``definition(param)``s) no caller file reaches."""
    defs = definitions(root / "src" / "repro")
    files = caller_files(root)
    used = set()
    for path in files:
        used.update(references(ast.parse(path.read_text(encoding="utf-8"))))
    dead = sorted(d.qualname for d in defs
                  if d.name != "__init__" and d.name not in used)
    skip = set(dead)  # their parameters go with them
    by_callee = calls(files)
    params = []
    for d in defs:
        if d.qualname in skip:
            continue
        made = [c for callee in d.callees for c in by_callee.get(callee, ())]
        for position, param in d.defaults:
            if not any(_passes(c, position, param) for c in made):
                params.append(f"{d.qualname}({param})")
    return dead, sorted(params)


def problems(root: pathlib.Path, allowed: Dict[str, str]) -> List[str]:
    """Every unreached name not allowed, bad reason and stale entry."""
    dead, params = unreached(root)
    hits = set(dead) | set(params)
    out = [f"unreached: {name}" for name in dead + params
           if name not in allowed]
    for name, reason in sorted(allowed.items()):
        if reason not in REASONS:
            out.append(f"reason not in REASONS: {name}: {reason!r}")
        if name not in hits:
            out.append(f"stale allow-list entry (gone or reached): {name}")
    return out


def test_scan_sees_the_package():
    qualnames = {d.qualname for d in definitions(ROOT / "src" / "repro")}
    assert "repro.faas.platform.FaaSPlatform" in qualnames
    assert "repro.faas.platform.FaaSPlatform.invoke" in qualnames
    assert "repro.faas.platform.FaaSPlatform.__init__" in qualnames


def test_every_definition_and_parameter_is_reached():
    found = problems(ROOT, ALLOWED)
    assert not found, (
        f"{len(found)} reachability problem(s); delete, wire up, or "
        "allow-list with a reason from REASONS:\n  " + "\n  ".join(found))


# -- the checker on a synthetic tree ----------------------------------------

def _tree(tmp_path: pathlib.Path, files: Dict[str, str]) -> pathlib.Path:
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return tmp_path


LIB = '''
def used(a, flag=False, *, mode="x"):
    return a

def only_tested():
    return 1

class Thing:
    def __init__(self, size=1, clock=None):
        self.size = size
'''


def test_checker_flags_a_definition_only_tests_call(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/lib.py": LIB,
        "src/repro/main.py": "from repro.lib import used, Thing\n"
                             "used(1, True, mode='y')\nThing(2, clock=3)\n",
        "tests/test_lib.py": "from repro.lib import only_tested\n"
                             "only_tested()\n",
        "perfbench/tests/test_more.py": "only_tested()\n",
    })
    dead, params = unreached(root)
    assert dead == ["repro.lib.only_tested"]
    assert params == []


def test_checker_flags_a_keyword_only_tests_pass(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/lib.py": LIB,
        "examples/demo.py": "used(1)\nThing()\n",
        "tests/test_lib.py": "used(1, flag=True, mode='z')\n"
                             "Thing(size=2, clock=1)\nonly_tested()\n",
    })
    _, params = unreached(root)
    assert params == ["repro.lib.Thing.__init__(clock)",
                      "repro.lib.Thing.__init__(size)",
                      "repro.lib.used(flag)", "repro.lib.used(mode)"]


def test_checker_counts_a_positional_pass(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/lib.py": LIB,
        "benchmarks/bench.py": "used(1, True)\nThing(4)\nonly_tested()\n",
    })
    _, params = unreached(root)
    # ``self`` is not a position: ``Thing(4)`` passes ``size``.
    assert params == ["repro.lib.Thing.__init__(clock)",
                      "repro.lib.used(mode)"]


def test_checker_counts_star_args_as_passing_everything(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/lib.py": LIB + '''
class Sub(Thing):
    def __init__(self, **kw):
        super().__init__(**kw)
''',
        "perfbench/run.py": "opts = {}\nused(*opts)\nSub()\nonly_tested()\n",
    })
    _, params = unreached(root)
    assert params == []


def test_checker_rejects_a_reason_outside_the_fixed_set(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/lib.py": LIB,
        "src/repro/main.py": "used(1, True, mode='y')\nThing(2, clock=3)\n",
    })
    assert problems(root, {"repro.lib.only_tested": ORACLE}) == []
    assert problems(root, {"repro.lib.only_tested": "handy in tests"}) == [
        "reason not in REASONS: repro.lib.only_tested: 'handy in tests'"]


def test_checker_rejects_a_stale_allow_list_entry(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/lib.py": LIB,
        "src/repro/main.py": "used(1, True, mode='y')\nThing(2, clock=3)\n"
                             "only_tested()\n",
    })
    assert problems(root, {
        "repro.lib.only_tested": ORACLE,
        "repro.lib.gone": SEAM_CLOCK,
        "repro.lib.Thing.__init__(clock)": SEAM_CLOCK,
    }) == [
        "stale allow-list entry (gone or reached): "
        "repro.lib.Thing.__init__(clock)",
        "stale allow-list entry (gone or reached): repro.lib.gone",
        "stale allow-list entry (gone or reached): repro.lib.only_tested",
    ]


def test_checker_does_not_count_a_definitions_own_line(tmp_path):
    root = _tree(tmp_path, {"src/repro/lib.py": LIB})
    dead, _ = unreached(root)
    assert dead == ["repro.lib.Thing", "repro.lib.only_tested",
                    "repro.lib.used"]


def test_checker_counts_a_name_reached_only_through_a_string(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/lib.py": LIB,
        "src/repro/main.py": "import repro.lib as lib\n"
                             "used(1, True, mode='y')\nThing(2, clock=3)\n"
                             "getattr(lib, 'only_tested')()\n",
    })
    dead, params = unreached(root)
    assert dead == []
    assert params == []


LIVE = "used(1, True, mode='y')\nThing(2, clock=3)\n"


@pytest.mark.parametrize("prose", [
    '"""Calls only_tested() in its docstring."""\n',
    'def main():\n    """only_tested() again."""\n\n\nmain()\n',
    '# only_tested()\n',
    '__all__ = ["only_tested"]\n',
    '__all__: list = []\n__all__ += ["only_tested"]\n',
], ids=["module-docstring", "function-docstring", "comment", "all",
        "all-extended"])
def test_checker_flags_a_name_found_only_in_prose(tmp_path, prose):
    root = _tree(tmp_path, {
        "src/repro/lib.py": LIB,
        "src/repro/main.py": prose + LIVE,
    })
    dead, _ = unreached(root)
    assert dead == ["repro.lib.only_tested"]


@pytest.mark.parametrize("code", [
    "import repro.lib as lib\nlib.only_tested()\n",
    "from repro.lib import only_tested as run\nrun()\n",
    "print(f\"{only_tested()!r:>8}\")\n",
    "dict(only_tested=1)\n",
], ids=["attribute", "import", "f-string", "keyword"])
def test_checker_counts_each_kind_of_code_reference(tmp_path, code):
    root = _tree(tmp_path, {
        "src/repro/lib.py": LIB,
        "src/repro/main.py": code + LIVE,
    })
    dead, _ = unreached(root)
    assert dead == []


@pytest.mark.parametrize("caller", [
    "tests/test_lib.py",
    "src/repro/tests/test_lib.py",
    "examples/tests/test_lib.py",
    "scripts/run.py",
])
def test_checker_ignores_files_outside_the_program(tmp_path, caller):
    root = _tree(tmp_path, {
        "src/repro/lib.py": LIB,
        "src/repro/main.py": "used(1, True, mode='y')\nThing(2, clock=3)\n",
        caller: "only_tested()\nused(1, flag=True)\n",
    })
    dead, _ = unreached(root)
    assert dead == ["repro.lib.only_tested"]


def test_checker_does_not_count_a_position_for_a_keyword_only(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/lib.py": LIB,
        "src/repro/main.py": "used(1, True, 'y')\nThing(2, 3)\n"
                             "only_tested()\n",
    })
    _, params = unreached(root)
    assert params == ["repro.lib.used(mode)"]


def test_checker_counts_cls_calls_inside_the_class(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/lib.py": LIB + '''
class Made:
    def __init__(self, size=1):
        self.size = size

    @classmethod
    def big(cls):
        return cls(size=100)
''',
        "src/repro/main.py": "used(1, True, mode='y')\nThing(2, clock=3)\n"
                             "only_tested()\nMade.big()\n",
    })
    _, params = unreached(root)
    assert params == []


def test_checker_counts_super_init_in_a_direct_subclass(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/lib.py": LIB + '''
class Sub(Thing):
    def __init__(self):
        super().__init__(3, clock=None)
''',
        "src/repro/main.py": "used(1, True, mode='y')\nSub()\n"
                             "only_tested()\n",
    })
    dead, params = unreached(root)
    assert dead == []
    assert params == []


def test_checker_shifts_positions_past_self_but_not_for_staticmethods(
        tmp_path):
    root = _tree(tmp_path, {
        "src/repro/lib.py": '''
class Box:
    @staticmethod
    def pick(a, b=2):
        return a + b

    def go(self, b=2):
        return b

    def stay(self, b=2):
        return b
''',
        "src/repro/main.py": "Box.pick(1, 5)\nBox().go(5)\nBox().stay()\n",
    })
    dead, params = unreached(root)
    assert dead == []
    assert params == ["repro.lib.Box.stay(b)"]


def test_checker_names_nested_definitions_and_skips_dunders(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/lib.py": '''
def outer():
    def inner(x=1):
        return x
    return 0

class Shown:
    def __repr__(self, depth=0):
        return "Shown"
''',
        "src/repro/main.py": "outer()\nrepr(Shown())\n",
    })
    dead, params = unreached(root)
    assert dead == ["repro.lib.outer.inner"]
    assert params == []


def test_checker_drops_the_parameters_of_a_dead_definition(tmp_path):
    root = _tree(tmp_path, {
        "src/repro/lib.py": "def lonely(x=1, *, y=2):\n    return x\n",
    })
    dead, params = unreached(root)
    assert dead == ["repro.lib.lonely"]
    assert params == []
