"""Execution census: every ``def`` under ``src/repro`` runs from an entry point.

    PYTHONPATH=src python tests/census.py

``tests/test_dead_code.py`` checks that the program *names* each
definition; this script checks that one of its entry points *enters*
it. It runs every entry point at smoke size in this one process, under
``sys.setprofile`` and ``threading.setprofile``, and matches each
definition that ``test_dead_code.definitions`` lists to the code
objects that ran, by ``(file, co_qualname)``. A definition never
entered fails unless ``test_dead_code.EXECUTION_ALLOWED`` lists it with
one of the fixed ``REASONS``; an entry that names a definition that
ran, or one that is gone, fails too.

The same runs feed an *option census*. For each defaulted parameter of
the option surfaces (every ``*Config`` dataclass and the platform
knobs ``SURFACES`` names) it records the distinct values, compared by
``==``, that the parameter receives; a dataclass's generated
``__init__`` is matched by code object, and a surface instance a
module holds at top level counts too. A parameter seen at fewer than
two values is a constant in disguise and fails, unless
``test_dead_code.OPTION_ALLOWED`` lists it with one of ``REASONS``.

The entry points: every ``prebake-bench`` experiment with each output
flag, ``baseline record`` and ``compare``, the obs CLI on each kind of
artifact, the three perfbench workloads traced and untraced, the six
examples and the ``benchmarks/`` suite. What they write goes to a
temporary directory, so the checkout is left as it was found.
Processes they start (``-w`` workers, real-process children) are not
followed. Needs Python 3.11+ for ``co_qualname``; pytest does not
collect this file, and it needs no coverage package.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import os
import pathlib
import runpy
import sys
import tempfile
import threading
import time
from types import CodeType, ModuleType
from typing import Any, Callable, Dict, Iterable, List, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
if not __package__:  # run as a script
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from tests.test_dead_code import (  # noqa: E402
    EXECUTION_ALLOWED, OPTION_ALLOWED, definitions, judge)
from tests.test_doc_names import _resolve as resolve  # noqa: E402

PACKAGE = ROOT / "src" / "repro"
Ran = Set[Tuple[str, str]]

#: The option surfaces besides the ``*Config`` dataclasses: a class
#: stands for its ``__init__``.
SURFACES = (
    "repro.faas.registry.FunctionMetadata",
    "repro.faas.platform.FaaSPlatform.build",
    "repro.faas.router.FunctionRouter",
    "repro.faas.resources.ComputeNode",
    "repro.predict.policy.HistogramEwmaPolicy",
    "repro.predict.policy.OraclePolicy",
    "repro.predict.forecast.EwmaForecaster",
    "repro.core.policy.AfterWarmup",
    "repro.faults.model.FaultSpec",
    "repro.faas.pool.WarmPool",
    "repro.obs.flight.FlightRecorder",
    "repro.obs.install_flight",
)


def surfaces(package: pathlib.Path) -> List[Any]:
    """Every ``*Config`` dataclass under ``package``, then ``SURFACES``."""
    configs = [resolve(d.qualname) for d in definitions(package)
               if d.kind == "class" and d.name.endswith("Config")]
    return ([c for c in configs if dataclasses.is_dataclass(c)]
            + [resolve(name) for name in SURFACES])


def _same(a: object, b: object) -> bool:
    try:
        return bool(a == b)
    except Exception:  # an ``==`` without a truth value: not the same
        return False


class Options:
    """The distinct values each defaulted parameter of ``surfaces``
    receives, keyed ``module.Qual.name(param)`` (a class by its
    ``__init__``). Two values settle a parameter, so no more are kept."""

    def __init__(self, surfaces: Iterable[Any]) -> None:
        self.values: Dict[str, List[object]] = {}
        # code -> (key, parameter, default factory or None) per parameter
        self._params: Dict[CodeType, List[Tuple[str, str, Any]]] = {}
        self._classes: Dict[type, List[Tuple[str, str, Any]]] = {}
        for surface in surfaces:
            fn = surface.__init__ if isinstance(surface, type) else surface
            owner = (surface.__qualname__ + ".__init__"
                     if isinstance(surface, type) else fn.__qualname__)
            factories = ({f.name: f.default_factory
                          for f in dataclasses.fields(surface)}
                         if dataclasses.is_dataclass(surface) else {})
            params = []
            for name, param in inspect.signature(fn).parameters.items():
                if param.default is inspect.Parameter.empty:
                    continue
                key = f"{surface.__module__}.{owner}({name})"
                self.values[key] = []
                params.append((key, name, factories.get(name)))
            self._params[fn.__code__] = params
            if dataclasses.is_dataclass(surface):
                self._classes[surface] = params

    def _see(self, key: str, value: object, factory: Any) -> None:
        seen = self.values[key]
        if len(seen) >= 2:
            return
        if value is dataclasses._HAS_DEFAULT_FACTORY:  # type: ignore
            value = factory()
        if not any(_same(value, old) for old in seen):
            seen.append(value)

    def note(self, frame) -> None:
        """Record the arguments of a call entering a surface."""
        params = self._params.get(frame.f_code)
        if params:
            args = frame.f_locals
            for key, name, factory in params:
                self._see(key, args[name], factory)

    def note_instances(self, modules: Iterable[ModuleType]) -> None:
        """Record the fields of every surface dataclass instance a
        module holds at top level (built at import, maybe before the
        census watched calls)."""
        for module in modules:
            for value in list(vars(module).values()):
                for key, name, factory in self._classes.get(type(value), ()):
                    self._see(key, getattr(value, name), factory)

    def single(self) -> List[str]:
        """Every parameter seen at fewer than two values."""
        return sorted(key for key, seen in self.values.items()
                      if len(seen) < 2)


def entered(run: Callable[[], object],
            options: "Options | None" = None) -> Tuple[Ran, object]:
    """``run``'s result, and the ``(file, qualname)`` of every code
    object entered while it ran; ``<locals>`` is dropped from nested
    names so they read as ``definitions`` spells them. ``options``,
    if given, records the surface calls."""
    codes = set()
    note = options.note if options is not None else None

    def probe(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)
            if note is not None:
                note(frame)

    threading.setprofile(probe)
    sys.setprofile(probe)
    try:
        result = run()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return ({(os.path.realpath(code.co_filename),
              code.co_qualname.replace("<locals>.", ""))
             for code in codes}, result)


def never_entered(package: pathlib.Path, ran: Ran) -> List[str]:
    """Every definition under ``package`` whose code never ran."""
    modules = {".".join(path.relative_to(package.parent)
                        .with_suffix("").parts): os.path.realpath(path)
               for path in package.rglob("*.py")}
    out = []
    for d in definitions(package):
        if d.kind != "def":  # a class body runs at import; a constant
            continue          # is no code object
        parts = d.qualname.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            path = modules.get(".".join(parts[:cut]))
            if path is not None:
                if (path, ".".join(parts[cut:])) not in ran:
                    out.append(d.qualname)
                break
    return sorted(out)


# -- the entry points -------------------------------------------------------

class _BenchResultsTo:
    """pytest plugin: point ``benchmarks/conftest.py``'s results at ``dir``."""

    def __init__(self, directory: pathlib.Path) -> None:
        self.directory = directory

    def pytest_plugin_registered(self, plugin, manager):
        path = getattr(plugin, "__file__", None) or ""
        if pathlib.Path(path).resolve() == ROOT / "benchmarks" / "conftest.py":
            plugin.RESULTS_DIR = self.directory


def _example(name: str, *argv: str) -> Callable[[], int]:
    def run() -> int:
        saved = sys.argv
        sys.argv = [name, *argv]
        try:
            runpy.run_path(str(ROOT / "examples" / name), run_name="__main__")
        finally:
            sys.argv = saved
        return 0
    return run


def _benchmarks(out: pathlib.Path) -> int:
    import pytest
    os.environ["REPRO_BENCH_REPS"] = "20"
    os.environ["REPRO_REAL_REPS"] = "3"
    out.mkdir()
    return int(pytest.main([str(ROOT / "benchmarks"), "-q",
                            "-p", "no:cacheprovider"],
                           plugins=[_BenchResultsTo(out)]))


def entry_points(tmp: pathlib.Path) -> List[Tuple[str, Callable[[], object]]]:
    """(label, call returning an exit code) for every entry point, in an
    order where each artifact is written before it is read."""
    from repro.bench import baseline, cli
    from repro.obs import cli as obs_cli
    sys.path.insert(0, str(ROOT))
    from perfbench import run as perfbench
    perfbench.OUT = tmp / "perfbench"

    def t(name: str) -> str:
        return str(tmp / name)

    def bench(*argv: str) -> Tuple[str, Callable[[], object]]:
        return "prebake-bench " + " ".join(argv), lambda: cli.main(list(argv))

    def obs(*argv: str) -> Tuple[str, Callable[[], object]]:
        return "obs.cli " + " ".join(argv), lambda: obs_cli.main(list(argv))

    runs = [bench("--list")]
    for name in ("fig3", "fig5", "fig6", "table1", "fig7", "sec5",
                 "ablation-restore", "ablation-snapshot",
                 "ablation-bake-timing", "ext-runtimes", "ext-pool",
                 "restore-sweep", "restore-pipeline"):
        runs.append(bench(name, "-r", "3"))
    runs += [
        bench("fig3", "-r", "3", "-w", "2"),
        bench("fig4", "-r", "2", "--trace-out", t("fig4.jsonl")),
        bench("trace", "-r", "1", "--trace-out", t("trace.jsonl"),
              "--flight-out", t("trace-tape.jsonl")),
        bench("chaos", "-r", "2", "--postmortem-dir", t("chaos")),
        bench("shard-chaos", "-r", "2", "--postmortem-dir", t("shard")),
        bench("incident", "-r", "2", "--postmortem-dir", t("bundles"),
              "--flight-out", t("tape.jsonl")),
        bench("profile", "-r", "3", "--flame-out", t("flame.folded"),
              "--profile-out", t("profile.json"),
              "--metrics-out", t("metrics.jsonl")),
        bench("kernel-bench", "--events", "2000",
              "--profile-out", t("kernel.json")),
        bench("fleet-study", "-r", "1", "--requests", "3000",
              "--fleet-out", t("fleet.json"), "--flame-out", t("fleet.folded")),
        bench("fleet-report", "--fleet-in", t("fleet.json"),
              "--flame-out", t("fleet-b.folded")),
        bench("prewarm", "-r", "2", "--requests", "3000",
              "--prewarm-out", t("prewarm.json")),
        obs(t("trace.jsonl")),
        obs(t("trace.jsonl"), "--tree"),
        obs(t("fig4.jsonl"), "--tree", "--trace",
            "prebake/markdown/rep0/t-0001"),
        obs("alerts", t("metrics.jsonl")),
        obs("profile", t("profile.json")),
        obs("profile", t("profile.json"), "--flame"),
        obs("postmortem", t("bundles")),
        obs("postmortem", t("bundles"), "--replay"),
        ("baseline record", lambda: baseline.main(
            ["record", "--dir", t("baselines"), "-r", "3"])),
        ("baseline compare", lambda: baseline.main(
            ["compare", "restore-sweep", "--dir", t("baselines")])),
    ]
    for workload in ("warm-paper", "cold-fleet", "prewarm-fleet"):
        for trace in ("0", "1"):
            argv = ["--workload", workload, "--seed", "1", "--seconds", "1",
                    "--trace", trace]
            runs.append(("perfbench " + " ".join(argv),
                         lambda argv=argv: perfbench.main(argv)))
    runs += [
        ("examples/quickstart.py", _example("quickstart.py")),
        ("examples/bake_farm_demo.py", _example("bake_farm_demo.py")),
        ("examples/openfaas_demo.py", _example("openfaas_demo.py")),
        ("examples/workload_study.py", _example("workload_study.py")),
        ("examples/warmup_study.py", _example("warmup_study.py", "3")),
        ("examples/real_process_demo.py",
         _example("real_process_demo.py", "2")),
        ("benchmarks/", lambda: _benchmarks(tmp / "results")),
    ]
    return runs


def _exit_status(run: Callable[[], object]) -> object:
    """``run``'s return value, or the code it passed to ``sys.exit``."""
    try:
        return run()
    except SystemExit as exc:
        return exc.code


def census(runs: Iterable[Tuple[str, Callable[[], object]]],
           log: pathlib.Path,
           options: "Options | None" = None) -> Tuple[Ran, List[str]]:
    """Everything the runs entered, and the labels of runs that failed.
    Their output goes to ``log``; ``options`` records surface calls."""
    ran: Ran = set()
    failed = []
    with open(log, "w", encoding="utf-8") as sink, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for label, run in runs:
            started = time.perf_counter()
            try:
                codes, status = entered(lambda: _exit_status(run), options)
            except Exception as exc:  # the run is reported as failed
                codes, status = set(), repr(exc)
            ran |= codes
            if status not in (0, None):
                failed.append(f"{label}: exit {status}")
            print(f"census: {label}: {time.perf_counter() - started:.1f} s",
                  file=sys.__stderr__, flush=True)
    return ran, failed


def main() -> int:
    if sys.version_info < (3, 11):
        print("census: needs Python 3.11+ (co_qualname)", file=sys.stderr)
        return 2
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        tmp_path = pathlib.Path(tmp)
        # Import-time calls (registries, tables) count: profile the imports.
        imported, (options, runs) = entered(lambda: (
            Options(surfaces(PACKAGE)), entry_points(tmp_path)))
        ran, failed = census(runs, tmp_path / "output.log", options)
        ran |= imported
        options.note_instances(
            module for name, module in list(sys.modules.items())
            if name.split(".")[0] in ("repro", "perfbench"))
        if failed:
            print((tmp_path / "output.log").read_text()[-4000:],
                  file=sys.stderr)
    found = [f"entry point failed: {f}" for f in failed]
    found += judge(never_entered(PACKAGE, ran), EXECUTION_ALLOWED,
                   "never entered")
    single = options.single()
    found += judge(single, OPTION_ALLOWED, "fewer than two values")
    print(f"census: {len(ran)} code objects entered in "
          f"{time.perf_counter() - started:.0f} s; {len(options.values)} "
          f"option parameters, {len(single)} at fewer than two values",
          file=sys.stderr)
    if found:
        print(f"{len(found)} census problem(s); delete, wire up, or "
              "allow-list in EXECUTION_ALLOWED or OPTION_ALLOWED with a "
              "reason from REASONS:\n  " + "\n  ".join(found)
              + "\nvalues seen:\n  " + "\n  ".join(
                  f"{key}: {options.values[key]!r}" for key in single),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
