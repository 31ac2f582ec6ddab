"""The execution census (``tests/census.py``) on a tiny synthetic package.

The census itself runs every entry point and takes minutes; these
checks pin its matching and judging on a package small enough to build
here: a ``def`` never entered is flagged, and the allow-list rejects a
stale entry and a reason outside ``REASONS``. The option census is
checked the same way: a parameter seen at one value is flagged, two
values (by ``==``) pass, a dataclass's generated ``__init__`` and a
module-level instance count. The list of entry points is checked
without running it: it names every experiment, output flag, example
and perfbench workload, and writes only to its temporary directory.
"""

import importlib
import pathlib
import sys
import threading

import pytest

from perfbench.workloads import WORKLOADS
from repro.bench.cli import EXPERIMENTS, build_parser
from tests.census import (PACKAGE, ROOT, Options, _BenchResultsTo,
                          _exit_status, census, entered, entry_points,
                          never_entered, surfaces)
from tests.test_dead_code import ERROR_PATH, SEAM_SIZE, judge

pytestmark = pytest.mark.skipif(sys.version_info < (3, 11),
                                reason="co_qualname needs Python 3.11+")

TOY = '''
LIMIT = 3


def used():
    def inner():
        return 1
    return Box().size() + inner()


def never():
    return 0


class Box:
    def size(self):
        return LIMIT

    def unused(self):
        return -1
'''


@pytest.fixture
def toy(tmp_path, monkeypatch):
    package = tmp_path / "censustoy"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "lib.py").write_text(TOY)
    monkeypatch.syspath_prepend(str(tmp_path))
    lib = importlib.import_module("censustoy.lib")
    yield package, lib
    for name in ("censustoy.lib", "censustoy"):
        sys.modules.pop(name, None)


def test_census_flags_each_def_never_entered(toy):
    package, lib = toy
    ran, result = entered(lib.used)
    assert result == 4
    assert never_entered(package, ran) == ["censustoy.lib.Box.unused",
                                           "censustoy.lib.never"]


def test_census_allow_list_covers_a_def_never_entered(toy):
    package, lib = toy
    ran, _ = entered(lib.used)
    flagged = never_entered(package, ran)
    assert judge(flagged, {"censustoy.lib.never": ERROR_PATH,
                           "censustoy.lib.Box.unused": ERROR_PATH},
                 "never entered") == []
    assert judge(flagged, {"censustoy.lib.never": ERROR_PATH},
                 "never entered") == [
        "never entered: censustoy.lib.Box.unused"]


def test_census_rejects_a_stale_entry_and_a_foreign_reason(toy):
    package, lib = toy
    ran, _ = entered(lambda: (lib.used(), lib.never()))
    flagged = never_entered(package, ran)
    assert flagged == ["censustoy.lib.Box.unused"]
    assert judge(flagged, {
        "censustoy.lib.Box.unused": "handy in tests",
        "censustoy.lib.never": ERROR_PATH,
    }, "never entered") == [
        "reason not in REASONS: censustoy.lib.Box.unused: 'handy in tests'",
        "stale allow-list entry (gone or reached): censustoy.lib.never",
    ]


def test_census_counts_a_def_entered_on_another_thread(toy):
    package, lib = toy

    def run():
        worker = threading.Thread(target=lib.never)
        worker.start()
        worker.join()

    ran, _ = entered(run)
    assert "censustoy.lib.never" not in never_entered(package, ran)


def test_census_matches_a_def_by_its_file_not_its_name(toy):
    package, lib = toy
    (package / "other.py").write_text("def never():\n    return 1\n")
    other = importlib.import_module("censustoy.other")
    try:
        ran, _ = entered(other.never)
    finally:
        sys.modules.pop("censustoy.other", None)
    assert "censustoy.lib.never" in never_entered(package, ran)
    assert "censustoy.other.never" not in never_entered(package, ran)


def test_census_removes_its_hooks_when_a_run_raises():
    with pytest.raises(ZeroDivisionError):
        entered(lambda: 1 / 0)
    assert sys.getprofile() is None
    assert threading.getprofile() is None


def test_census_reads_an_exit_code_from_a_return_or_sys_exit():
    assert _exit_status(lambda: 0) == 0
    assert _exit_status(lambda: sys.exit(3)) == 3
    assert _exit_status(lambda: sys.exit()) is None


def test_census_reports_each_failed_run_and_logs_its_output(tmp_path):
    def fails():
        print("fails: said something")
        return 2

    log = tmp_path / "output.log"
    ran, failed = census([("passes", lambda: None), ("fails", fails),
                          ("raises", lambda: 1 / 0)], log)
    assert failed == ["fails: exit 2",
                      "raises: exit ZeroDivisionError('division by zero')"]
    assert "fails: said something" in log.read_text()
    assert any(qualname == "test_census_reports_each_failed_run_and_logs_"
               "its_output.fails" for _, qualname in ran)


# -- the option census --------------------------------------------------------

OPTS = '''
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ToyConfig:
    size: int = 16
    mode: str = "a"
    tags: list = field(default_factory=list)


def build(name, retries=3, *, width=1.0):
    return name
'''

PRESET = '''
from censustoy.opts import ToyConfig

PRESET = ToyConfig(mode="b")
'''


@pytest.fixture
def opts(toy):
    package, _ = toy
    (package / "opts.py").write_text(OPTS)
    (package / "preset.py").write_text(PRESET)
    module = importlib.import_module("censustoy.opts")
    yield module, Options([module.ToyConfig, module.build])
    for name in ("censustoy.opts", "censustoy.preset"):
        sys.modules.pop(name, None)


def test_option_census_flags_a_parameter_seen_at_one_value(opts):
    module, options = opts
    entered(lambda: module.build("x", width=2.0), options)
    assert options.values["censustoy.opts.build(retries)"] == [3]
    assert "censustoy.opts.build(retries)" in options.single()
    assert options.values["censustoy.opts.build(width)"] == [2.0]


def test_option_census_passes_a_parameter_seen_at_two_values(opts):
    module, options = opts
    entered(lambda: (module.build("x"), module.build("y", retries=1)),
            options)
    assert options.values["censustoy.opts.build(retries)"] == [3, 1]
    assert "censustoy.opts.build(retries)" not in options.single()


def test_option_census_counts_values_equal_by_eq_as_one(opts):
    module, options = opts
    entered(lambda: (module.build("x", retries=16),
                     module.build("x", retries=16.0)), options)
    assert options.values["censustoy.opts.build(retries)"] == [16]
    assert "censustoy.opts.build(retries)" in options.single()


def test_option_census_matches_a_dataclass_generated_init(opts):
    module, options = opts
    entered(lambda: (module.ToyConfig(size=8), module.ToyConfig()), options)
    assert options.values["censustoy.opts.ToyConfig.__init__(size)"] == [
        8, 16]
    # A default factory counts as the value it makes.
    assert options.values["censustoy.opts.ToyConfig.__init__(tags)"] == [[]]
    assert options.single() == [
        "censustoy.opts.ToyConfig.__init__(mode)",
        "censustoy.opts.ToyConfig.__init__(tags)",
        "censustoy.opts.build(retries)",
        "censustoy.opts.build(width)",
    ]


def test_option_census_counts_a_module_level_instance(opts):
    module, options = opts
    # Built at import, before the census watches any call.
    preset = importlib.import_module("censustoy.preset")
    entered(module.ToyConfig, options)
    assert options.values["censustoy.opts.ToyConfig.__init__(mode)"] == ["a"]
    options.note_instances([preset])
    assert options.values["censustoy.opts.ToyConfig.__init__(mode)"] == [
        "a", "b"]
    assert "censustoy.opts.ToyConfig.__init__(mode)" not in options.single()


def test_option_census_rejects_a_stale_allow_list_entry(opts):
    module, options = opts
    entered(lambda: (module.build("x"), module.build("y", retries=1)),
            options)
    single = options.single()
    assert judge(single, {
        "censustoy.opts.build(width)": SEAM_SIZE,
        "censustoy.opts.build(retries)": SEAM_SIZE,
    }, "fewer than two values") == [
        "fewer than two values: censustoy.opts.ToyConfig.__init__(mode)",
        "fewer than two values: censustoy.opts.ToyConfig.__init__(size)",
        "fewer than two values: censustoy.opts.ToyConfig.__init__(tags)",
        "stale allow-list entry (gone or reached): "
        "censustoy.opts.build(retries)",
    ]


def test_option_surfaces_are_the_config_dataclasses_and_the_named_knobs():
    from repro.faas.platform import FaaSPlatform, PlatformConfig
    from repro.predict.policy import PrewarmConfig
    from repro.runtime.jvm import JVMConfig
    found = surfaces(PACKAGE)
    assert PlatformConfig in found and PrewarmConfig in found
    assert FaaSPlatform.build in found
    # A class of constants is no dataclass: nothing to set.
    assert JVMConfig not in found


# -- the list of entry points -----------------------------------------------

@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(temp dir, labels, perfbench's output dir) of ``entry_points``,
    which is built but not run; the globals it sets are put back."""
    perfbench = importlib.import_module("perfbench.run")
    saved_out, saved_path = perfbench.OUT, list(sys.path)
    tmp = tmp_path_factory.mktemp("census")
    try:
        labels = [label for label, _ in entry_points(tmp)]
        yield tmp, labels, perfbench.OUT
    finally:
        perfbench.OUT = saved_out
        sys.path[:] = saved_path


def _bench_args(labels):
    parser = build_parser()
    return [parser.parse_args(label.split()[1:]) for label in labels
            if label.startswith("prebake-bench ")]


OUTPUT_FLAGS = [action.dest for action in build_parser()._actions
                if action.metavar in ("PATH", "DIR")]


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_census_runs_each_experiment(runs, experiment):
    _, labels, _ = runs
    assert experiment in {args.experiment for args in _bench_args(labels)}


@pytest.mark.parametrize("flag", OUTPUT_FLAGS)
def test_census_passes_each_output_flag_a_temp_path(runs, flag):
    tmp, labels, _ = runs
    paths = [getattr(args, flag) for args in _bench_args(labels)
             if getattr(args, flag) is not None]
    assert paths
    assert all(pathlib.Path(path).parent == tmp for path in paths)


def test_census_runs_the_harness_with_workers(runs):
    _, labels, _ = runs
    assert any(args.workers == 2 for args in _bench_args(labels))


@pytest.mark.parametrize("example", sorted(
    path.name for path in (ROOT / "examples").glob("*.py")))
def test_census_runs_each_example(runs, example):
    _, labels, _ = runs
    assert f"examples/{example}" in labels


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_census_runs_each_perfbench_workload_traced_and_untraced(
        runs, workload):
    _, labels, _ = runs
    for trace in ("0", "1"):
        assert (f"perfbench --workload {workload} --seed 1 --seconds 1 "
                f"--trace {trace}") in labels


def test_census_points_perfbench_output_at_its_temp_dir(runs):
    tmp, _, out = runs
    assert out.parent == tmp


OBS_COMMANDS = ("alerts", "profile", "postmortem")


@pytest.mark.parametrize("command", ("trace",) + OBS_COMMANDS)
def test_census_reads_each_obs_artifact_after_writing_it(runs, command):
    _, labels, _ = runs
    written, read = set(), []
    for label in labels:
        words = label.split()
        if words[0] == "prebake-bench":
            args = build_parser().parse_args(words[1:])
            written.update(getattr(args, flag) for flag in OUTPUT_FLAGS)
        elif words[0] == "obs.cli":
            # The bare form reads a trace; the others name their command.
            named = words[1] in OBS_COMMANDS
            if (words[1] if named else "trace") == command:
                artifact = words[2] if named else words[1]
                assert artifact in written, label
                read.append(artifact)
    assert read


def test_census_records_a_baseline_before_comparing_it(runs):
    _, labels, _ = runs
    assert labels.index("baseline compare") > labels.index("baseline record")


def test_census_sends_benchmark_results_to_its_temp_dir(runs, tmp_path):
    _, labels, _ = runs
    assert "benchmarks/" in labels

    class Conftest:
        __file__ = str(ROOT / "benchmarks" / "conftest.py")
        RESULTS_DIR = ROOT / "benchmarks" / "results"

    class Other:
        __file__ = str(ROOT / "tests" / "conftest.py")
        RESULTS_DIR = None

    plugin = _BenchResultsTo(tmp_path)
    plugin.pytest_plugin_registered(Conftest, None)
    plugin.pytest_plugin_registered(Other, None)
    assert Conftest.RESULTS_DIR == tmp_path
    assert Other.RESULTS_DIR is None
