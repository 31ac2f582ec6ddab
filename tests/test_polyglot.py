"""Tests for the cross-runtime workloads (§7 future work)."""

import pytest

from repro.core.manager import PrebakeManager
from repro.core.policy import AfterWarmup
from repro.core.starters import VanillaStarter
from repro.functions import (
    NodeMarkdownFunction,
    NodeNoopFunction,
    PythonMarkdownFunction,
    PythonNoopFunction,
    make_app,
)
from repro.runtime.base import Request
from repro.runtime.nodejs import NodeJSRuntime
from repro.runtime.python_rt import CPythonRuntime


class TestRegistration:
    @pytest.mark.parametrize("name,cls", [
        ("py-markdown", PythonMarkdownFunction),
        ("node-markdown", NodeMarkdownFunction),
        ("py-noop", PythonNoopFunction),
        ("node-noop", NodeNoopFunction),
    ])
    def test_registered(self, name, cls):
        assert isinstance(make_app(name), cls)


class TestVanillaStart:
    def test_python_markdown_runs_on_cpython(self, kernel):
        handle = VanillaStarter(kernel).start(PythonMarkdownFunction())
        assert isinstance(handle.runtime, CPythonRuntime)
        response = handle.invoke(Request(body="# Py"))
        assert "<h1>Py</h1>" in response.body

    def test_node_markdown_runs_on_node(self, kernel):
        handle = VanillaStarter(kernel).start(NodeMarkdownFunction())
        assert isinstance(handle.runtime, NodeJSRuntime)
        assert handle.invoke(Request(body="*x*")).ok

    def test_runtime_boot_ordering(self, quiet_kernel):
        """CPython boots fastest, Node in between, JVM slowest."""
        from dataclasses import replace

        from repro import make_world
        from repro.sim.costmodel import DEFAULT_COST_MODEL
        startups = {}
        for name in ("py-noop", "node-noop", "noop"):
            world = make_world(seed=3)
            world.kernel.costs = replace(DEFAULT_COST_MODEL, noise_sigma=0.0)
            handle = VanillaStarter(world.kernel).start(make_app(name))
            startups[name] = handle.startup_ms("ready")
        assert startups["py-noop"] < startups["node-noop"] < startups["noop"]


class TestPrebakeAcrossRuntimes:
    @pytest.mark.parametrize("name", ["py-markdown", "node-markdown"])
    def test_bake_and_restore(self, kernel, name):
        manager = PrebakeManager(kernel)
        app = make_app(name)
        report = manager.deploy(app, policy=AfterWarmup(1))
        assert report.image.runtime_state["kind"] == app.runtime_kind
        handle = manager.start_replica(app, technique="prebake",
                                       policy=AfterWarmup(1))
        assert handle.runtime.ready
        assert handle.invoke(Request(body="# r")).ok

    def test_prebake_beats_vanilla_everywhere(self, kernel):
        from repro.bench.harness import run_startup_experiment
        for name in ("py-markdown", "node-markdown"):
            vanilla = run_startup_experiment(name, "vanilla", repetitions=5,
                                             seed=4, metric="first_response")
            warm = run_startup_experiment(name, "prebake",
                                          policy=AfterWarmup(1),
                                          repetitions=5, seed=4,
                                          metric="first_response")
            assert warm.median_ms < vanilla.median_ms

    def test_restored_python_keeps_import_state(self, kernel):
        manager = PrebakeManager(kernel)
        app = make_app("py-markdown")
        manager.deploy(app, policy=AfterWarmup(1))
        handle = manager.start_replica(app, technique="prebake",
                                       policy=AfterWarmup(1))
        assert handle.runtime.imported_modules == len(app.classes)
