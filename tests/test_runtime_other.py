"""Tests for the CPython and Node.js runtime models (paper §7)."""


from repro.functions.base import FunctionApp
from repro.runtime.base import Request
from repro.runtime.nodejs import NodeJSRuntime
from repro.runtime.python_rt import CPythonRuntime
from repro.sim.costmodel import synthetic_costs
from repro.runtime.classes import generate_classes


class PyApp(FunctionApp):
    runtime_kind = "python"

    def __init__(self, modules: int = 0, kib: float = 0.0):
        profile = synthetic_costs("py-fn", classes=max(modules, 1),
                                  class_kib=max(kib, 1.0), base_rss_mib=7.0)
        super().__init__(profile)
        self.classes = generate_classes(modules, kib) if modules else []

    def execute(self, runtime, request):
        return "py-ok", 200


class NodeApp(FunctionApp):
    runtime_kind = "nodejs"

    def __init__(self, modules: int = 0, kib: float = 0.0):
        profile = synthetic_costs("node-fn", classes=max(modules, 1),
                                  class_kib=max(kib, 1.0), base_rss_mib=10.0)
        super().__init__(profile)
        self.classes = generate_classes(modules, kib) if modules else []

    def execute(self, runtime, request):
        return "node-ok", 200


def launch(kernel, runtime_cls, app, binary):
    kernel.fs.ensure(binary, size=64 * 1024)
    proc = kernel.clone(kernel.init_process)
    kernel.execve(proc, binary)
    runtime = runtime_cls(kernel, proc)
    runtime.boot()
    runtime.load_application(app)
    return runtime


class TestCPythonRuntime:
    def test_boot_cheaper_than_jvm(self, quiet_kernel):
        t0 = quiet_kernel.clock.now
        launch(quiet_kernel, CPythonRuntime, PyApp(), "/usr/bin/python3")
        elapsed = quiet_kernel.clock.now - t0
        assert elapsed < 40.0  # vs ~77ms for the JVM path

    def test_handles_requests(self, kernel):
        runtime = launch(kernel, CPythonRuntime, PyApp(), "/usr/bin/python3")
        response = runtime.handle(Request())
        assert response.ok and response.body == "py-ok"

    def test_imports_on_first_request(self, kernel):
        app = PyApp(modules=50, kib=200.0)
        runtime = launch(kernel, CPythonRuntime, app, "/usr/bin/python3")
        assert runtime.imported_modules == 0
        runtime.handle(Request())
        assert runtime.imported_modules == 50

    def test_snapshot_state_roundtrip_fields(self, kernel):
        app = PyApp(modules=10, kib=50.0)
        runtime = launch(kernel, CPythonRuntime, app, "/usr/bin/python3")
        runtime.handle(Request())
        state = runtime.snapshot_state()
        assert state["kind"] == "python"
        assert state["extra"]["imported_modules"] == 10
        assert state["extra"]["source_path"]


class TestNodeJSRuntime:
    def test_boot_between_python_and_jvm(self, quiet_kernel):
        t0 = quiet_kernel.clock.now
        launch(quiet_kernel, NodeJSRuntime, NodeApp(), "/usr/bin/node")
        elapsed = quiet_kernel.clock.now - t0
        assert 40.0 < elapsed < 70.0

    def test_handles_requests(self, kernel):
        runtime = launch(kernel, NodeJSRuntime, NodeApp(), "/usr/bin/node")
        assert runtime.handle(Request()).body == "node-ok"

    def test_requires_on_first_request(self, kernel):
        app = NodeApp(modules=30, kib=120.0)
        runtime = launch(kernel, NodeJSRuntime, app, "/usr/bin/node")
        runtime.handle(Request())
        assert runtime.required_modules == 30

    def test_warm_bundle_cheaper(self, quiet_kernel):
        app = NodeApp(modules=100, kib=2000.0)
        runtime = launch(quiet_kernel, NodeJSRuntime, app, "/usr/bin/node")
        bundle = quiet_kernel.fs.lookup(runtime.bundle_path)
        quiet_kernel.page_cache.warm(bundle)
        t0 = quiet_kernel.clock.now
        runtime.handle(Request())
        warm_elapsed = quiet_kernel.clock.now - t0

        # Fresh cold run for comparison.
        from repro import make_world
        from repro.sim.costmodel import DEFAULT_COST_MODEL
        world = make_world(seed=5, costs=DEFAULT_COST_MODEL.with_noise_sigma(0.0))
        app2 = NodeApp(modules=100, kib=2000.0)
        runtime2 = launch(world.kernel, NodeJSRuntime, app2, "/usr/bin/node")
        t0 = world.kernel.clock.now
        runtime2.handle(Request())
        cold_elapsed = world.kernel.clock.now - t0
        assert warm_elapsed < cold_elapsed
