"""Tests for the JVM runtime model."""

import pytest

from repro.functions import make_app, small_function
from repro.runtime.base import Request, RuntimeError_
from repro.runtime.jvm import JVMRuntime
from repro.sim.costmodel import DEFAULT_COST_MODEL


def launch(kernel, app=None, boot=True, load=True):
    kernel.fs.ensure("/opt/jvm/bin/java", size=128 * 1024)
    proc = kernel.clone(kernel.init_process, comm="java")
    kernel.execve(proc, "/opt/jvm/bin/java")
    runtime = JVMRuntime(kernel, proc)
    if boot:
        runtime.boot()
    if load:
        runtime.load_application(app or make_app("noop"))
    return runtime


class TestLifecycle:
    def test_boot_charges_rts(self, quiet_kernel):
        before = quiet_kernel.clock.now
        runtime = launch(quiet_kernel, load=False)
        elapsed = quiet_kernel.clock.now - before
        # clone + exec + rts
        expected = (DEFAULT_COST_MODEL.clone_ms + DEFAULT_COST_MODEL.exec_ms
                    + DEFAULT_COST_MODEL.jvm_rts_ms)
        assert elapsed == pytest.approx(expected)
        assert runtime.booted and not runtime.ready

    def test_double_boot_rejected(self, kernel):
        runtime = launch(kernel, load=False)
        with pytest.raises(RuntimeError_):
            runtime.boot()

    def test_load_before_boot_rejected(self, kernel):
        kernel.fs.ensure("/opt/jvm/bin/java", size=1)
        proc = kernel.clone(kernel.init_process)
        kernel.execve(proc, "/opt/jvm/bin/java")
        runtime = JVMRuntime(kernel, proc)
        with pytest.raises(RuntimeError_, match="boot"):
            runtime.load_application(make_app("noop"))

    def test_double_load_rejected(self, kernel):
        runtime = launch(kernel)
        with pytest.raises(RuntimeError_, match="already loaded"):
            runtime.load_application(make_app("noop"))

    def test_ready_probe_emitted(self, kernel):
        seen = []
        kernel.probes.on_enter("runtime.ready", lambda r: seen.append(r.detail))
        launch(kernel)
        assert seen == ["noop"]

    def test_handle_before_ready_rejected(self, kernel):
        runtime = launch(kernel, load=False)
        with pytest.raises(RuntimeError_):
            runtime.handle(Request())

    def test_dead_process_rejected(self, kernel):
        runtime = launch(kernel)
        kernel.kill(runtime.process.pid)
        with pytest.raises(RuntimeError_):
            runtime.handle(Request())


class TestMemoryFootprint:
    def test_base_rss_near_13mib(self, kernel):
        runtime = launch(kernel, app=make_app("noop"))
        assert runtime.process.rss_mib == pytest.approx(13.0, abs=0.5)

    def test_resizer_grows_to_paper_footprint(self, kernel):
        runtime = launch(kernel, app=make_app("image-resizer"))
        assert runtime.process.rss_mib == pytest.approx(99.2, abs=0.5)

    def test_grow_heap_extends_past_arena(self, kernel):
        runtime = launch(kernel)
        runtime.grow_heap(100.0)  # beyond the 24 MiB reserved arena
        assert runtime.process.rss_mib > 100.0

    def test_open_fds_include_jar_and_socket(self, kernel):
        runtime = launch(kernel)
        paths = [d.file.path for d in runtime.process.open_files()]
        assert any(p.endswith("function.jar") for p in paths)
        assert any(p.startswith("socket:") for p in paths)


class TestClassLoading:
    def test_first_request_loads_all_classes(self, kernel):
        app = small_function()
        runtime = launch(kernel, app=app)
        assert runtime.loaded_classes == 0
        runtime.handle(Request())
        assert runtime.loaded_classes == len(app.classes)

    def test_second_request_loads_nothing_more(self, kernel):
        app = small_function()
        runtime = launch(kernel, app=app)
        runtime.handle(Request())
        t0 = kernel.clock.now
        runtime.handle(Request())
        # Second request only pays service time (well under class load).
        assert kernel.clock.now - t0 < 5.0

    def test_class_load_grows_metaspace(self, kernel):
        app = small_function()
        runtime = launch(kernel, app=app)
        rss_before = runtime.process.rss_mib
        runtime.handle(Request())
        assert runtime.process.rss_mib - rss_before == pytest.approx(2.8, abs=0.3)

    def test_cold_load_cost_matches_model(self, quiet_kernel):
        app = small_function()
        runtime = launch(quiet_kernel, app=app)
        t0 = quiet_kernel.clock.now
        runtime.handle(Request())
        elapsed = quiet_kernel.clock.now - t0
        expected = DEFAULT_COST_MODEL.cold_load_cost(374, 2.8 * 1024)
        # elapsed = class load + service time (0.5ms nominal)
        assert elapsed == pytest.approx(expected + app.profile.service_ms, rel=0.02)

    def test_warm_page_cache_reduces_load_cost(self, quiet_kernel):
        app = small_function()
        runtime = launch(quiet_kernel, app=app)
        jar = quiet_kernel.fs.lookup(runtime.jar_path)
        quiet_kernel.page_cache.warm(jar, fraction=1.0)
        t0 = quiet_kernel.clock.now
        runtime.handle(Request())
        elapsed = quiet_kernel.clock.now - t0
        expected = DEFAULT_COST_MODEL.restored_load_cost(374, 2.8 * 1024)
        assert elapsed == pytest.approx(expected + app.profile.service_ms, rel=0.02)

    def test_classload_probe_emitted(self, kernel):
        seen = []
        kernel.probes.on_enter("runtime.classload", lambda r: seen.append(r.detail))
        runtime = launch(kernel, app=small_function())
        runtime.handle(Request())
        assert seen and "374" in seen[0]


class TestRequests:
    def test_response_carries_service_timing(self, kernel):
        runtime = launch(kernel)
        response = runtime.handle(Request())
        assert response.ok
        assert response.service_ms > 0

    def test_first_response_probe(self, kernel):
        seen = []
        kernel.probes.on_enter("runtime.first_response", lambda r: seen.append(r.pid))
        runtime = launch(kernel)
        runtime.handle(Request())
        runtime.handle(Request())
        assert seen == [runtime.process.pid]

    def test_requests_served_counter(self, kernel):
        runtime = launch(kernel)
        for _ in range(3):
            runtime.handle(Request())
        assert runtime.requests_served == 3
