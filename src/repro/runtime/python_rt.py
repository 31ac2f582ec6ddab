"""CPython runtime model (paper §7 future work).

The paper only measures the JVM and names CPython as a runtime to
evaluate next. This model reuses the same mechanics with
interpreter-appropriate parameters: a much cheaper native bootstrap, a
module-import cost structure instead of classloading/JIT, and a smaller
base footprint. The constants are engineering estimates, *not* fits to
published numbers — they exist so the prebaking pipeline, benchmarks
and ablations can exercise a second runtime end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.osproc.kernel import Kernel
from repro.osproc.memory import VMAKind
from repro.osproc.process import Process
from repro.runtime.base import ManagedRuntime, Request, RuntimeError_

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.functions.base import FunctionApp


@dataclass(frozen=True)
class CPythonConfig:
    """Tunables for the CPython runtime model (projection constants)."""

    base_rss_mib: float = 7.0
    rts_ms: float = 22.0                  # interpreter boot to first bytecode
    import_per_module_ms: float = 0.35    # find + compile + exec a module
    import_per_kib_ms: float = 0.012      # source read/parse per KiB
    import_io_per_kib_ms: float = 0.004   # extra when source pages are cold


class CPythonRuntime(ManagedRuntime):
    """A CPython interpreter hosting a function behind an HTTP server."""

    kind = "python"

    def __init__(self, kernel: Kernel, process: Process) -> None:
        super().__init__(kernel, process)
        self.config = CPythonConfig()
        self.rts_ms = self.config.rts_ms
        self.imported_modules = 0
        self.source_path = ""

    def _map_base_memory(self) -> None:
        space = self.process.address_space
        libpython = self.kernel.fs.ensure("/usr/lib/libpython3.so", size=6 * 1024 * 1024)
        text = space.mmap(length=3 * 1024 * 1024, kind=VMAKind.CODE, prot="r-x",
                          file_path=libpython.path, label="libpython-text")
        text.touch_range(0, text.page_count, content_tag="libpython")
        space.grow_anon("py-objects", self.config.base_rss_mib - 3.0,
                        content_tag="pyobjects")

    def _app_init(self, app: "FunctionApp") -> None:
        kernel = self.kernel
        self.source_path = app.ensure_artifacts(kernel)
        source = kernel.fs.lookup(self.source_path)
        self.process.open_fd(source, flags="r")
        sock = kernel.fs.ensure(f"socket:[{self.process.pid}]", size=0)
        sock.is_socket = True
        self.process.open_fd(sock, flags="rw")
        app.init(self)
        duration = kernel.costs.jitter(
            app.profile.appinit_vanilla_ms, kernel.streams, "python.appinit"
        )
        kernel.clock.advance(duration)
        self._grow_rss_to(app.profile.snapshot_ready_mib)

    def _grow_rss_to(self, target_mib: float) -> None:
        delta = target_mib - self.process.rss_mib
        if delta > 0:
            self.process.address_space.grow_anon(
                f"py-heap-{len(self.process.address_space.vmas)}", delta,
                content_tag="pyobjects",
            )

    def _before_request(self, request: Request) -> None:
        app = self.app
        if app is None:
            raise RuntimeError_("no application loaded")
        if app.classes and self.imported_modules < len(app.classes):
            source = self.kernel.fs.lookup(self.source_path)
            warmth = self.kernel.page_cache.warmth(source)
            cfg = self.config
            cost = 0.0
            for size_kib in app.classes.sizes[self.imported_modules:]:
                cost += cfg.import_per_module_ms
                cost += size_kib * (
                    cfg.import_per_kib_ms + cfg.import_io_per_kib_ms * (1.0 - warmth)
                )
            self.kernel.clock.advance(
                self.kernel.costs.jitter(cost, self.kernel.streams, "python.import")
            )
            self.kernel.page_cache.warm(source, fraction=1.0)
            self.imported_modules = len(app.classes)
        if self.requests_served == 0:
            self._grow_rss_to(app.profile.snapshot_warm_mib)

    # -- checkpoint state ---------------------------------------------------------

    def _extra_state(self):
        return {"source_path": self.source_path,
                "imported_modules": self.imported_modules}

    def _apply_extra_state(self, extra) -> None:
        self.source_path = extra.get("source_path", "")
        self.imported_modules = extra.get("imported_modules", 0)
