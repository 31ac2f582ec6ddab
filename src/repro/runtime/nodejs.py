"""Node.js (V8) runtime model (paper §7 future work).

Like :mod:`repro.runtime.python_rt`, this is a projection: the paper
does not measure Node.js, but lists it as the next runtime to evaluate.
V8 sits between CPython and the JVM — moderate native bootstrap, lazy
parsing plus baseline-JIT of required modules.  Constants are estimates
so multi-runtime experiments can run; they are not paper fits.
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
class NodeJSConfig:
    """Tunables for the Node.js runtime model (projection constants)."""

    base_rss_mib: float = 10.0
    rts_ms: float = 45.0                 # V8 init + node bootstrap to main script
    require_per_module_ms: float = 0.28
    require_per_kib_ms: float = 0.018    # parse + baseline compile per KiB
    require_io_per_kib_ms: float = 0.006


class NodeJSRuntime(ManagedRuntime):
    """A Node.js process hosting a function behind an HTTP server."""

    kind = "nodejs"

    def __init__(self, kernel: Kernel, process: Process) -> None:
        super().__init__(kernel, process)
        self.config = NodeJSConfig()
        self.rts_ms = self.config.rts_ms
        self.required_modules = 0
        self.bundle_path = ""

    def _map_base_memory(self) -> None:
        space = self.process.address_space
        libnode = self.kernel.fs.ensure("/usr/lib/libnode.so", size=40 * 1024 * 1024)
        text = space.mmap(length=5 * 1024 * 1024, kind=VMAKind.CODE, prot="r-x",
                          file_path=libnode.path, label="libnode-text")
        text.touch_range(0, text.page_count, content_tag="libnode")
        space.grow_anon("v8-heap", self.config.base_rss_mib - 5.0, content_tag="v8heap")

    def _app_init(self, app: "FunctionApp") -> None:
        kernel = self.kernel
        self.bundle_path = app.ensure_artifacts(kernel)
        bundle = kernel.fs.lookup(self.bundle_path)
        self.process.open_fd(bundle, flags="r")
        sock = kernel.fs.ensure(f"socket:[{self.process.pid}]", size=0)
        sock.is_socket = True
        self.process.open_fd(sock, flags="rw")
        app.init(self)
        duration = kernel.costs.jitter(
            app.profile.appinit_vanilla_ms, kernel.streams, "nodejs.appinit"
        )
        kernel.clock.advance(duration)
        self._grow_rss_to(app.profile.snapshot_ready_mib)

    def _grow_rss_to(self, target_mib: float) -> None:
        delta = target_mib - self.process.rss_mib
        if delta > 0:
            self.process.address_space.grow_anon(
                f"v8-heap-{len(self.process.address_space.vmas)}", delta,
                content_tag="v8heap",
            )

    def _before_request(self, request: Request) -> None:
        app = self.app
        if app is None:
            raise RuntimeError_("no application loaded")
        if app.classes and self.required_modules < len(app.classes):
            bundle = self.kernel.fs.lookup(self.bundle_path)
            warmth = self.kernel.page_cache.warmth(bundle)
            cfg = self.config
            cost = 0.0
            for size_kib in app.classes.sizes[self.required_modules:]:
                cost += cfg.require_per_module_ms
                cost += size_kib * (
                    cfg.require_per_kib_ms + cfg.require_io_per_kib_ms * (1.0 - warmth)
                )
            self.kernel.clock.advance(
                self.kernel.costs.jitter(cost, self.kernel.streams, "nodejs.require")
            )
            self.kernel.page_cache.warm(bundle, fraction=1.0)
            self.required_modules = len(app.classes)
        if self.requests_served == 0:
            self._grow_rss_to(app.profile.snapshot_warm_mib)

    # -- checkpoint state ---------------------------------------------------------

    def _extra_state(self):
        return {"bundle_path": self.bundle_path,
                "required_modules": self.required_modules}

    def _apply_extra_state(self, extra) -> None:
        self.bundle_path = extra.get("bundle_path", "")
        self.required_modules = extra.get("required_modules", 0)
