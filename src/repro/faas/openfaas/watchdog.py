"""The OpenFaaS watchdog (§5.1).

"The function Watchdog is the component responsible for managing and
monitoring the function replica lifecycle. Furthermore, it is a
communication interface between the platform API and the replica
process." One watchdog process runs per container; it starts the
function process (fork-exec, or CRIU restore for prebaked images) and
proxies requests to it.
"""

from __future__ import annotations

from typing import Optional

from repro.core.starters import ReplicaHandle, Starter
from repro.functions.base import FunctionApp
from repro.osproc.kernel import Kernel
from repro.osproc.process import Capability
from repro.runtime.base import Request, Response


class WatchdogError(Exception):
    """Watchdog lifecycle failure."""


class Watchdog:
    """Per-container supervisor for one function process."""

    BINARY = "/usr/bin/fwatchdog"

    def __init__(self, kernel: Kernel, privileged: bool = False,
                 checkpoint_restore: bool = False) -> None:
        self.kernel = kernel
        kernel.fs.ensure(self.BINARY, size=6 * 1024 * 1024)
        # A container process starts with an empty capability set; the
        # runtime grants capabilities per the container's security
        # options.
        self.process = kernel.clone(kernel.init_process, comm="fwatchdog",
                                    inherit_capabilities=False)
        kernel.execve(self.process, self.BINARY, argv=["fwatchdog"])
        if privileged:
            # --privileged grants everything, including what criu
            # restore needs.
            self.process.capabilities.add(Capability.SYS_ADMIN)
        if checkpoint_restore:
            # Linux >= 5.9 CAP_CHECKPOINT_RESTORE [11]: restore without
            # full privilege.
            self.process.capabilities.add(Capability.CHECKPOINT_RESTORE)
        self.handle: Optional[ReplicaHandle] = None
        self.health_checks = 0

    def start_function(self, starter: Starter, app: FunctionApp) -> ReplicaHandle:
        """Launch the function process as a child of the watchdog."""
        if self.handle is not None:
            raise WatchdogError("watchdog already supervises a function process")
        self.handle = starter.start(app, parent=self.process)
        return self.handle

    def forward(self, request: Optional[Request] = None) -> Response:
        """Proxy one request to the supervised function process."""
        if self.handle is None:
            raise WatchdogError("no function process started")
        return self.handle.invoke(request)

    def healthy(self) -> bool:
        """The /_/health endpoint."""
        self.health_checks += 1
        return self.handle is not None and self.handle.process.alive

    def shutdown(self) -> None:
        if self.handle is not None:
            self.handle.kill()
            self.handle = None
        self.kernel.kill(self.process.pid)
