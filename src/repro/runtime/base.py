"""Abstract managed runtime and the request/response protocol.

A runtime lives inside exactly one simulated process. Its lifecycle
matches the paper's start-up phase decomposition (§4.2.1):

* :meth:`boot` — the RTS phase (native runtime bootstrap, from the end
  of ``execve`` to the first line of ``main()``);
* :meth:`load_application` — the APPINIT phase (everything until the
  embedded HTTP server can take the first request);
* :meth:`handle` — per-request service, including the lazy class
  loading / JIT compilation a first invocation can trigger.

Lifecycle boundaries are published through the kernel probe registry:
``runtime.main`` carries the RTS charge and ``runtime.ready`` the
APPINIT charge, so the phase profiler measures phase durations from
the probes the way the paper did.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Dict, Optional, TYPE_CHECKING

from repro.obs.context import TraceContext
from repro.obs.profile import (
    PHASE_APPINIT,
    PHASE_RTS,
    RESTORE_LAZY_FAULT,
)
from repro.osproc.kernel import Kernel
from repro.osproc.process import Process, ProcessState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.functions.base import FunctionApp


class RuntimeError_(Exception):
    """Runtime lifecycle violation (bad phase ordering, dead process)."""


@dataclass
class Request:
    """An invocation arriving at a function replica."""

    body: Any = None
    path: str = "/"
    # 0 until the request enters a world (see :func:`admit`).
    request_id: int = 0
    # Causal trace handle, stamped where the request enters the system
    # (gateway or router) and carried to every span it causes. None in
    # unobserved worlds and for requests injected below the router.
    trace: Optional[TraceContext] = None


def admit(kernel: Kernel, request: Optional[Request]) -> Request:
    """``request`` (a fresh one if None), numbered in ``kernel``'s world.

    A request keeps the id of the first world it enters, so each world
    numbers its requests from 1 in arrival order.
    """
    if request is None:
        request = Request()
    if not request.request_id:
        request.request_id = kernel.next_id("request")
    return request


@dataclass
class Response:
    """The replica's reply, stamped with virtual service timing."""

    status: int
    body: Any = None
    request_id: int = 0
    started_ms: float = 0.0
    finished_ms: float = 0.0

    @property
    def service_ms(self) -> float:
        return self.finished_ms - self.started_ms

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


class ManagedRuntime:
    """Base class for all runtime models.

    Each runtime defines the hooks: ``_map_base_memory()``,
    ``_app_init(app)``, ``_before_request(request)``, and
    ``_extra_state()`` / ``_apply_extra_state(extra)`` for what its
    snapshots carry beyond the common state.
    """

    kind = "abstract"
    rts_ms = 0.0  # native bootstrap duration before main()

    def __init__(self, kernel: Kernel, process: Process) -> None:
        self.kernel = kernel
        self.process = process
        self.app: Optional["FunctionApp"] = None
        self.booted = False
        self.ready = False
        self.requests_served = 0
        process.payload["runtime"] = self

    # -- lifecycle ------------------------------------------------------------

    def _require_alive(self) -> None:
        if self.process.state is not ProcessState.RUNNING:
            raise RuntimeError_(
                f"pid {self.process.pid} is {self.process.state.value}, not running"
            )

    def boot(self) -> None:
        """Run the RTS phase (idempotence is an error: boot once)."""
        self._require_alive()
        if self.booted:
            raise RuntimeError_("runtime already booted")
        boot_start = self.kernel.clock.now
        duration = self.kernel.costs.jitter(
            self.rts_ms, self.kernel.streams, f"{self.kind}.rts"
        )
        self.kernel.clock.advance(duration)
        self._map_base_memory()
        self.booted = True
        # The paper logged "before the runtime starts executing the
        # first line of code" — i.e. main() entry ends the RTS phase.
        # Clock delta, not the jitter draw: RTS is everything from
        # execve return to main() entry, however it was charged.
        now = self.kernel.clock.now
        self.kernel.probes.syscall_enter(
            "runtime.main", self.process.pid, now, detail=self.kind,
            charges=((PHASE_RTS, now - boot_start, {"runtime": self.kind}),),
        )

    def load_application(self, app: "FunctionApp") -> None:
        """Run the APPINIT phase and mark the runtime ready."""
        self._require_alive()
        if not self.booted:
            raise RuntimeError_("boot() must run before load_application()")
        if self.ready:
            raise RuntimeError_("application already loaded")
        init_start = self.kernel.clock.now
        self.app = app
        self._app_init(app)
        self.ready = True
        now = self.kernel.clock.now
        self.kernel.probes.syscall_enter(
            "runtime.ready", self.process.pid, now, detail=app.name,
            charges=((PHASE_APPINIT, now - init_start,
                      {"function": app.name}),),
        )

    def handle(self, request: Request) -> Response:
        """Serve one request, charging lazy-load + service costs."""
        admit(self.kernel, request)
        self._require_alive()
        if not self.ready or self.app is None:
            raise RuntimeError_("runtime is not ready to serve requests")
        started = self.kernel.clock.now
        # A lazily-restored process faults its remaining pages in on
        # first touch; the deferred mapping cost lands on this request.
        debt = self.process.payload.pop("lazy_restore_debt_ms", 0.0)
        if debt:
            charged = self.kernel.costs.jitter(
                debt, self.kernel.streams, "criu.lazy-pages")
            self.kernel.clock.advance(charged)
            self.kernel.probes.charge(
                RESTORE_LAZY_FAULT, self.process.pid, self.kernel.clock.now,
                charged, source="lazy-debt")
        self._before_request(request)
        body, status = self.app.execute(self, request)
        duration = self.kernel.streams.lognormal_jitter(
            f"{self.kind}.service", self.app.profile.service_ms,
            self.app.profile.service_sigma,
        )
        self.kernel.clock.advance(duration)
        self.requests_served += 1
        if self.requests_served == 1:
            self.kernel.probes.syscall_enter(
                "runtime.first_response", self.process.pid, self.kernel.clock.now
            )
        if self.process.payload.pop("ws_capture_pending", None):
            # A working-set capture was armed on this restored replica
            # (see repro.criu.workingset); warm snapshots resume with
            # requests_served > 0, so this fires on the first
            # *post-restore* response rather than the first ever.
            self.kernel.probes.syscall_enter(
                "runtime.post_restore_response", self.process.pid,
                self.kernel.clock.now,
            )
        return Response(
            status=status,
            body=body,
            request_id=request.request_id,
            started_ms=started,
            finished_ms=self.kernel.clock.now,
        )

    # -- restore support --------------------------------------------------------

    def mark_restored(self) -> None:
        """Called by the restore engine on the resurrected runtime.

        A restored runtime never replays boot/app-init: it resumes with
        whatever ``booted``/``ready``/class state the snapshot carried.
        """
        if self.ready:
            self.kernel.probes.syscall_enter(
                "runtime.ready", self.process.pid, self.kernel.clock.now,
                detail=f"{self.app.name if self.app else ''}:restored",
            )

    # -- checkpoint state protocol ---------------------------------------------

    def snapshot_state(self) -> Dict[str, Any]:
        """Serialize the runtime's logical state into a checkpoint image.

        The memory model stores page *structure*; this carries the
        semantic state those pages would hold in a real dump (loaded
        classes, JIT state, the application object).
        """
        return {
            "kind": self.kind,
            "booted": self.booted,
            "ready": self.ready,
            "requests_served": self.requests_served,
            "app": copy.deepcopy(self.app),
            "extra": self._extra_state(),
        }

    @classmethod
    def from_snapshot_state(
        cls, kernel: Kernel, process: Process, state: Dict[str, Any]
    ) -> "ManagedRuntime":
        """Rebuild a runtime inside ``process`` from snapshotted state."""
        runtime = cls(kernel, process)
        runtime.booted = state["booted"]
        runtime.ready = state["ready"]
        runtime.requests_served = state["requests_served"]
        runtime.app = copy.deepcopy(state["app"])
        runtime._apply_extra_state(state.get("extra", {}))
        return runtime
