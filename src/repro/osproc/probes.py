"""Syscall/lifecycle probe registry — the repo's bpftrace analog.

The paper instrumented CLONE and EXEC with bpftrace system-call probes
(§4.2.1). Here, the simulated kernel publishes enter/exit events for
every syscall it executes, and the runtime and restore engine publish
lifecycle events beside them. An event that accounts for simulated
start-up time carries it as ``charges`` — ``(phase, ms, attrs)``
triples in the CLONE / EXEC / RTS / APPINIT taxonomy and its restore
sub-phases — so the phase profiler (:mod:`repro.obs.profile`), which
drives both the Figure 4 reproduction and ``prebake-bench profile``,
*measures* phases from this one event stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

# (phase, duration ms, attrs): simulated time an event accounts for.
PhaseCharge = Tuple[str, float, Mapping[str, object]]


@dataclass(frozen=True)
class SyscallRecord:
    """One probe event."""

    syscall: str
    pid: Optional[int]  # None for platform-side events (retry backoff)
    phase: str          # "enter" | "exit"
    timestamp: float    # virtual ms
    detail: str = ""
    charges: Tuple[PhaseCharge, ...] = ()


ProbeCallback = Callable[[SyscallRecord], None]


class ProbeRegistry:
    """Subscription hub for syscall and lifecycle probes."""

    def __init__(self) -> None:
        self._enter: Dict[str, List[ProbeCallback]] = {}
        self._exit: Dict[str, List[ProbeCallback]] = {}
        # Deterministic count of probe events published since boot —
        # the numerator the kernel throughput bench divides wall-clock
        # time into (simulated work is identical across backends, so
        # events/sec differences are purely dispatch speed).
        self.events_emitted = 0

    def on_enter(self, syscall: str, callback: ProbeCallback) -> None:
        self._enter.setdefault(syscall, []).append(callback)

    def on_exit(self, syscall: str, callback: ProbeCallback) -> None:
        self._exit.setdefault(syscall, []).append(callback)

    def detach(self, callback: ProbeCallback) -> None:
        """Remove ``callback`` from every probe it is subscribed to."""
        for table in (self._enter, self._exit):
            for callbacks in table.values():
                while callback in callbacks:
                    callbacks.remove(callback)

    def emit(self, record: SyscallRecord) -> None:
        self.events_emitted += 1
        table = self._enter if record.phase == "enter" else self._exit
        for callback in table.get(record.syscall, ()):
            callback(record)

    # -- convenience used by the kernel ---------------------------------------

    def syscall_enter(self, syscall: str, pid: int, timestamp: float,
                      detail: str = "",
                      charges: Tuple[PhaseCharge, ...] = ()) -> None:
        self.emit(SyscallRecord(syscall, pid, "enter", timestamp, detail,
                                charges))

    def syscall_exit(self, syscall: str, pid: int, timestamp: float,
                     detail: str = "",
                     charges: Tuple[PhaseCharge, ...] = ()) -> None:
        self.emit(SyscallRecord(syscall, pid, "exit", timestamp, detail,
                                charges))

    def charge(self, phase: str, pid: Optional[int], timestamp: float,
               duration_ms: float, **attrs: object) -> None:
        """Publish a lifecycle event, named after ``phase``, that
        accounts for ``duration_ms`` of it (fault-path and demand-fault
        time no syscall or restore event already carries)."""
        self.emit(SyscallRecord(phase, pid, "enter", timestamp,
                                charges=((phase, duration_ms, attrs),)))
