"""Memory cgroups: per-container limits and the OOM killer.

FaaS platforms run every replica inside a memory-limited container
(AWS Lambda's memory setting, OpenFaaS limits). The model provides a
v2-style memory controller: processes attach to a cgroup, the cgroup
tracks their RSS against ``memory.max``, and :meth:`MemoryCgroup.enforce`
OOM-kills the largest member when the limit is breached — which is how
an over-provisioned snapshot restore fails in production.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.osproc.kernel import Kernel
from repro.osproc.process import Process


class CgroupError(Exception):
    """Cgroup hierarchy misuse."""


@dataclass
class OomEvent:
    """One OOM kill, for observability."""

    cgroup: str
    pid: int
    comm: str
    rss_mib: float
    limit_mib: float
    at_ms: float


class MemoryCgroup:
    """One memory-controller group."""

    def __init__(self, kernel: Kernel, name: str,
                 limit_mib: Optional[float] = None) -> None:
        if limit_mib is not None and limit_mib <= 0:
            raise CgroupError(f"memory.max must be positive, got {limit_mib}")
        self.kernel = kernel
        self.name = name
        self.limit_mib = limit_mib  # None = "max" (unlimited)
        self._members: Set[int] = set()
        self.oom_events: List[OomEvent] = []
        self.peak_mib = 0.0

    # -- membership ---------------------------------------------------------------

    def attach(self, proc: Process) -> None:
        if not proc.alive:
            raise CgroupError(f"cannot attach dead pid {proc.pid}")
        self._members.add(proc.pid)

    def detach(self, proc: Process) -> None:
        self._members.discard(proc.pid)

    def members(self) -> List[Process]:
        live = []
        for pid in sorted(self._members):
            proc = self.kernel.processes.get(pid)
            if proc is not None and proc.alive:
                live.append(proc)
        self._members = {p.pid for p in live}
        return live

    # -- accounting -----------------------------------------------------------------

    @property
    def usage_mib(self) -> float:
        usage = sum(p.rss_mib for p in self.members())
        self.peak_mib = max(self.peak_mib, usage)
        return usage

    # -- enforcement -------------------------------------------------------------------

    def enforce(self) -> List[OomEvent]:
        """OOM-kill the largest members until usage fits the limit."""
        killed: List[OomEvent] = []
        if self.limit_mib is None:
            return killed
        while self.usage_mib > self.limit_mib:
            victims = self.members()
            if not victims:
                break
            victim = max(victims, key=lambda p: p.rss_mib)
            event = OomEvent(
                cgroup=self.name,
                pid=victim.pid,
                comm=victim.comm,
                rss_mib=victim.rss_mib,
                limit_mib=self.limit_mib,
                at_ms=self.kernel.clock.now,
            )
            self.kernel.kill(victim.pid)
            self._members.discard(victim.pid)
            self.oom_events.append(event)
            killed.append(event)
        return killed


class CgroupManager:
    """Flat registry of memory cgroups (one per container, typically)."""

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self._groups: Dict[str, MemoryCgroup] = {}

    def create(self, name: str, limit_mib: Optional[float] = None) -> MemoryCgroup:
        if name in self._groups:
            raise CgroupError(f"cgroup {name!r} already exists")
        group = MemoryCgroup(self.kernel, name, limit_mib=limit_mib)
        self._groups[name] = group
        return group

    def get(self, name: str) -> MemoryCgroup:
        group = self._groups.get(name)
        if group is None:
            raise CgroupError(f"no cgroup {name!r}")
        return group

    def remove(self, name: str) -> None:
        group = self._groups.pop(name, None)
        if group is None:
            raise CgroupError(f"no cgroup {name!r}")
        if group.members():
            raise CgroupError(f"cgroup {name!r} still has members")

    def names(self) -> List[str]:
        return sorted(self._groups)
