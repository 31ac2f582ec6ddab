"""Processes, threads, capabilities.

The process is CRIU's unit of checkpoint: its thread group, address
space, descriptor table, namespaces and credentials all end up in the
image set. State transitions (running → frozen → dumped, or
restoring → running) follow the real tool's protocol.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Set

from repro.osproc.filesystem import FileDescriptor, VirtualFile
from repro.osproc.memory import AddressSpace
from repro.osproc.namespaces import NamespaceSet


class ProcessState(Enum):
    RUNNING = "running"
    FROZEN = "frozen"          # cgroup freezer engaged (checkpoint prep)
    TRACED = "traced"          # under ptrace seize
    DEAD = "dead"
    RESTORING = "restoring"    # morphing from a checkpoint image


class ThreadState(Enum):
    RUNNING = "running"
    SLEEPING = "sleeping"
    FROZEN = "frozen"


class Capability(Enum):
    """The two capabilities relevant to checkpoint/restore (§3.2)."""

    SYS_ADMIN = "CAP_SYS_ADMIN"
    CHECKPOINT_RESTORE = "CAP_CHECKPOINT_RESTORE"


_tids = itertools.count(1)


@dataclass
class Thread:
    tid: int
    name: str = ""
    state: ThreadState = ThreadState.RUNNING

    @classmethod
    def fresh(cls, name: str = "") -> "Thread":
        return cls(tid=next(_tids), name=name)


class Process:
    """A simulated process (thread group leader + siblings)."""

    def __init__(
        self,
        pid: int,
        ppid: int,
        comm: str,
        argv: Optional[List[str]] = None,
        namespaces: Optional[NamespaceSet] = None,
        capabilities: Optional[Set[Capability]] = None,
    ) -> None:
        self.pid = pid
        self.ppid = ppid
        self.comm = comm
        self.argv = list(argv or [comm])
        self.state = ProcessState.RUNNING
        self.address_space = AddressSpace()
        self.namespaces = namespaces or NamespaceSet()
        self.capabilities: Set[Capability] = set(capabilities or ())
        self.threads: List[Thread] = [Thread.fresh(name=comm)]
        self.fds: Dict[int, FileDescriptor] = {}
        self._next_fd = 3  # 0/1/2 reserved for stdio
        self.children: List[int] = []
        self.start_time: float = 0.0
        self.environ: Dict[str, str] = {}
        # Arbitrary per-process payload (the runtime object lives here).
        self.payload: Dict[str, object] = {}

    @property
    def alive(self) -> bool:
        return self.state in (
            ProcessState.RUNNING,
            ProcessState.FROZEN,
            ProcessState.TRACED,
            ProcessState.RESTORING,
        )

    # -- descriptors ---------------------------------------------------------

    def open_fd(self, file: VirtualFile, flags: str = "r") -> FileDescriptor:
        fd = FileDescriptor(fd=self._next_fd, file=file, flags=flags)
        self.fds[fd.fd] = fd
        self._next_fd += 1
        return fd

    def open_files(self) -> List[FileDescriptor]:
        return list(self.fds.values())

    # -- bookkeeping ---------------------------------------------------------

    @property
    def rss_mib(self) -> float:
        return self.address_space.rss_mib

    def has_capability(self, cap: Capability) -> bool:
        return cap in self.capabilities

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Process(pid={self.pid}, comm={self.comm!r}, state={self.state.value})"
