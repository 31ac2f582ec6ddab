"""The simulated kernel: syscalls, freezer, ptrace, procfs.

Every syscall charges virtual time from the calibrated cost model and
publishes enter/exit probe events (see :mod:`repro.osproc.probes`); the
``clone``/``execve`` exits carry their CLONE/EXEC charge, so the phase
profiler observes the same boundaries the paper measured with bpftrace.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.obs.profile import PHASE_CLONE, PHASE_EXEC
from repro.osproc.filesystem import FileSystem, PageCache
from repro.osproc.memory import PAGE_SIZE, Page, VMA, VMAKind
from repro.osproc.probes import ProbeRegistry
from repro.osproc.process import Capability, Process, ProcessState, ThreadState
from repro.sim.clock import SimClock
from repro.sim.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.sim.rng import RandomStreams


class KernelError(Exception):
    """Generic kernel-level failure (ESRCH, EINVAL...)."""


class PermissionDenied(KernelError):
    """EPERM: caller lacks the capability the operation needs."""


PARASITE_BLOB_PAGES = 4  # size of the CRIU parasite injected blob


class Kernel:
    """Facade over the whole simulated OS.

    One kernel instance per experiment world. It owns the process
    table, the VFS and page cache, and shares the experiment's clock,
    cost model and RNG streams.
    """

    INIT_PID = 1

    def __init__(self, streams: RandomStreams) -> None:
        self.clock = SimClock()
        self.costs: CostModel = DEFAULT_COST_MODEL
        self.streams = streams
        self.fs = FileSystem()
        self.page_cache = PageCache()
        self.probes = ProbeRegistry()
        # Telemetry hub (repro.obs.Observability) or None — the only
        # telemetry switch: spans, metrics, flight tape, phase profile,
        # time series and SLO burn check all live on it. Instrumented
        # code treats None as "telemetry off" and pays nothing.
        self.obs = None
        # Fault injector (repro.faults.FaultInjector) or None; site
        # checks treat None as "never fire" and draw no randomness.
        self.faults = None
        # Working-set tracker (repro.criu.workingset.WorkingSetTracker)
        # or None; installed lazily by the first WORKING_SET restore so
        # eager-only worlds never pay for (or observe) it.
        self.working_sets = None
        # The process table holds live processes; a killed pid leaves
        # it (see _reap) and is remembered in _reaped.
        self.processes: Dict[int, Process] = {}
        self._reaped: Set[int] = set()
        self._next_pid = 100
        self._tracees: Dict[int, int] = {}  # target pid -> tracer pid
        # Replica, image and request ids are numbered per world, from 1,
        # so traces and logs reproduce whatever else ran in the process.
        self._id_counters: Dict[str, int] = {}
        init = Process(pid=self.INIT_PID, ppid=0, comm="init",
                       capabilities={Capability.SYS_ADMIN})
        init.start_time = self.clock.now
        self.processes[init.pid] = init

    # -- internals -------------------------------------------------------------

    def _alloc_pid(self) -> int:
        pid = self._next_pid
        self._next_pid += 1
        return pid

    def next_id(self, kind: str) -> int:
        """The next number of this world's ``kind`` id sequence."""
        number = self._id_counters.get(kind, 0) + 1
        self._id_counters[kind] = number
        return number

    def _charge(self, syscall: str, pid: int, median_cost: float,
                detail: str = "", phase: Optional[str] = None,
                **attrs: object) -> None:
        """Run a syscall's cost through probes + clock; a ``phase``
        rides on the exit event as that syscall's charge."""
        self.probes.syscall_enter(syscall, pid, self.clock.now, detail)
        duration = self.costs.jitter(median_cost, self.streams, f"syscall.{syscall}")
        self.clock.advance(duration)
        charges = ((phase, duration, attrs),) if phase else ()
        self.probes.syscall_exit(syscall, pid, self.clock.now, detail, charges)

    def get(self, pid: int) -> Process:
        proc = self.processes.get(pid)
        if proc is None:
            raise KernelError(f"ESRCH: no process with pid {pid}")
        return proc

    @property
    def init_process(self) -> Process:
        return self.processes[self.INIT_PID]

    # -- process lifecycle -------------------------------------------------------

    def clone(self, parent: Process, comm: Optional[str] = None) -> Process:
        """``clone(2)``: create a child of ``parent`` in its namespaces."""
        if not parent.alive:
            raise KernelError(f"parent pid {parent.pid} is not alive")
        pid = self._alloc_pid()
        self._charge("clone", parent.pid, self.costs.clone_ms,
                     detail=comm or "", phase=PHASE_CLONE, comm=comm or "")
        child = Process(
            pid=pid,
            ppid=parent.pid,
            comm=comm or parent.comm,
            argv=list(parent.argv),
            namespaces=parent.namespaces.clone_with_new(),
            capabilities=set(parent.capabilities),
        )
        child.start_time = self.clock.now
        self.processes[pid] = child
        parent.children.append(pid)
        return child

    def execve(self, proc: Process, path: str, argv: Optional[List[str]] = None) -> None:
        """``execve(2)``: replace the process image with ``path``."""
        if not proc.alive:
            raise KernelError(f"pid {proc.pid} is not alive")
        binary = self.fs.lookup(path)  # ENOENT if missing
        self._charge("execve", proc.pid, self.costs.exec_ms,
                     detail=path, phase=PHASE_EXEC, path=path)
        proc.comm = path.rsplit("/", 1)[-1]
        proc.argv = list(argv or [path])
        proc.payload.clear()
        space = proc.address_space
        space.clear()
        text_pages = max(1, -(-binary.size // PAGE_SIZE))
        vma = space.mmap(
            length=text_pages * PAGE_SIZE,
            kind=VMAKind.CODE,
            prot="r-x",
            file_path=path,
            label="text",
        )
        vma.touch_range(0, min(text_pages, 16), content_tag=f"text:{path}")
        space.mmap(length=8 * PAGE_SIZE, kind=VMAKind.STACK, label="stack",
                   populate=True, content_tag="stack")
        self.page_cache.warm(binary, fraction=1.0)

    def kill(self, pid: int) -> None:
        """``SIGKILL``: terminate and reap immediately (platform GC path).

        Killing an already reaped pid is a no-op.
        """
        if pid in self._reaped:
            return
        proc = self.get(pid)
        self._reap(proc)
        parent = self.processes.get(proc.ppid)
        if parent and pid in parent.children:
            parent.children.remove(pid)

    def _reap(self, proc: Process) -> None:
        """Release everything ``proc`` held, at once.

        The mappings, the payload (the runtime lives there) and the
        process-table slot go now, so a reaped process is freed by
        reference counting rather than left to the cyclic collector.
        """
        proc.state = ProcessState.DEAD
        proc.address_space.clear()
        proc.payload.clear()
        self._tracees.pop(proc.pid, None)
        if self.processes.get(proc.pid) is proc:
            del self.processes[proc.pid]
            self._reaped.add(proc.pid)

    # -- cgroup freezer -----------------------------------------------------------

    def freeze(self, proc: Process) -> None:
        """Freeze the whole thread group (checkpoint precondition)."""
        if proc.state is not ProcessState.RUNNING:
            raise KernelError(f"cannot freeze pid {proc.pid} in state {proc.state.value}")
        self._charge("freezer_freeze", proc.pid, self.costs.freeze_ms)
        proc.state = ProcessState.FROZEN
        for thread in proc.threads:
            thread.state = ThreadState.FROZEN

    def thaw(self, proc: Process) -> None:
        if proc.state is not ProcessState.FROZEN:
            raise KernelError(f"cannot thaw pid {proc.pid} in state {proc.state.value}")
        self._charge("freezer_thaw", proc.pid, 0.1)
        proc.state = ProcessState.RUNNING
        for thread in proc.threads:
            thread.state = ThreadState.RUNNING

    # -- ptrace ---------------------------------------------------------------------

    def _check_cr_capability(self, caller: Process) -> None:
        if not (caller.has_capability(Capability.SYS_ADMIN)
                or caller.has_capability(Capability.CHECKPOINT_RESTORE)):
            raise PermissionDenied(
                f"pid {caller.pid} lacks CAP_SYS_ADMIN/CAP_CHECKPOINT_RESTORE"
            )

    def ptrace_seize(self, tracer: Process, target: Process) -> None:
        """``PTRACE_SEIZE``: attach without stopping the target."""
        self._check_cr_capability(tracer)
        if target.pid in self._tracees:
            raise KernelError(f"pid {target.pid} already traced")
        if not target.alive:
            raise KernelError(f"pid {target.pid} is not alive")
        self._charge("ptrace", tracer.pid, 0.05, detail="SEIZE")
        self._tracees[target.pid] = tracer.pid

    def ptrace_inject_parasite(self, tracer: Process, target: Process) -> VMA:
        """Map the CRIU parasite blob into the target's address space."""
        if self._tracees.get(target.pid) != tracer.pid:
            raise KernelError(f"pid {tracer.pid} does not trace pid {target.pid}")
        if target.address_space.find_by_label("criu-parasite") is not None:
            raise KernelError(f"pid {target.pid} already carries a parasite mapping")
        self._charge("ptrace", tracer.pid, self.costs.parasite_inject_ms, detail="INJECT")
        vma = target.address_space.mmap(
            length=PARASITE_BLOB_PAGES * PAGE_SIZE,
            kind=VMAKind.PARASITE,
            prot="r-x",
            label="criu-parasite",
            populate=True,
            content_tag="parasite",
        )
        return vma

    def ptrace_remove_parasite(self, tracer: Process, target: Process) -> None:
        if self._tracees.get(target.pid) != tracer.pid:
            raise KernelError(f"pid {tracer.pid} does not trace pid {target.pid}")
        vma = target.address_space.find_by_label("criu-parasite")
        if vma is None:
            raise KernelError(f"pid {target.pid} has no parasite mapping")
        self._charge("ptrace", tracer.pid, 0.1, detail="CURE")
        target.address_space.munmap(vma)

    def ptrace_detach(self, tracer: Process, target: Process) -> None:
        if self._tracees.get(target.pid) != tracer.pid:
            raise KernelError(f"pid {tracer.pid} does not trace pid {target.pid}")
        self._charge("ptrace", tracer.pid, 0.05, detail="DETACH")
        del self._tracees[target.pid]

    # -- procfs ------------------------------------------------------------------------

    def pagemap(self, pid: int) -> Iterator[Tuple[VMA, Page]]:
        """``/proc/<pid>/pagemap``: every resident page, address order."""
        return self.get(pid).address_space.iter_resident()
