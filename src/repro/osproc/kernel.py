"""The simulated kernel: syscalls, freezer, ptrace, procfs.

Every syscall charges virtual time from the calibrated cost model and
publishes enter/exit probe events (see :mod:`repro.osproc.probes`), so
benchmark tracers observe the same CLONE/EXEC boundaries the paper
measured with bpftrace.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.osproc.filesystem import FileSystem, PageCache
from repro.osproc.memory import PAGE_SIZE, Page, VMA, VMAKind
from repro.osproc.namespaces import NamespaceKind
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

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        costs: CostModel = DEFAULT_COST_MODEL,
        streams: Optional[RandomStreams] = None,
    ) -> None:
        self.clock = clock or SimClock()
        self.costs = costs
        self.streams = streams or RandomStreams(seed=0)
        self.fs = FileSystem()
        self.page_cache = PageCache()
        self.probes = ProbeRegistry()
        # Telemetry hub (repro.obs.Observability) or None; instrumented
        # code treats None as "telemetry off" and pays nothing.
        self.obs = None
        # Fault injector (repro.faults.FaultInjector) or None; site
        # checks treat None as "never fire" and draw no randomness.
        self.faults = None
        # Phase profiler (repro.obs.profile.PhaseProfiler) or None;
        # attribution sites treat None as "profiling off" — no time is
        # charged and no randomness drawn either way.
        self.profile = None
        # Working-set tracker (repro.criu.workingset.WorkingSetTracker)
        # or None; installed lazily by the first WORKING_SET restore so
        # eager-only worlds never pay for (or observe) it.
        self.working_sets = None
        # Flight recorder (repro.obs.flight.FlightRecorder) or None;
        # lifecycle instrumentation treats None as "recorder off" and
        # pays one attribute load per event site.
        self.flight = None
        self.processes: Dict[int, Process] = {}
        self._next_pid = 100
        self._tracees: Dict[int, int] = {}  # target pid -> tracer pid
        init = Process(pid=self.INIT_PID, ppid=0, comm="init",
                       capabilities={Capability.SYS_ADMIN})
        init.start_time = self.clock.now
        self.processes[init.pid] = init

    # -- internals -------------------------------------------------------------

    def _alloc_pid(self) -> int:
        pid = self._next_pid
        self._next_pid += 1
        return pid

    def _charge(self, syscall: str, pid: int, median_cost: float, detail: str = "") -> float:
        """Run a syscall's cost through probes + clock; return duration."""
        self.probes.syscall_enter(syscall, pid, self.clock.now, detail)
        duration = self.costs.jitter(median_cost, self.streams, f"syscall.{syscall}")
        self.clock.advance(duration)
        self.probes.syscall_exit(syscall, pid, self.clock.now, detail)
        return duration

    def get(self, pid: int) -> Process:
        proc = self.processes.get(pid)
        if proc is None:
            raise KernelError(f"ESRCH: no process with pid {pid}")
        return proc

    @property
    def init_process(self) -> Process:
        return self.processes[self.INIT_PID]

    def live_processes(self) -> List[Process]:
        return [p for p in self.processes.values() if p.alive]

    # -- process lifecycle -------------------------------------------------------

    def clone(
        self,
        parent: Process,
        comm: Optional[str] = None,
        new_namespaces: Iterable[NamespaceKind] = (),
        target_pid: Optional[int] = None,
        inherit_capabilities: bool = True,
    ) -> Process:
        """``clone(2)``: create a child of ``parent``.

        ``target_pid`` requests a specific pid (what CRIU does on
        restore via ``/proc/sys/kernel/ns_last_pid``); it requires
        ``CAP_SYS_ADMIN`` or ``CAP_CHECKPOINT_RESTORE`` [Linux 2020].
        """
        if not parent.alive:
            raise KernelError(f"parent pid {parent.pid} is not alive")
        if target_pid is not None:
            if not (parent.has_capability(Capability.SYS_ADMIN)
                    or parent.has_capability(Capability.CHECKPOINT_RESTORE)):
                raise PermissionDenied(
                    "selecting a clone pid requires CAP_SYS_ADMIN or CAP_CHECKPOINT_RESTORE"
                )
            if target_pid in self.processes and self.processes[target_pid].alive:
                raise KernelError(f"pid {target_pid} already in use")
            pid = target_pid
            self._next_pid = max(self._next_pid, pid + 1)
        else:
            pid = self._alloc_pid()
        duration = self._charge("clone", parent.pid, self.costs.clone_ms,
                                detail=comm or "")
        if self.profile is not None:
            self.profile.record("CLONE", duration, pid=pid, comm=comm or "")
        namespaces = parent.namespaces.clone_with_new(*new_namespaces)
        child = Process(
            pid=pid,
            ppid=parent.pid,
            comm=comm or parent.comm,
            argv=list(parent.argv),
            namespaces=namespaces,
            capabilities=set(parent.capabilities) if inherit_capabilities else set(),
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
        duration = self._charge("execve", proc.pid, self.costs.exec_ms,
                                detail=path)
        if self.profile is not None:
            self.profile.record("EXEC", duration, pid=proc.pid, path=path)
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

    def exit(self, proc: Process, code: int = 0) -> None:
        """``exit_group(2)``."""
        if proc.state is ProcessState.DEAD:
            return
        self._charge("exit_group", proc.pid, 0.05)
        proc.state = ProcessState.ZOMBIE
        proc.exit_code = code
        for thread in proc.threads:
            thread.state = ThreadState.STOPPED
        parent = self.processes.get(proc.ppid)
        if parent is None or not parent.alive:
            self._reap(proc)

    def wait(self, parent: Process, pid: int) -> int:
        """``waitpid(2)``: reap a zombie child, returning its exit code."""
        child = self.get(pid)
        if child.ppid != parent.pid:
            raise KernelError(f"pid {pid} is not a child of {parent.pid}")
        if child.state is not ProcessState.ZOMBIE:
            raise KernelError(f"pid {pid} has not exited")
        code = child.exit_code or 0
        self._reap(child)
        parent.children.remove(pid)
        return code

    def kill(self, pid: int) -> None:
        """``SIGKILL``: terminate and reap immediately (platform GC path)."""
        proc = self.get(pid)
        if proc.state is ProcessState.DEAD:
            return
        proc.exit_code = -9
        self._reap(proc)
        parent = self.processes.get(proc.ppid)
        if parent and pid in parent.children:
            parent.children.remove(pid)

    def _reap(self, proc: Process) -> None:
        proc.state = ProcessState.DEAD
        proc.address_space.clear()
        self._tracees.pop(proc.pid, None)

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

    def tracer_of(self, pid: int) -> Optional[int]:
        return self._tracees.get(pid)

    # -- procfs ------------------------------------------------------------------------

    def pagemap(self, pid: int) -> Iterator[Tuple[VMA, Page]]:
        """``/proc/<pid>/pagemap``: every resident page, address order."""
        return self.get(pid).address_space.iter_resident()

    def proc_maps(self, pid: int) -> List[str]:
        """``/proc/<pid>/maps``-style summary lines."""
        lines = []
        for vma in self.get(pid).address_space.vmas:
            backing = vma.file_path or ("[stack]" if vma.kind is VMAKind.STACK else "[anon]")
            lines.append(
                f"{vma.start:012x}-{vma.end:012x} {vma.prot}p "
                f"{vma.kind.value:<10} {backing} rss={vma.resident_pages}p"
            )
        return lines

    def clear_refs(self, pid: int) -> None:
        """``/proc/<pid>/clear_refs`` = 4: reset soft-dirty (pre-dump)."""
        self.get(pid).address_space.clear_soft_dirty()
