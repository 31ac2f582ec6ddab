"""The dump side of the CRIU protocol (paper §3.2).

    "First, CRIU needs to freeze all the target process's threads ...
    it reads the /proc/$pid/pagemap file to find the mapped memory
    areas. Afterward, CRIU injects the procedure (parasite code)
    responsible for performing the actual dump into the target process
    address space using the ptrace system call. ... Finally, CRIU uses
    the ptrace system call to remove the parasite code and to detach
    from the target process, which resumes its execution."

Every step below maps to one of those sentences and charges virtual
time from the calibrated cost model.
"""

from __future__ import annotations

from typing import Optional

from repro import obs
from repro.criu.images import (
    CheckpointImage,
    FdDescriptor,
    VMADescriptor,
    build_image_files,
)
from repro.osproc.kernel import Kernel
from repro.osproc.memory import VMAKind, page_runs
from repro.osproc.process import Capability, Process, ProcessState

class CheckpointError(Exception):
    """Dump protocol failure."""


class CheckpointEngine:
    """Dumps simulated processes into :class:`CheckpointImage` sets."""

    def __init__(self, kernel: Kernel, criu_process: Optional[Process] = None) -> None:
        self.kernel = kernel
        if criu_process is None:
            criu_process = kernel.clone(kernel.init_process, comm="criu")
            criu_process.capabilities.add(Capability.CHECKPOINT_RESTORE)
        self.criu_process = criu_process

    # -- protocol --------------------------------------------------------------------

    def dump(
        self,
        target: Process,
        leave_running: bool = True,
        warm: bool = False,
        parent_image: Optional[CheckpointImage] = None,
    ) -> CheckpointImage:
        """Checkpoint ``target`` and return the image set.

        ``leave_running`` mirrors criu's ``--leave-running`` flag (the
        build pipeline uses it so the baked process can be discarded
        explicitly). ``parent_image`` makes this an incremental dump:
        only pages whose soft-dirty bit is set since the parent dump
        are written.
        """
        kernel = self.kernel
        if not target.alive:
            raise CheckpointError(f"target pid {target.pid} is not alive")
        if target.state is not ProcessState.RUNNING:
            raise CheckpointError(
                f"target pid {target.pid} must be running, is {target.state.value}"
            )

        with obs.span(kernel, "criu.checkpoint", pid=target.pid,
                      comm=target.comm, warm=warm,
                      incremental=parent_image is not None) as dump_span:
            # 1. Freeze every thread in the group.
            kernel.freeze(target)
            try:
                # 2. Attach and inject the parasite blob.
                kernel.ptrace_seize(self.criu_process, target)
                kernel.ptrace_inject_parasite(self.criu_process, target)
                try:
                    image = self._collect(target, warm=warm,
                                          parent_image=parent_image)
                finally:
                    # 5. Cure: remove the parasite, detach.
                    kernel.ptrace_remove_parasite(self.criu_process, target)
                    kernel.ptrace_detach(self.criu_process, target)
            finally:
                if target.state is ProcessState.FROZEN:
                    kernel.thaw(target)
            if not leave_running:
                kernel.kill(target.pid)
            dump_span.set(image=image.image_id,
                          image_mib=round(image.total_mib, 3))
        obs.count(kernel, "criu_dump_total")
        obs.observe(kernel, "criu_dump_image_mib", image.total_mib)
        return image

    def pre_dump(self, target: Process) -> CheckpointImage:
        """Iterative pre-dump: dump now, clear soft-dirty for the next pass."""
        image = self.dump(target, leave_running=True)
        self.kernel.clear_refs(target.pid)
        return image

    # -- internals ---------------------------------------------------------------------

    def _collect(
        self,
        target: Process,
        warm: bool,
        parent_image: Optional[CheckpointImage],
    ) -> CheckpointImage:
        kernel = self.kernel
        # 3. Walk /proc/<pid>/pagemap to find what must be dumped.
        vma_descriptors = []
        incremental = parent_image is not None
        for vma in target.address_space.vmas:
            if vma.kind is VMAKind.PARASITE:
                continue  # the parasite never lands in the image
            vma_descriptors.append(
                VMADescriptor(
                    runs=page_runs(*vma.dump_arrays(incremental=incremental)),
                    start=vma.start,
                    length=vma.length,
                    kind=vma.kind.value,
                    prot=vma.prot,
                    label=vma.label,
                    file_path=vma.file_path,
                    file_offset=vma.file_offset,
                    file_size=(
                        kernel.fs.lookup(vma.file_path).size if vma.file_path
                        and kernel.fs.exists(vma.file_path) else 0
                    ),
                )
            )

        fd_descriptors = [
            FdDescriptor(
                fd=d.fd,
                path=d.file.path,
                offset=d.offset,
                flags=d.flags,
                is_socket=d.file.is_socket,
                file_size=d.file.size,
            )
            for d in target.open_files()
        ]

        runtime = target.payload.get("runtime")
        runtime_state = runtime.snapshot_state() if runtime is not None else None

        image = CheckpointImage(
            image_id=f"img-{kernel.next_id('image'):06d}",
            pid=target.pid,
            comm=target.comm,
            argv=list(target.argv),
            created_at_ms=kernel.clock.now,
            namespace_ids=target.namespaces.ids(),
            vmas=vma_descriptors,
            fds=fd_descriptors,
            runtime_state=runtime_state,
            parent_image_id=parent_image.image_id if parent_image else None,
            warm=warm,
        )
        build_image_files(image)
        image.validate()
        # Seal the content digest: restores verify against it, so any
        # later bit rot in the stored image is caught before transmute.
        image.seal()

        # 4. The parasite pipes page contents out to the criu process,
        # which writes the image files — charge the dump cost.
        duration = kernel.costs.jitter(
            kernel.costs.dump_cost(image.total_mib), kernel.streams, "criu.dump"
        )
        kernel.clock.advance(duration)
        kernel.probes.syscall_enter(
            "criu.dump", self.criu_process.pid, kernel.clock.now,
            detail=f"{image.total_mib:.1f}MiB pid={target.pid}",
        )
        return image
