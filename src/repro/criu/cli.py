"""Subprocess orchestration of a real ``criu`` binary.

The paper's prototype shells out to CRIU; this driver does the same
when a binary is installed (``criu`` on PATH or an explicit path). On
hosts without CRIU — like most CI sandboxes — construction still works
for command-line planning (``dry_run=True`` records the argv instead of
executing), and :meth:`CriuCli.require` raises a clear error for code
paths that genuinely need the binary.
"""

from __future__ import annotations

import os
import shutil
import subprocess
from dataclasses import dataclass
from typing import List, Optional, Sequence


class CriuUnavailableError(RuntimeError):
    """Raised when an operation needs a real criu binary and none exists."""


@dataclass
class CriuResult:
    """Outcome of one criu invocation."""

    argv: List[str]
    returncode: int
    stdout: str = ""
    stderr: str = ""

    @property
    def ok(self) -> bool:
        return self.returncode == 0


class CriuCli:
    """Builds and runs ``criu dump`` / ``criu restore`` command lines."""

    def __init__(self, criu_path: Optional[str] = None, dry_run: bool = False) -> None:
        self.criu_path = criu_path or shutil.which("criu")
        self.dry_run = dry_run
        self.invocations: List[List[str]] = []

    @property
    def available(self) -> bool:
        return self.criu_path is not None

    def require(self) -> str:
        if self.criu_path is None:
            raise CriuUnavailableError(
                "no criu binary found on PATH; install criu or use the "
                "simulated engine (repro.criu.CheckpointEngine)"
            )
        return self.criu_path

    # -- command construction ------------------------------------------------------

    def dump_argv(
        self,
        pid: int,
        images_dir: str,
        leave_running: bool = True,
        shell_job: bool = True,
        tcp_established: bool = False,
        track_mem: bool = False,
        prev_images_dir: Optional[str] = None,
    ) -> List[str]:
        """Argv for ``criu dump`` with the flags the prototype used."""
        argv = [self.criu_path or "criu", "dump", "-t", str(pid),
                "-D", images_dir, "-v4", "-o", "dump.log"]
        if leave_running:
            argv.append("--leave-running")
        if shell_job:
            argv.append("--shell-job")
        if tcp_established:
            argv.append("--tcp-established")
        if track_mem:
            argv.append("--track-mem")
        if prev_images_dir:
            argv += ["--prev-images-dir", prev_images_dir]
        return argv

    def restore_argv(
        self,
        images_dir: str,
        shell_job: bool = True,
        restore_detached: bool = True,
        tcp_established: bool = False,
        lazy_pages: bool = False,
    ) -> List[str]:
        """Argv for ``criu restore``."""
        argv = [self.criu_path or "criu", "restore",
                "-D", images_dir, "-v4", "-o", "restore.log"]
        if shell_job:
            argv.append("--shell-job")
        if restore_detached:
            argv.append("--restore-detached")
        if tcp_established:
            argv.append("--tcp-established")
        if lazy_pages:
            argv.append("--lazy-pages")
        return argv

    def check_argv(self) -> List[str]:
        return [self.criu_path or "criu", "check"]

    # -- execution -------------------------------------------------------------------

    def _run(self, argv: Sequence[str], timeout: float = 60.0) -> CriuResult:
        self.invocations.append(list(argv))
        if self.dry_run:
            return CriuResult(argv=list(argv), returncode=0)
        self.require()
        proc = subprocess.run(
            list(argv), capture_output=True, text=True, timeout=timeout, check=False
        )
        return CriuResult(
            argv=list(argv),
            returncode=proc.returncode,
            stdout=proc.stdout,
            stderr=proc.stderr,
        )

    def check(self) -> CriuResult:
        """Run ``criu check`` (kernel feature probing)."""
        return self._run(self.check_argv())

    def dump(self, pid: int, images_dir: str, **kwargs) -> CriuResult:
        if not self.dry_run:
            os.makedirs(images_dir, exist_ok=True)
        return self._run(self.dump_argv(pid, images_dir, **kwargs))

    def restore(self, images_dir: str, **kwargs) -> CriuResult:
        return self._run(self.restore_argv(images_dir, **kwargs))
