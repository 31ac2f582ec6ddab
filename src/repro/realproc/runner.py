"""Vanilla real-process starter: fork-exec a fresh interpreter."""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import dataclass
from typing import List

from repro.realproc.child import parse_ok_line, parse_ready_line


class RealProcessError(RuntimeError):
    """Worker failed to start or respond."""


@dataclass
class RealStartupSample:
    """One measured real start-up."""

    technique: str
    function: str
    startup_ms: float


class VanillaProcessRunner:
    """Measures fork-exec + interpreter boot + imports + APPINIT."""

    technique = "vanilla"

    def start_once(self, function: str) -> RealStartupSample:
        """Spawn a worker, wait for READY and one response, kill it."""
        argv = [sys.executable, "-m", "repro.realproc.child", "--function", function]
        t0 = time.monotonic_ns()
        proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, bufsize=1,
        )
        try:
            ready_line = proc.stdout.readline()
            if not ready_line:
                raise RealProcessError(
                    f"worker for {function!r} exited before READY "
                    f"(rc={proc.poll()})"
                )
            parse_ready_line(ready_line)  # validates the protocol
            startup_ms = (time.monotonic_ns() - t0) / 1e6
            proc.stdin.write("\n")
            proc.stdin.flush()
            parse_ok_line(proc.stdout.readline())  # the first request served
            proc.stdin.write("QUIT\n")
            proc.stdin.flush()
            proc.wait(timeout=60.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        return RealStartupSample(
            technique=self.technique,
            function=function,
            startup_ms=startup_ms,
        )

    def measure(self, function: str,
                repetitions: int = 20) -> List[RealStartupSample]:
        return [self.start_once(function) for _ in range(repetitions)]
