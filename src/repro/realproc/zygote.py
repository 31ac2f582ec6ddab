"""Zygote fork-server: the real-machine prebake analog.

A long-lived "zygote" process boots the interpreter, imports the
function's dependencies and runs its APPINIT *once*; every replica is
then ``fork()``-ed out of that warm state and is ready immediately —
the same state-reuse idea as restoring a CRIU snapshot, realizable in
pure Python. (Android starts apps this way for the same reason.)

Benchmark side: :class:`ZygoteRunner` talks to the zygote over stdio
and to each forked worker over a per-spawn FIFO pair.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time
import uuid
from typing import List

from repro.realproc.child import parse_ok_line, parse_ready_line
from repro.realproc.runner import RealProcessError, RealStartupSample


def zygote_main(argv: List[str]) -> int:
    """Entry point of the zygote master process."""
    import argparse

    from repro.realproc.child import build_handler, serve_with_handler

    parser = argparse.ArgumentParser(description="prebaking repro zygote")
    parser.add_argument("--function", required=True)
    args = parser.parse_args(argv)
    handler = build_handler(args.function)   # warm state lives here
    sys.stdout.write("ZREADY\n")
    sys.stdout.flush()
    for line in sys.stdin:
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "QUIT":
            break
        if parts[0] == "SPAWN" and len(parts) == 3:
            in_fifo, out_fifo = parts[1], parts[2]
            pid = os.fork()
            if pid == 0:
                # Worker: serve over the FIFO pair, then exit hard
                # (never fall back into the zygote loop).
                status = 1
                try:
                    with open(out_fifo, "w") as out, open(in_fifo, "r") as inp:
                        status = serve_with_handler(handler, inp, out)
                finally:
                    os._exit(status)
            # Master: reap any finished workers without blocking.
            try:
                while os.waitpid(-1, os.WNOHANG) != (0, 0):
                    pass
            except ChildProcessError:
                pass
            sys.stdout.write(f"FORKED {pid}\n")
            sys.stdout.flush()
    return 0


class ZygoteRunner:
    """Measures fork-from-warm-zygote start-ups."""

    technique = "zygote"

    def __init__(self, function: str) -> None:
        if not hasattr(os, "fork"):
            raise RealProcessError("zygote runner requires a POSIX host")
        self.function = function
        self._tmpdir = tempfile.mkdtemp(prefix="repro-zygote-")
        self.proc = subprocess.Popen(
            [sys.executable, "-c",
             "from repro.realproc.zygote import zygote_main; "
             f"raise SystemExit(zygote_main(['--function', '{function}']))"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, bufsize=1,
        )
        banner = self.proc.stdout.readline()
        if banner.strip() != "ZREADY":
            raise RealProcessError(
                f"zygote for {function!r} failed to start: {banner!r}"
            )

    def start_once(self) -> RealStartupSample:
        """Fork one worker, wait for READY and one response."""
        token = uuid.uuid4().hex[:10]
        in_fifo = os.path.join(self._tmpdir, f"in-{token}")
        out_fifo = os.path.join(self._tmpdir, f"out-{token}")
        os.mkfifo(in_fifo)
        os.mkfifo(out_fifo)
        try:
            t0 = time.monotonic_ns()
            self.proc.stdin.write(f"SPAWN {in_fifo} {out_fifo}\n")
            self.proc.stdin.flush()
            # Open order mirrors the worker: it opens out for write
            # first, we open out for read first.
            with open(out_fifo, "r") as out:
                with open(in_fifo, "w") as inp:
                    ready_line = out.readline()
                    if not ready_line:
                        raise RealProcessError("zygote worker died before READY")
                    parse_ready_line(ready_line)
                    startup_ms = (time.monotonic_ns() - t0) / 1e6
                    inp.write("\n")
                    inp.flush()
                    service_ns, _digest = parse_ok_line(out.readline())
                    first_service_ms = service_ns / 1e6
                    inp.write("QUIT\n")
                    inp.flush()
        finally:
            for path in (in_fifo, out_fifo):
                try:
                    os.unlink(path)
                except OSError:
                    pass
        return RealStartupSample(
            technique=self.technique,
            function=self.function,
            startup_ms=startup_ms,
            first_service_ms=first_service_ms,
        )

    def measure(self, repetitions: int = 20) -> List[RealStartupSample]:
        return [self.start_once() for _ in range(repetitions)]

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("QUIT\n")
                self.proc.stdin.flush()
                self.proc.wait(timeout=5)
            except Exception:
                self.proc.kill()
                self.proc.wait()

    def __enter__(self) -> "ZygoteRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
