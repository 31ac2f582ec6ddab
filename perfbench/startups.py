"""Start-up measurements outside the simulated replay.

* :func:`fig3_error_pp` runs a fixed ``figures.figure3`` pass (seed 42,
  independent of the workload seed) and returns the largest gap between
  the simulated and the paper's Figure 3 start-up improvements.
* :class:`RealStarts` times real ``repro.realproc`` starts of one
  function on this host: plain fork-exec of a fresh interpreter, and
  forks of a warm zygote (the prebake analogue). Beside them it times a
  reference start that runs no code of this repository, a measure of
  how fast the host is at that moment.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import List

# Paper, Figure 3: prebaking's start-up improvement per function (%).
PAPER_FIG3_IMPROVEMENT_PCT = {"noop": 40.0, "markdown": 47.0, "image-resizer": 71.0}
FIG3_REPETITIONS = 20
FIG3_SEED = 42
REAL_FUNCTION = "markdown"
# An isolated interpreter (no PYTHONPATH, no user site) importing what
# the function's dependencies rest on; timed from fork-exec to exit.
REFERENCE_START = (sys.executable, "-I", "-c", "import json, re, numpy")


def fig3_error_pp() -> float:
    from repro.bench.figures import figure3
    result = figure3(repetitions=FIG3_REPETITIONS, seed=FIG3_SEED)
    return max(abs(row.improvement_pct - PAPER_FIG3_IMPROVEMENT_PCT[row.function])
               for row in result.rows)


def _wait_gone(pids: List[int], timeout_s: float = 10.0) -> None:
    """Wait until processes that are not our children have exited."""
    deadline = time.monotonic() + timeout_s
    for pid in pids:
        while time.monotonic() < deadline:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)


class RealStarts:
    """Real start-up samples (ms to READY) of :data:`REAL_FUNCTION`,
    and reference starts (ms to exit) of :data:`REFERENCE_START`.

    Call :meth:`sample` between other work so that both techniques
    sample the host over the whole run rather than over one stretch of
    it. The zygote's FIFOs live under ``workdir``; leaving the ``with``
    block stops the zygote and waits for every worker it forked.
    """

    def __init__(self, workdir: str) -> None:
        from repro.realproc.runner import VanillaProcessRunner
        from repro.realproc.zygote import ZygoteRunner
        self.vanilla_ms: List[float] = []
        self.zygote_ms: List[float] = []
        self.reference_ms: List[float] = []
        self._plain = VanillaProcessRunner()
        saved, tempfile.tempdir = tempfile.tempdir, workdir
        try:
            self._zygote = ZygoteRunner(REAL_FUNCTION)
        finally:
            tempfile.tempdir = saved

    def sample(self, zygote_forks: int) -> None:
        """One reference start, one vanilla start, ``zygote_forks`` zygote forks."""
        t0 = time.perf_counter()
        subprocess.run(REFERENCE_START, check=True)
        self.reference_ms.append((time.perf_counter() - t0) * 1000.0)
        self.vanilla_ms.append(self._plain.start_once(REAL_FUNCTION).startup_ms)
        self.zygote_ms.extend(s.startup_ms for s in self._zygote.measure(
            repetitions=zygote_forks))

    def __enter__(self) -> "RealStarts":
        return self

    def __exit__(self, *exc) -> None:
        runner = self._zygote
        runner.close()
        # The zygote announced each forked worker; those are its
        # children, not ours, so wait for them by pid.
        forked = [int(line.split()[1]) for line in runner.proc.stdout
                  if line.startswith("FORKED ")]
        runner.proc.stdout.close()
        runner.proc.stdin.close()
        _wait_gone(forked)
        shutil.rmtree(runner._tmpdir, ignore_errors=True)
