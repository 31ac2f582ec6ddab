"""Phase-level profiling of the start-up critical path.

The paper's Figure 4 splits replica start-up into four phases measured
with bpftrace — CLONE, EXEC, RTS (runtime bootstrap) and APPINIT — and
shows prebaking collapses the cost into the restore window. This
module attributes *simulated* time to exactly that taxonomy, plus the
restore sub-phases the snapshot machinery introduced (digest-verify,
chunk-fetch, working-set-prefetch, lazy page-fault, repair, retry
backoff), so a profile answers the same question the paper's Figure 4
does: where does the cold start spend its time?

The profiler is a layer of the telemetry hub (:mod:`repro.obs`):
``kernel.obs.profile``, ``None`` until :func:`install` (which installs
the hub too). Instrumented sites call :func:`record`, which early-outs
on the attribute loads, consumes no randomness and charges no
simulated time — figure outputs stay byte-identical whether or not a
profile is being collected.

Attribution convention (matches DESIGN.md §7's accounting): a restored
replica pays no RTS and its whole restore window counts as APPINIT, so
the ``restore.*`` sub-phases fold *under* APPINIT in flamegraph output
and the invariant

    CLONE + EXEC + RTS + APPINIT == ready - spawned

holds for both techniques (retries included; each failed attempt's
clone/exec/restore work lands in the same buckets).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import obs

# -- the phase taxonomy (paper §4.2.1 + restore sub-phases) -----------------

PHASE_CLONE = "CLONE"
PHASE_EXEC = "EXEC"
PHASE_RTS = "RTS"
PHASE_APPINIT = "APPINIT"

# Restore sub-phases: how the APPINIT-equivalent restore window splits.
RESTORE_DIGEST_VERIFY = "restore.digest-verify"      # manifest read + integrity
RESTORE_PIPELINE_RAMP = "restore.pipeline-ramp"      # fill of the fetch pipeline
RESTORE_CHUNK_FETCH = "restore.chunk-fetch"          # page data from the store
RESTORE_WS_PREFETCH = "restore.working-set-prefetch" # REAP recorded-set mapping
RESTORE_LAZY_FAULT = "restore.lazy-page-fault"       # post-resume demand faults
RESTORE_SUBTREE_VERIFY = "restore.subtree-verify"    # Merkle re-verify of repairs
RESTORE_REPAIR = "restore.repair"                    # chunk-level image repair
RESTORE_BACKOFF = "restore.retry-backoff"            # wait between attempts
RESTORE_SHARD_FETCH = "restore.shard-fetch"          # quorum hops to storage nodes

STARTUP_PHASES = (PHASE_CLONE, PHASE_EXEC, PHASE_RTS, PHASE_APPINIT)
RESTORE_PHASES = (RESTORE_DIGEST_VERIFY, RESTORE_PIPELINE_RAMP,
                  RESTORE_CHUNK_FETCH, RESTORE_WS_PREFETCH,
                  RESTORE_LAZY_FAULT, RESTORE_SUBTREE_VERIFY,
                  RESTORE_REPAIR, RESTORE_BACKOFF, RESTORE_SHARD_FETCH)
ALL_PHASES = STARTUP_PHASES + RESTORE_PHASES


def phase_stack(phase: str) -> Tuple[str, ...]:
    """Folded-stack frames for a phase (restore.* nests under APPINIT)."""
    if phase.startswith("restore."):
        return (PHASE_APPINIT, phase)
    return (phase,)


@dataclass
class PhaseSample:
    """One attribution of simulated time to a phase."""

    phase: str
    duration_ms: float
    at_ms: float                    # simulated clock when recorded
    pid: Optional[int] = None
    attrs: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "phase": self.phase,
            "duration_ms": self.duration_ms,
            "at_ms": self.at_ms,
            "pid": self.pid,
            "attrs": dict(self.attrs),
        }


class PhaseProfiler:
    """Per-world phase-time collector (the hub's ``profile`` layer)."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.samples: List[PhaseSample] = []

    def record(self, phase: str, duration_ms: float,
               pid: Optional[int] = None, **attrs: object) -> PhaseSample:
        sample = PhaseSample(
            phase=phase,
            duration_ms=duration_ms,
            at_ms=self.clock.now,
            pid=pid,
            attrs=dict(attrs),
        )
        self.samples.append(sample)
        return sample

    def totals(self) -> Dict[str, float]:
        """Per-phase time, insertion-independent canonical order.

        Raw per-sample-phase sums: ``restore.*`` keys appear beside the
        top-level phases and are *not* folded into APPINIT here — use
        :meth:`phase_totals` for the Figure-4 four-way accounting.
        """
        out: Dict[str, float] = {}
        for phase in ALL_PHASES:
            out[phase] = 0.0
        for sample in self.samples:
            out[sample.phase] = out.get(sample.phase, 0.0) + sample.duration_ms
        return {phase: ms for phase, ms in out.items()
                if ms or phase in STARTUP_PHASES}

    def phase_totals(self) -> Dict[str, float]:
        """Figure-4 accounting: restore sub-phases folded into APPINIT.

        ``sum(phase_totals().values()) == total_ms()`` and, over one
        clean start-up episode, equals ``ready - spawned``.
        """
        out = {phase: 0.0 for phase in STARTUP_PHASES}
        for sample in self.samples:
            top = phase_stack(sample.phase)[0]
            out[top] = out.get(top, 0.0) + sample.duration_ms
        return out

    def total_ms(self) -> float:
        return sum(s.duration_ms for s in self.samples)

    def reset(self) -> List[PhaseSample]:
        """Return all samples and clear the buffer (per-episode use)."""
        drained, self.samples = self.samples, []
        return drained


def install(kernel) -> PhaseProfiler:
    """Install (or fetch) a profiler on the hub, installing the hub if
    needed."""
    hub = obs.install(kernel)
    if hub.profile is None:
        hub.profile = PhaseProfiler(kernel.clock)
    return hub.profile


def uninstall(kernel) -> None:
    """Detach the profiler; instrumentation reverts to zero-cost no-ops."""
    if kernel.obs is not None:
        kernel.obs.profile = None


def record(kernel, phase: str, duration_ms: float,
           pid: Optional[int] = None, **attrs: object) -> None:
    """Attribute time to a phase (no-op when no profiler is installed —
    the same attribute-load early-out as :func:`repro.obs.record`)."""
    hub = kernel.obs
    if hub is not None and hub.profile is not None:
        hub.profile.record(phase, duration_ms, pid=pid, **attrs)


# -- renderers ---------------------------------------------------------------


def folded_lines(samples: List[PhaseSample], prefix: str = "") -> List[str]:
    """Aggregate samples into folded-stack flamegraph lines.

    One line per distinct stack, ``frame;frame;... <integer µs>`` —
    the format ``flamegraph.pl`` and speedscope ingest directly.
    ``prefix`` usually carries ``technique;function``.
    """
    aggregated: Dict[str, float] = {}
    for sample in samples:
        frames = phase_stack(sample.phase)
        stack = ";".join((prefix,) + frames if prefix else frames)
        aggregated[stack] = aggregated.get(stack, 0.0) + sample.duration_ms
    return [f"{stack} {round(ms * 1000)}"
            for stack, ms in sorted(aggregated.items())]


def critical_path_rows(samples: List[PhaseSample]) -> List[Tuple[str, float, float]]:
    """(phase, ms, share-of-total) rows in canonical taxonomy order.

    Top-level rows use the Figure-4 accounting (restore sub-phases
    folded into APPINIT); the sub-phases follow indented under APPINIT
    as a decomposition of it, not additional time. The four top-level
    ``ms`` values therefore sum to the measured start-up time.
    """
    raw: Dict[str, float] = {}
    for sample in samples:
        raw[sample.phase] = raw.get(sample.phase, 0.0) + sample.duration_ms
    folded: Dict[str, float] = {}
    for phase, ms in raw.items():
        top = phase_stack(phase)[0]
        folded[top] = folded.get(top, 0.0) + ms
    total = sum(folded.values())
    rows: List[Tuple[str, float, float]] = []
    for phase in STARTUP_PHASES:
        ms = folded.get(phase, 0.0)
        rows.append((phase, ms, ms / total if total else 0.0))
        if phase == PHASE_APPINIT:
            for sub in RESTORE_PHASES:
                sub_ms = raw.get(sub, 0.0)
                if sub_ms:
                    rows.append((f"  {sub}", sub_ms,
                                 sub_ms / total if total else 0.0))
    return rows
