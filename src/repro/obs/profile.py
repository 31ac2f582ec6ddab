"""Phase-level profiling of the start-up critical path.

The paper's Figure 4 splits replica start-up into four phases measured
with bpftrace — CLONE, EXEC, RTS (runtime bootstrap) and APPINIT — and
shows prebaking collapses the cost into the restore window. This
module attributes *simulated* time to exactly that taxonomy, plus the
restore sub-phases the snapshot machinery introduced (digest-verify,
chunk-fetch, working-set-prefetch, lazy page-fault, repair, retry
backoff), so a profile answers the same question the paper's Figure 4
does: where does the cold start spend its time?

Each phase occurrence is emitted once, as a charge on a
``kernel.probes`` event (:data:`PHASE_PROBES`): CLONE and EXEC on the
``clone``/``execve`` exits, RTS on ``runtime.main``, APPINIT on
``runtime.ready``, the restore partition on ``criu.restore``, and the
fault-path and demand-fault time on events of their own. The profiler
is a layer of the telemetry hub (:mod:`repro.obs`):
``kernel.obs.profile``, ``None`` until :func:`install` subscribes it to
those probes (installing the hub too); :func:`uninstall` detaches it.
It only listens — no randomness, no simulated time — so figure outputs
are byte-identical whether or not a profile is being collected.
:func:`fold` is the one accounting over samples: Figure 4, the
``prebake-bench profile`` table and the accounting check all read it.

Attribution convention (matches DESIGN.md §7's accounting): a restored
replica pays no RTS and its whole restore window counts as APPINIT, so
the ``restore.*`` sub-phases fold *under* APPINIT in flamegraph output
and the invariant

    CLONE + EXEC + RTS + APPINIT == ready - spawned

holds for both techniques. Retries included: each attempt's clone and
exec land in CLONE and EXEC, its burned restore work and the backoff
in APPINIT's sub-phases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, TYPE_CHECKING

from repro import obs

if TYPE_CHECKING:  # pragma: no cover - osproc imports this module
    from repro.osproc.probes import SyscallRecord

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
RESTORE_REPAIR = "restore.repair"                    # chunk-level image repair
RESTORE_BACKOFF = "restore.retry-backoff"            # wait between attempts
RESTORE_SHARD_FETCH = "restore.shard-fetch"          # quorum hops to storage nodes

STARTUP_PHASES = (PHASE_CLONE, PHASE_EXEC, PHASE_RTS, PHASE_APPINIT)
RESTORE_PHASES = (RESTORE_DIGEST_VERIFY, RESTORE_PIPELINE_RAMP,
                  RESTORE_CHUNK_FETCH, RESTORE_WS_PREFETCH,
                  RESTORE_LAZY_FAULT, RESTORE_REPAIR, RESTORE_BACKOFF,
                  RESTORE_SHARD_FETCH)


# Probe points whose events carry phase charges, as (direction, probe):
# the CLONE/EXEC syscall exits, the runtime's main()/ready boundaries,
# the finished restore (its sub-phase partition), and the fault-path
# and demand-fault events published via ``ProbeRegistry.charge``.
PHASE_PROBES = (
    ("exit", "clone"), ("exit", "execve"),
    ("enter", "runtime.main"), ("enter", "runtime.ready"),
    ("enter", "criu.restore"),
    ("enter", RESTORE_CHUNK_FETCH), ("enter", RESTORE_LAZY_FAULT),
    ("enter", RESTORE_REPAIR), ("enter", RESTORE_BACKOFF),
)


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
    """Per-world phase-time collector (the hub's ``profile`` layer):
    one sample per charge on a :data:`PHASE_PROBES` event."""

    def __init__(self) -> None:
        self.samples: List[PhaseSample] = []

    def on_probe(self, record: "SyscallRecord") -> None:
        for phase, duration_ms, attrs in record.charges:
            self.samples.append(PhaseSample(
                phase, duration_ms, record.timestamp, record.pid,
                dict(attrs)))

    def reset(self) -> List[PhaseSample]:
        """Return all samples and clear the buffer (per-episode use)."""
        drained, self.samples = self.samples, []
        return drained


def install(kernel) -> PhaseProfiler:
    """Install (or fetch) a profiler on the hub, installing the hub if
    needed, and subscribe it to the phase-carrying probes."""
    hub = obs.install(kernel)
    if hub.profile is None:
        hub.profile = PhaseProfiler()
        for direction, probe in PHASE_PROBES:
            subscribe = (kernel.probes.on_exit if direction == "exit"
                         else kernel.probes.on_enter)
            subscribe(probe, hub.profile.on_probe)
    return hub.profile


def uninstall(kernel) -> None:
    """Detach the profiler from the hub and from every probe."""
    hub = kernel.obs
    if hub is not None and hub.profile is not None:
        kernel.probes.detach(hub.profile.on_probe)
        hub.profile = None


def fold(samples: Iterable[PhaseSample]) -> Dict[str, float]:
    """The Figure-4 accounting of a sample window.

    The four top-level phases come first, always present, with the
    ``restore.*`` sub-phases folded into APPINIT — over one start-up
    window they sum to ``ready - spawned``. The sub-phases that
    occurred follow, each with its own total, as a decomposition of
    APPINIT rather than additional time.
    """
    raw: Dict[str, float] = {}
    for sample in samples:
        raw[sample.phase] = raw.get(sample.phase, 0.0) + sample.duration_ms
    out = {phase: 0.0 for phase in STARTUP_PHASES}
    for phase, ms in raw.items():
        out[phase_stack(phase)[0]] += ms
    out.update((phase, ms) for phase, ms in raw.items()
               if phase not in STARTUP_PHASES)
    return out


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

    Rows follow :func:`fold`: the four top-level phases, which sum to
    the measured start-up time, with the restore sub-phases indented
    under APPINIT as a decomposition of it, not additional time.
    """
    folded = fold(samples)
    total = sum(folded[phase] for phase in STARTUP_PHASES)
    rows: List[Tuple[str, float, float]] = []
    for phase in STARTUP_PHASES:
        ms = folded[phase]
        rows.append((phase, ms, ms / total if total else 0.0))
        if phase == PHASE_APPINIT:
            for sub in RESTORE_PHASES:
                sub_ms = folded.get(sub, 0.0)
                if sub_ms:
                    rows.append((f"  {sub}", sub_ms,
                                 sub_ms / total if total else 0.0))
    return rows
