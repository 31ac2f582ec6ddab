"""Phase-profile experiment: Figure 4's question, answered per request.

Runs start-up episodes for both techniques with the
:mod:`repro.obs.profile` profiler subscribed to the kernel probes,
checks the accounting invariant (the four top-level phases sum to the
measured start-up time, restore sub-phases partition the restore
charge), and renders

* a folded-stack flamegraph (``technique;function;PHASE[;sub] <µs>``,
  the format ``flamegraph.pl``/speedscope ingest directly), and
* a per-technique critical-path table in the paper's CLONE / EXEC /
  RTS / APPINIT taxonomy, restore sub-phases indented under APPINIT.

:func:`profiled_start` is the one measured start: the profiler is
installed *after* deploy/bake and detached at ready, so samples cover
exactly the window ``startup_ms("ready")`` measures. The Figure 4
harness (:mod:`repro.bench.harness`) measures its phases through it
too.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro import make_world
from repro.bench.report import format_table
from repro.bench.stats import median
from repro.core.manager import PrebakeManager
from repro.core.starters import ReplicaHandle
from repro.functions.base import make_app
from repro.obs import profile as prof
from repro.obs.profile import PhaseSample
from repro.sim.rng import _derive_seed

PROFILE_SCHEMA_VERSION = 1

# Float-exact phase recording means the per-episode accounting error is
# pure summation round-off; anything past this bound is a real leak.
ACCOUNTING_TOLERANCE_MS = 1e-6


class ProfileAccountingError(AssertionError):
    """Phase totals failed to sum to the measured start-up time."""


@dataclass
class ProfileRun:
    """One profiled start-up episode."""

    technique: str
    function: str
    rep: int
    startup_ms: float
    samples: List[PhaseSample] = field(default_factory=list)

    def accounting_error_ms(self) -> float:
        return abs(sum(s.duration_ms for s in self.samples) - self.startup_ms)

    def verify(self) -> None:
        error = self.accounting_error_ms()
        if error > ACCOUNTING_TOLERANCE_MS:
            raise ProfileAccountingError(
                f"{self.technique}/{self.function} rep {self.rep}: phases "
                f"sum to {sum(s.duration_ms for s in self.samples):.6f} ms "
                f"but start-up measured {self.startup_ms:.6f} ms "
                f"(error {error:.2e} ms)"
            )

    def as_dict(self) -> Dict[str, object]:
        return {
            "technique": self.technique,
            "function": self.function,
            "rep": self.rep,
            "startup_ms": self.startup_ms,
            "samples": [s.as_dict() for s in self.samples],
        }


@dataclass
class ProfileResult:
    """All profiled episodes of one function, both techniques."""

    function: str
    repetitions: int
    seed: int
    runs: List[ProfileRun] = field(default_factory=list)

    def technique_runs(self, technique: str) -> List[ProfileRun]:
        return [r for r in self.runs if r.technique == technique]

    def folded(self) -> List[str]:
        """Folded-stack lines aggregated over every profiled episode."""
        lines: List[str] = []
        by_prefix: Dict[str, List[PhaseSample]] = {}
        for run in self.runs:
            key = f"{run.technique};{run.function}"
            by_prefix.setdefault(key, []).extend(run.samples)
        for prefix in sorted(by_prefix):
            lines.extend(prof.folded_lines(by_prefix[prefix], prefix=prefix))
        return lines

    def critical_path_table(self, technique: str) -> str:
        """Mean-per-episode phase table; top-level rows sum to start-up."""
        runs = self.technique_runs(technique)
        if not runs:
            raise ValueError(f"no runs for technique {technique!r}")
        samples: List[PhaseSample] = []
        for run in runs:
            samples.extend(run.samples)
        table_rows = []
        for phase, ms, share in prof.critical_path_rows(samples):
            table_rows.append([phase, f"{ms / len(runs):.3f}",
                               f"{100.0 * share:.1f}%"])
        return format_table(["phase", "mean ms/episode", "share"], table_rows)

    def render(self) -> str:
        lines = [
            f"Phase profile — {self.function}, "
            f"{self.repetitions} rep(s)/technique, seed {self.seed}",
        ]
        for technique in ("vanilla", "prebake"):
            runs = self.technique_runs(technique)
            if not runs:
                continue
            startup = median([r.startup_ms for r in runs])
            worst = max(r.accounting_error_ms() for r in runs)
            lines.append("")
            lines.append(f"[{technique}] start-up median "
                         f"{startup:.2f} ms — phase sums match start-up "
                         f"in every episode (max error {worst:.1e} ms)")
            lines.append(self.critical_path_table(technique))
        lines.append("")
        lines.append("Folded stacks (flamegraph.pl / speedscope):")
        lines.extend(self.folded())
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        return {
            "schema_version": PROFILE_SCHEMA_VERSION,
            "function": self.function,
            "repetitions": self.repetitions,
            "seed": self.seed,
            "runs": [run.as_dict() for run in self.runs],
        }


def result_from_dict(payload: Dict[str, object]) -> ProfileResult:
    """Rebuild a :class:`ProfileResult` from its JSON dump."""
    version = payload.get("schema_version")
    if version != PROFILE_SCHEMA_VERSION:
        raise ValueError(f"profile dump schema v{version}, "
                         f"expected v{PROFILE_SCHEMA_VERSION}")
    result = ProfileResult(
        function=str(payload["function"]),
        repetitions=int(payload["repetitions"]),
        seed=int(payload["seed"]),
    )
    for record in payload["runs"]:  # type: ignore[union-attr]
        run = ProfileRun(
            technique=str(record["technique"]),
            function=str(record["function"]),
            rep=int(record["rep"]),
            startup_ms=float(record["startup_ms"]),
        )
        for s in record["samples"]:
            run.samples.append(PhaseSample(
                phase=str(s["phase"]),
                duration_ms=float(s["duration_ms"]),
                at_ms=float(s["at_ms"]),
                pid=s.get("pid"),
                attrs=dict(s.get("attrs") or {}),
            ))
        result.runs.append(run)
    return result


def profiled_start(kernel, starter, app, technique: str,
                   rep: int) -> Tuple[ReplicaHandle, ProfileRun]:
    """Start one replica with the profiler attached for exactly its
    start window; return the handle and the verified run.

    "ready" is the window the taxonomy partitions (DESIGN.md §7/§10);
    first-response metrics would add serve time the phases
    deliberately exclude. Raises :class:`ProfileAccountingError` when
    the phases do not sum to that window.
    """
    profiler = prof.install(kernel)
    handle = starter.start(app)
    run = ProfileRun(technique=technique, function=app.name, rep=rep,
                     startup_ms=handle.startup_ms("ready"),
                     samples=profiler.reset())
    prof.uninstall(kernel)
    run.verify()
    return handle, run


def run_profile_experiment(
    function: str = "image-resizer",
    repetitions: int = 5,
    seed: int = 42,
    metrics_sink=None,
) -> ProfileResult:
    """Profile ``repetitions`` fresh-world start-ups per technique
    (vanilla, then prebake from an eager restore of a ready snapshot).

    Every episode runs in its own world (harness protocol); the
    profiler is installed after deploy so the sample window equals the
    measured start-up window, and each run is verified against the
    accounting invariant before being returned.

    ``metrics_sink``, when given a :class:`MetricsRegistry`, receives
    every episode world's metrics merged in (for ``--metrics-out``).
    """
    result = ProfileResult(function=function, repetitions=repetitions,
                           seed=seed)
    for technique in ("vanilla", "prebake"):
        for rep in range(repetitions):
            world = make_world(
                seed=_derive_seed(seed, f"profile-{technique}-{rep}"),
                observe=True,
            )
            kernel = world.kernel
            manager = PrebakeManager(kernel)
            app = make_app(function)
            if technique == "prebake":
                manager.deploy(app)
                starter = manager.starter(
                    technique, version=manager.current_version(app.name))
            else:
                starter = manager.starter(technique)
            _, run = profiled_start(kernel, starter, app, technique, rep)
            result.runs.append(run)
            if metrics_sink is not None and kernel.obs is not None:
                metrics_sink.merge(kernel.obs.metrics)
    return result


def write_profile_json(path, result: ProfileResult) -> None:
    pathlib.Path(path).write_text(
        json.dumps(result.as_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load_profile_json(path) -> ProfileResult:
    return result_from_dict(
        json.loads(pathlib.Path(path).read_text(encoding="utf-8")))


def write_folded(path, result: ProfileResult) -> None:
    pathlib.Path(path).write_text(
        "\n".join(result.folded()) + "\n", encoding="utf-8")
