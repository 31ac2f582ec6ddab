"""One entry point per paper table/figure (the experiment index of
DESIGN.md §5). Each function runs the full protocol and returns a
structured result with a ``render()`` method producing the paper-style
text output; ``paper`` fields carry the published values so reports can
show paper-vs-measured side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import make_world
from repro.bench.harness import (
    ServiceSummary,
    StartupSummary,
    run_service_experiment,
    run_startup_experiment,
)
from repro.bench.report import format_interval, format_table, stacked_bar
from repro.bench.stats import ks_distance, mann_whitney_u
from repro.core.policy import AfterReady, AfterRuntimeBoot, AfterWarmup
from repro.criu.restore import RestoreMode
from repro.functions import make_app  # noqa: F401 - registers workloads

REAL_FUNCTIONS = ("noop", "markdown", "image-resizer")
SYNTHETIC_FUNCTIONS = ("synthetic-small", "synthetic-medium", "synthetic-big")

# Published values (for EXPERIMENTS.md comparisons).
PAPER_FIG3_IMPROVEMENT = {"noop": 40.0, "markdown": 47.0, "image-resizer": 71.0}
PAPER_TABLE1 = {
    "synthetic-small": {"vanilla": (219.25, 220.32), "nowarmup": (172.12, 172.80),
                        "warmup": (54.06, 54.75)},
    "synthetic-medium": {"vanilla": (455.45, 456.64), "nowarmup": (360.51, 361.24),
                         "warmup": (63.46, 63.99)},
    "synthetic-big": {"vanilla": (1619.91, 1622.08), "nowarmup": (1339.90, 1340.98),
                      "warmup": (83.62, 84.35)},
}
PAPER_FIG6_RATIOS = {
    "synthetic-small": {"nowarmup": 127.45, "warmup": 403.96},
    "synthetic-big": {"nowarmup": 121.07, "warmup": 1932.49},
}


# ---------------------------------------------------------------------------
# Figure 3 — start-up comparison, real functions
# ---------------------------------------------------------------------------

@dataclass
class Fig3Row:
    function: str
    vanilla: StartupSummary
    prebake: StartupSummary
    improvement_pct: float
    mwu_p: float


@dataclass
class Fig3Result:
    rows: List[Fig3Row] = field(default_factory=list)

    def render(self) -> str:
        table_rows = []
        for row in self.rows:
            vci = row.vanilla.ci()
            pci = row.prebake.ci()
            table_rows.append([
                row.function,
                f"{row.vanilla.median_ms:.2f}",
                format_interval(vci.low, vci.high),
                f"{row.prebake.median_ms:.2f}",
                format_interval(pci.low, pci.high),
                f"{row.improvement_pct:.1f}%",
                f"{PAPER_FIG3_IMPROVEMENT[row.function]:.0f}%",
                f"{row.mwu_p:.2e}",
            ])
        return (
            "Figure 3 — start-up time, vanilla vs prebaking (medians, 95% bootstrap CI)\n"
            + format_table(
                ["function", "vanilla(ms)", "CI", "prebake(ms)", "CI",
                 "improvement", "paper", "MWU p"],
                table_rows,
            )
        )


def figure3(repetitions: int = 200, seed: int = 42,
            workers: int = 1) -> Fig3Result:
    """Reproduce Figure 3: NOOP/Markdown/Image Resizer start-up.

    ``workers`` fans repetitions over processes (identical output for
    any worker count; see :func:`run_startup_experiment`)."""
    result = Fig3Result()
    for name in REAL_FUNCTIONS:
        vanilla = run_startup_experiment(name, "vanilla",
                                         repetitions=repetitions, seed=seed,
                                         workers=workers)
        prebake = run_startup_experiment(name, "prebake", policy=AfterReady(),
                                         repetitions=repetitions, seed=seed + 1,
                                         workers=workers)
        test = mann_whitney_u(vanilla.values, prebake.values)
        result.rows.append(Fig3Row(
            function=name,
            vanilla=vanilla,
            prebake=prebake,
            improvement_pct=100.0 * (1 - prebake.median_ms / vanilla.median_ms),
            mwu_p=test.p_value,
        ))
    return result


# ---------------------------------------------------------------------------
# Figure 4 — phase breakdown
# ---------------------------------------------------------------------------

@dataclass
class Fig4Cell:
    function: str
    technique: str
    phases: Dict[str, float]

    @property
    def total_ms(self) -> float:
        return sum(self.phases.values())


@dataclass
class Fig4Result:
    cells: List[Fig4Cell] = field(default_factory=list)

    def cell(self, function: str, technique: str) -> Fig4Cell:
        for c in self.cells:
            if c.function == function and c.technique == technique:
                return c
        raise KeyError(f"no cell for {function}/{technique}")

    def render(self) -> str:
        rows = []
        for c in self.cells:
            rows.append([
                c.function, c.technique,
                f"{c.phases['CLONE']:.2f}", f"{c.phases['EXEC']:.2f}",
                f"{c.phases['RTS']:.2f}", f"{c.phases['APPINIT']:.2f}",
                f"{c.total_ms:.2f}",
                stacked_bar(c.phases, total_width=40),
            ])
        return (
            "Figure 4 — start-up phase medians (ms); bars: C=CLONE E=EXEC R=RTS A=APPINIT\n"
            + format_table(
                ["function", "technique", "CLONE", "EXEC", "RTS", "APPINIT",
                 "total", "stacked"],
                rows,
            )
        )


def figure4(repetitions: int = 200, seed: int = 42,
            trace_path: Optional[str] = None) -> Fig4Result:
    """Reproduce Figure 4: CLONE/EXEC/RTS/APPINIT per function/technique.

    ``trace_path`` additionally records every repetition's lifecycle
    spans and writes them as one JSONL trace file (summarize it with
    ``python -m repro.obs.cli``).
    """
    from repro.obs.export import write_trace_jsonl
    result = Fig4Result()
    trace_sink: Optional[List[Dict[str, object]]] = \
        [] if trace_path is not None else None
    for name in REAL_FUNCTIONS:
        for technique in ("vanilla", "prebake"):
            summary = run_startup_experiment(
                name, technique, policy=AfterReady(),
                repetitions=repetitions, seed=seed, trace_phases=True,
                trace_sink=trace_sink,
            )
            result.cells.append(Fig4Cell(
                function=name,
                technique=technique,
                phases=summary.phase_medians(),
            ))
    if trace_path is not None:
        write_trace_jsonl(trace_path, trace_sink)
    return result


# ---------------------------------------------------------------------------
# Figure 5 — vanilla start-up vs function size
# ---------------------------------------------------------------------------

@dataclass
class Fig5Result:
    summaries: List[StartupSummary] = field(default_factory=list)

    def render(self) -> str:
        rows = []
        for s in self.summaries:
            ci = s.ci()
            rows.append([s.function, f"{s.median_ms:.2f}",
                         format_interval(ci.low, ci.high),
                         format_interval(*PAPER_TABLE1[s.function]["vanilla"])])
        return (
            "Figure 5 — vanilla start-up vs function size (95% CI)\n"
            + format_table(["function", "median(ms)", "CI", "paper CI"], rows)
        )


def figure5(repetitions: int = 200, seed: int = 42) -> Fig5Result:
    """Reproduce Figure 5: function size impact under vanilla start."""
    result = Fig5Result()
    for name in SYNTHETIC_FUNCTIONS:
        result.summaries.append(
            run_startup_experiment(name, "vanilla",
                                   repetitions=repetitions, seed=seed)
        )
    return result


# ---------------------------------------------------------------------------
# Figure 6 + Table 1 — the full factorial with snapshot policies
# ---------------------------------------------------------------------------

@dataclass
class FactorialCell:
    function: str
    treatment: str       # vanilla | nowarmup | warmup
    summary: StartupSummary


@dataclass
class FactorialResult:
    cells: List[FactorialCell] = field(default_factory=list)

    def summary(self, function: str, treatment: str) -> StartupSummary:
        for cell in self.cells:
            if cell.function == function and cell.treatment == treatment:
                return cell.summary
        raise KeyError(f"no cell for {function}/{treatment}")

    def ratio_pct(self, function: str, treatment: str) -> float:
        vanilla = self.summary(function, "vanilla").median_ms
        other = self.summary(function, treatment).median_ms
        return 100.0 * vanilla / other

    def render_figure6(self) -> str:
        rows = []
        for name in SYNTHETIC_FUNCTIONS:
            paper = PAPER_FIG6_RATIOS.get(name, {})
            rows.append([
                name,
                f"{self.ratio_pct(name, 'nowarmup'):.2f}%",
                f"{paper.get('nowarmup', float('nan')):.2f}%" if paper else "-",
                f"{self.ratio_pct(name, 'warmup'):.2f}%",
                f"{paper.get('warmup', float('nan')):.2f}%" if paper else "-",
            ])
        return (
            "Figure 6 — start-up speed-up over vanilla (vanilla/prebake x 100)\n"
            + format_table(
                ["function", "PB-NOWarmup", "paper", "PB-Warmup", "paper"], rows)
        )

    def render_table1(self) -> str:
        rows = []
        for name in SYNTHETIC_FUNCTIONS:
            row = [name.replace("synthetic-", "").capitalize()]
            for treatment in ("vanilla", "nowarmup", "warmup"):
                ci = self.summary(name, treatment).ci()
                row.append(format_interval(ci.low, ci.high))
                row.append(format_interval(*PAPER_TABLE1[name][treatment]))
            rows.append(row)
        return (
            "Table 1 — start-up intervals (ms, 95% confidence), measured vs paper\n"
            + format_table(
                ["size", "Vanilla", "paper", "PB-NOWarmup", "paper",
                 "PB-Warmup", "paper"],
                rows,
            )
        )


def factorial(repetitions: int = 200, seed: int = 42) -> FactorialResult:
    """Run the §4.2.2 full factorial: 3 techniques x 3 function sizes."""
    result = FactorialResult()
    treatments = (
        ("vanilla", "vanilla", AfterReady()),
        ("nowarmup", "prebake", AfterReady()),
        ("warmup", "prebake", AfterWarmup(requests=1)),
    )
    for name in SYNTHETIC_FUNCTIONS:
        for label, technique, policy in treatments:
            summary = run_startup_experiment(
                name, technique, policy=policy,
                repetitions=repetitions, seed=seed,
            )
            result.cells.append(FactorialCell(name, label, summary))
    return result


# ---------------------------------------------------------------------------
# Figure 7 — service-time ECDF overlap
# ---------------------------------------------------------------------------

@dataclass
class Fig7Row:
    function: str
    vanilla: ServiceSummary
    prebake: ServiceSummary
    ks: float
    mwu_p: float


@dataclass
class Fig7Result:
    rows: List[Fig7Row] = field(default_factory=list)

    def render(self) -> str:
        table_rows = []
        for row in self.rows:
            table_rows.append([
                row.function,
                f"{row.vanilla.median_ms:.3f}",
                f"{row.prebake.median_ms:.3f}",
                f"{row.ks:.3f}",
                f"{row.mwu_p:.3f}",
                "coincide" if row.mwu_p > 0.05 else "DIFFER",
            ])
        return (
            "Figure 7 — service time after start-up (200 requests); "
            "ECDFs should coincide\n"
            + format_table(
                ["function", "vanilla med(ms)", "prebake med(ms)", "KS dist",
                 "MWU p", "verdict"],
                table_rows,
            )
        )


def figure7(requests: int = 200, seed: int = 42) -> Fig7Result:
    """Reproduce Figure 7: no service-time penalty after restore."""
    result = Fig7Result()
    for name in REAL_FUNCTIONS:
        vanilla = run_service_experiment(name, "vanilla",
                                         requests=requests, seed=seed)
        prebake = run_service_experiment(name, "prebake", policy=AfterReady(),
                                         requests=requests, seed=seed)
        result.rows.append(Fig7Row(
            function=name,
            vanilla=vanilla,
            prebake=prebake,
            ks=ks_distance(vanilla.service_times_ms, prebake.service_times_ms),
            mwu_p=mann_whitney_u(vanilla.service_times_ms,
                                 prebake.service_times_ms).p_value,
        ))
    return result


# ---------------------------------------------------------------------------
# Section 5 — OpenFaaS integration
# ---------------------------------------------------------------------------

@dataclass
class Sec5Result:
    rows: List[Tuple[str, str, float, float]] = field(default_factory=list)
    # (function, template, build_ms, cold_start_ms)

    def render(self) -> str:
        return (
            "Section 5 — OpenFaaS integration: new/build/push/deploy then cold start\n"
            + format_table(
                ["function", "template", "build(ms)", "cold start(ms)"],
                [[f, t, f"{b:.1f}", f"{c:.2f}"] for f, t, b, c in self.rows],
            )
        )


def section5(seed: int = 42) -> Sec5Result:
    """Drive the §5 flow for vanilla and CRIU templates."""
    from repro.faas.openfaas.stack import make_openfaas_stack

    result = Sec5Result()
    cases = [
        ("markdown", "java8"),
        ("markdown", "java8-criu"),
        ("markdown", "java8-criu-warm"),
        ("image-resizer", "java8-criu-warm"),
    ]
    for index, (fn, template) in enumerate(cases):
        world = make_world(seed=seed + index)
        stack = make_openfaas_stack(world.kernel)
        factory = lambda fn=fn: make_app(fn)
        stack.cli.new(fn, template, factory)
        t0 = world.now
        stack.cli.build(fn)
        build_ms = world.now - t0
        stack.cli.push(fn)
        stack.cli.deploy(fn)
        response = stack.gateway.invoke(fn)
        assert response.ok
        (cold,) = stack.platform.cold_start_latencies(fn)
        result.rows.append((fn, template, build_ms, cold))
    return result


# ---------------------------------------------------------------------------
# Ablations — restore strategy and snapshot point
# ---------------------------------------------------------------------------

@dataclass
class AblationResult:
    title: str
    rows: List[Tuple[str, str, float]] = field(default_factory=list)
    # (function, variant, median startup ms)

    def render(self) -> str:
        return (
            f"{self.title}\n"
            + format_table(
                ["function", "variant", "median startup(ms)"],
                [[f, v, f"{m:.2f}"] for f, v, m in self.rows],
            )
        )


def ablation_restore(repetitions: int = 100, seed: int = 42) -> AblationResult:
    """Eager vs lazy vs in-memory restore (future-work [26], §7)."""
    result = AblationResult(
        title="Ablation — restore strategy (warm snapshots, time to ready)"
    )
    variants = (
        ("eager-disk", RestoreMode.EAGER, False),
        ("eager-inmem", RestoreMode.EAGER, True),
        ("lazy-disk", RestoreMode.LAZY, False),
        ("lazy-inmem", RestoreMode.LAZY, True),
    )
    for name in ("synthetic-small", "synthetic-big"):
        for label, mode, in_memory in variants:
            # "ready" is the right metric here: lazy restore trades
            # readiness latency against first-request latency, and the
            # in-memory image cache only affects the restore itself.
            summary = run_startup_experiment(
                name, "prebake", policy=AfterWarmup(requests=1),
                repetitions=repetitions, seed=seed,
                restore_mode=mode, in_memory=in_memory,
                metric="ready",
            )
            result.rows.append((name, label, summary.median_ms))
    return result


def ablation_bake_timing(repetitions: int = 60, seed: int = 42) -> AblationResult:
    """When to bake: at deploy (build) time vs lazily on first start.

    The paper's design (§3.1) bakes at build time precisely because
    that keeps snapshot generation off the request path. This ablation
    quantifies the alternative: a lazily-baked function pays vanilla
    start-up *plus* the checkpoint on its first cold start.
    """
    from repro import make_world
    from repro.core.manager import PrebakeManager
    from repro.sim.rng import _derive_seed

    result = AblationResult(
        title="Ablation — bake at build time vs on first cold start "
              "(first request's observed start-up, ms)"
    )
    for name in ("markdown", "synthetic-medium"):
        build_time = []
        lazy = []
        for rep in range(repetitions):
            # Build-time bake: the deploy already produced the snapshot.
            world = make_world(seed=_derive_seed(seed, f"bt-{name}-{rep}"))
            manager = PrebakeManager(world.kernel)
            app = make_app(name)
            manager.deploy(app, policy=AfterWarmup(1))
            t0 = world.now
            handle = manager.start_replica(app, technique="prebake",
                                           policy=AfterWarmup(1))
            handle.invoke()
            build_time.append(world.now - t0)

            # Lazy bake: nothing exists until the first request needs a
            # replica — the bake runs inline, on the request path.
            world = make_world(seed=_derive_seed(seed, f"lz-{name}-{rep}"))
            manager = PrebakeManager(world.kernel)
            app = make_app(name)
            t0 = world.now
            handle = manager.start_replica(app, technique="prebake",
                                           policy=AfterWarmup(1))
            handle.invoke()
            lazy.append(world.now - t0)
        from repro.bench.stats import median as med
        result.rows.append((name, "bake-at-build", med(build_time)))
        result.rows.append((name, "bake-on-first-start", med(lazy)))
    return result


def ext_runtimes(repetitions: int = 100, seed: int = 42) -> AblationResult:
    """The paper's §7 future work: prebaking across runtimes.

    Runs markdown-rendering functions hosted on the JVM, CPython and
    Node.js runtime models under vanilla vs warm-prebake start. The
    non-JVM constants are projections, not paper fits — the point is
    the *relative* picture: every runtime benefits, and the benefit
    scales with how much bootstrap + lazy-load state the snapshot
    captures.
    """
    result = AblationResult(
        title="Extension — prebaking across runtimes (to first response)"
    )
    cases = ("markdown", "py-markdown", "node-markdown")
    for name in cases:
        for label, technique, policy in (
            ("vanilla", "vanilla", AfterReady()),
            ("prebake-warm", "prebake", AfterWarmup(requests=1)),
        ):
            summary = run_startup_experiment(
                name, technique, policy=policy,
                repetitions=repetitions, seed=seed,
                metric="first_response",
            )
            result.rows.append((name, label, summary.median_ms))
    return result


def ablation_snapshot_point(repetitions: int = 100, seed: int = 42) -> AblationResult:
    """Where along start-up to snapshot (§3.1's design discussion)."""
    result = AblationResult(
        title="Ablation — snapshot point along the start-up lifecycle"
    )
    points = (
        ("after-runtime-boot", AfterRuntimeBoot()),
        ("after-ready", AfterReady()),
        ("after-warmup-1", AfterWarmup(requests=1)),
        ("after-warmup-5", AfterWarmup(requests=5)),
    )
    for name in ("markdown", "synthetic-medium"):
        for label, policy in points:
            summary = run_startup_experiment(
                name, "prebake", policy=policy,
                repetitions=repetitions, seed=seed,
                metric="first_response",
            )
            result.rows.append((name, label, summary.median_ms))
    return result
