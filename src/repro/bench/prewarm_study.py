"""X13 — predictive prewarming study: the keep-alive policy ladder.

Prebaking makes a cold start cheap; X13 asks how many a forecast can
avoid, and for how many warm-seconds held. Four rungs replay one
trace through the fleet model (:mod:`repro.bench.fleet_model`), on
one node with one chunk per image:

* **reactive** — no keep-alive: the zero-waste, max-cold corner;
* **fixed** — the 60 s idle timeout, the platform's status quo;
* **histogram** — the platform's
  :class:`~repro.predict.policy.PrewarmController`: an inter-arrival
  histogram picks the keep-alive, an EWMA of window counts sizes the
  warm set, and long predictable gaps get a timer placement;
* **oracle** — the same controller with a policy that reads the next
  window's count off the trace: the clairvoyant bound.

Reactive and fixed run without a controller, as
``PlatformConfig(prewarm=None)`` does. The trace is the X12 fleet
synthesizer plus **timer/cron functions**, periodic triggers whose
periods dwarf any keep-alive and whose images are the largest, so
covering them moves the cold-start tail.

Every rung replays the same trace, so the reps are paired seeds.
"Histogram beats fixed" reads the per-seed differences of cold
starts, cold p99 and wasted warm-seconds: each axis's bootstrap CI of
the median difference must lie below zero (waste may touch it). One
live platform episode with ``PrewarmConfig`` rides along as the
exemplar: forecast, autoscaler prewarm and deployer prefetch fire
there too.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro import make_world
from repro.bench.fleet_model import MIB, FleetModel
from repro.bench.report import format_table
from repro.bench.stats import bootstrap_median_ci
from repro.bench.traces import synthesize_fleet_workload
from repro.faas.platform import FaaSPlatform, PlatformConfig
from repro.functions.base import make_app
from repro.predict.policy import OraclePolicy, PrewarmConfig, PrewarmController
from repro.sim.rng import _derive_seed

POLICY_LADDER = ("reactive", "fixed", "histogram", "oracle")

#: Paired seeds behind the sealed verdict (the baseline's repetitions).
PAIRED_SEEDS = 10

#: The verdict's axes: outcome field, and whether a CI ending exactly
#: at zero still passes (wasted warm-seconds may tie; cold starts and
#: cold p99 must drop).
VERDICT_AXES = (("cold_starts", False), ("cold_p99_ms", False),
                ("wasted_warm_s", True))


#: The planner the histogram and oracle rungs run: the platform's
#: :class:`PrewarmController` with X13's window, service time,
#: keep-alive range, per-window placement budget and replica cap.
#: Per-function keep-alives may exceed the fixed status quo where the
#: histogram says the coverage pays (Serverless-in-the-Wild caps at
#: several multiples of the default for the same reason).
STUDY_PREWARM = PrewarmConfig(
    window_ms=10_000.0, service_ms_hint=150.0,
    keepalive_floor_ms=1_000.0, keepalive_cap_ms=120_000.0,
    max_prewarm_per_tick=16, max_warm_per_function=8)

#: The fixed rung's idle timeout: the platform's status quo, and the
#: keep-alive of a function the planner has not seen arrive yet.
FIXED_KEEPALIVE_MS = 60_000.0

#: Image-prefetch cache per node.
NODE_CACHE_MIB = 768


@dataclass(frozen=True)
class PrewarmStudyConfig:
    """Shape of one X13 run (defaults = the sealed baseline)."""

    functions: int = 36               # Zipf/bursty/Poisson population
    timer_functions: int = 12         # periodic cron-style triggers
    requests: int = 200_000
    duration_ms: float = 7_200_000.0  # 2 simulated hours

    @property
    def total_functions(self) -> int:
        return self.functions + self.timer_functions


@dataclass
class PolicyOutcome:
    """One policy's two-axis score on one trace repetition."""

    policy: str
    requests: int = 0
    cold_starts: int = 0
    warm_starts: int = 0
    queued: int = 0
    cold_p50_ms: float = 0.0
    cold_p99_ms: float = 0.0
    wasted_warm_s: float = 0.0
    timer_cold_starts: int = 0
    prewarm_placements: int = 0
    prefetch_mib: float = 0.0

    @property
    def cold_start_rate(self) -> float:
        return self.cold_starts / self.requests if self.requests else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {**asdict(self), "cold_start_rate": self.cold_start_rate}


@dataclass
class PrewarmRepResult:
    """The policy ladder's outcomes on one repetition's trace."""

    rep: int
    seed: int
    outcomes: Dict[str, PolicyOutcome] = field(default_factory=dict)

    @property
    def oracle_bounds_gap(self) -> bool:
        """The oracle never does worse than the histogram policy."""
        return (self.outcomes["oracle"].cold_start_rate
                <= self.outcomes["histogram"].cold_start_rate)


def paired_verdict(reps: List[PrewarmRepResult]) -> Dict[str, object]:
    """Does the histogram policy beat fixed keep-alive across the reps'
    paired seeds?

    Per :data:`VERDICT_AXES`, the per-seed differences histogram −
    fixed get a 95 % bootstrap CI of their median. ``beats`` holds
    when every axis's CI lies below zero (or ends at zero where the
    axis allows a tie). One seed forms no CI, so it never beats.
    """
    verdict: Dict[str, object] = {"seeds": len(reps)}
    beats = len(reps) >= 2
    for axis, tie_ok in VERDICT_AXES:
        if len(reps) < 2:
            verdict[axis] = None
            continue
        diffs = [float(getattr(r.outcomes["histogram"], axis)
                       - getattr(r.outcomes["fixed"], axis)) for r in reps]
        ci = bootstrap_median_ci(diffs, seed=0)
        verdict[axis] = {"median": ci.point, "ci_low": ci.low,
                         "ci_high": ci.high}
        beats = beats and (ci.high <= 0.0 if tie_ok else ci.high < 0.0)
    verdict["beats"] = beats
    return verdict


@dataclass
class PrewarmStudyResult:
    """The X13 report: the ladder per rep + the live-platform exemplar."""

    config: PrewarmStudyConfig
    seed: int
    reps: List[PrewarmRepResult] = field(default_factory=list)
    exemplar: Dict[str, object] = field(default_factory=dict)

    @property
    def headline(self) -> PrewarmRepResult:
        return self.reps[0]

    def as_dict(self) -> Dict[str, object]:
        return {
            "experiment": "prewarm-study",
            "seed": self.seed,
            "config": {
                "functions": self.config.functions,
                "timer_functions": self.config.timer_functions,
                "requests": self.config.requests,
                "duration_ms": self.config.duration_ms,
                "window_ms": STUDY_PREWARM.window_ms,
                "fixed_keepalive_ms": FIXED_KEEPALIVE_MS,
                "node_cache_mib": NODE_CACHE_MIB,
            },
            "reps": [
                {
                    "rep": r.rep,
                    "seed": r.seed,
                    "oracle_bounds_gap": r.oracle_bounds_gap,
                    "policies": {name: o.as_dict()
                                 for name, o in r.outcomes.items()},
                }
                for r in self.reps
            ],
            "verdict": paired_verdict(self.reps),
            "exemplar": self.exemplar,
        }

    def render(self) -> str:
        return render_prewarm_report(self.as_dict())


# ---------------------------------------------------------------------------
# Trace synthesis: fleet workload + the timer/cron overlay
# ---------------------------------------------------------------------------


def _synthesize_prewarm_trace(config: PrewarmStudyConfig,
                              seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Merged (times, fids): fleet trace + periodic timer arrivals.

    Each main function is interrupted-Poisson bursty with probability 0.3
    (30 s on, 120 s off on average). Timer periods (150–420 s, 3 %
    jitter) are far beyond any keep-alive.
    """
    times, fids = synthesize_fleet_workload(
        function_count=config.functions,
        duration_ms=config.duration_ms,
        requests=config.requests,
        bursty_fraction=0.3,
        mean_on_ms=30_000.0,
        mean_off_ms=120_000.0,
        seed=_derive_seed(seed, "prewarm-trace"))
    rng = np.random.Generator(np.random.PCG64(
        _derive_seed(seed, "prewarm-timers")))
    timer_times: List[float] = []
    timer_fids: List[int] = []
    for i in range(config.timer_functions):
        fid = config.functions + i
        period = rng.uniform(150_000.0, 420_000.0)
        t = rng.uniform(0.0, period)
        while t < config.duration_ms:
            timer_times.append(t)
            timer_fids.append(fid)
            gap = period * (1.0 + 0.03 * rng.standard_normal())
            t += max(gap, 0.5 * period)
    all_times = np.concatenate([
        times, np.asarray(timer_times, dtype=np.float64)])
    all_fids = np.concatenate([
        fids.astype(np.int64),
        np.asarray(timer_fids, dtype=np.int64)])
    order = np.argsort(all_times, kind="stable")
    return all_times[order], all_fids[order]


def _image_sizes(config: PrewarmStudyConfig, seed: int) -> np.ndarray:
    """Image MiB per function: 16–64 for the main population, 96–160
    for timers, which carry the big batch images, so covering their
    cold starts moves the tail of the cold-latency distribution."""
    setup = np.random.Generator(np.random.PCG64(
        _derive_seed(seed, "prewarm-images")))
    sizes = np.empty(config.total_functions, dtype=np.float64)
    sizes[:config.functions] = setup.integers(16, 64, size=config.functions)
    sizes[config.functions:] = setup.integers(
        96, 160, size=config.timer_functions)
    return sizes


# ---------------------------------------------------------------------------
# The study
# ---------------------------------------------------------------------------


def _window_counts(config: PrewarmStudyConfig, times: np.ndarray,
                   fids: np.ndarray) -> Dict[int, List[float]]:
    """Per-function window count vectors for the oracle."""
    window_ms = STUDY_PREWARM.window_ms
    nwin = int(math.ceil(config.duration_ms / window_ms))
    windows = np.minimum((times / window_ms).astype(np.int64), nwin - 1)
    flat = np.bincount(fids * nwin + windows,
                       minlength=config.total_functions * nwin)
    matrix = flat.reshape(config.total_functions, nwin)
    return {fid: matrix[fid].astype(float).tolist()
            for fid in range(config.total_functions)}


def _run_repetition(config: PrewarmStudyConfig, seed: int,
                    rep: int) -> PrewarmRepResult:
    rep_seed = _derive_seed(seed, f"prewarm-{rep}")
    times, fids = _synthesize_prewarm_trace(config, rep_seed)
    image_mib = _image_sizes(config, rep_seed)
    # The clairvoyant bound staffs generously: it knows the next
    # window's exact count and never pays for a wrong forecast, so a
    # wide overlap margin only tightens the bound.
    oracle = OraclePolicy(_window_counts(config, times, fids),
                          window_ms=STUDY_PREWARM.window_ms,
                          service_ms=STUDY_PREWARM.service_ms_hint,
                          safety=4.0)
    # Each rung's planner (None: no prewarm layer) and idle timeout.
    rungs = {
        "reactive": (None, 0.0),
        "fixed": (None, FIXED_KEEPALIVE_MS),
        "histogram": (PrewarmController(STUDY_PREWARM), FIXED_KEEPALIVE_MS),
        "oracle": (PrewarmController(STUDY_PREWARM, policy=oracle),
                   FIXED_KEEPALIVE_MS),
    }
    result = PrewarmRepResult(rep=rep, seed=rep_seed)
    for name in POLICY_LADDER:
        controller, idle_timeout_ms = rungs[name]
        model = FleetModel(
            [[fid] for fid in range(config.total_functions)],
            [int(mib) * MIB for mib in image_mib],
            compute_nodes=1, node_cache_bytes=NODE_CACHE_MIB * MIB,
            storage_nodes=1, replication_factor=1,
            keepalive_ms=idle_timeout_ms,
            max_replicas=STUDY_PREWARM.max_warm_per_function,
            service_ms=STUDY_PREWARM.service_ms_hint,
            seed=_derive_seed(rep_seed, f"latency-{name}"),
            prewarm=controller)
        model.run(times, fids)
        model.close(config.duration_ms)
        result.outcomes[name] = _outcome(name, config, model, int(times.size))
    return result


def _outcome(name: str, config: PrewarmStudyConfig, model: FleetModel,
             requests: int) -> PolicyOutcome:
    """One rung's score, read off its model after the pass."""
    reg = model.registry
    cells = model.attribution.cells()
    timers = set(model.names[config.functions:])
    out = PolicyOutcome(policy=name, requests=requests)
    out.cold_starts = int(reg.value("fleet_cold_total"))
    out.warm_starts = int(reg.value("fleet_warm_total"))
    out.queued = int(reg.value("fleet_queued_total"))
    if model.cold_ms:
        lats = np.asarray(model.cold_ms)
        out.cold_p50_ms = float(np.quantile(lats, 0.5))
        out.cold_p99_ms = float(np.quantile(lats, 0.99))
    out.wasted_warm_s = float(np.asarray(model.wasted_ms).sum()) / 1000.0
    out.timer_cold_starts = sum(cell.count for cell in cells
                                if cell.function in timers)
    out.prewarm_placements = int(reg.value("prewarm_placements_total"))
    out.prefetch_mib = reg.value("prewarm_fetch_bytes_total") / MIB
    return out


def _platform_exemplar(seed: int) -> Dict[str, object]:
    """One live platform episode with the prewarm layer installed.

    A short, dense markdown arrival stream with a deliberately large
    service-time hint, so the forecast target exceeds the serving
    replica count and the controller's whole pipeline fires: windows
    fed -> plan -> autoscaler prewarm provisioning -> deployer chunk
    prefetch into the node HotChunkCache.
    """
    world = make_world(seed=_derive_seed(seed, "prewarm-exemplar"),
                       observe=True)
    kernel = world.kernel
    platform = FaaSPlatform(kernel, PlatformConfig(prewarm=PrewarmConfig(
        window_ms=200.0, service_ms_hint=500.0)))
    platform.register_function(lambda: make_app("markdown"),
                               start_technique="prebake",
                               cache_policy="freq-over-size")
    for _ in range(60):
        platform.invoke("markdown")
        kernel.clock.advance(40.0)
        platform.gc_tick()
    stats = platform.prewarm.stats
    metrics = kernel.obs.metrics
    return {
        "plans": stats.plans,
        "windows_fed": stats.windows_fed,
        "prewarm_replicas": stats.prewarm_replicas,
        "prefetch_requests": stats.prefetch_requests,
        "autoscaler_prewarm_events": int(metrics.value(
            "autoscaler_actions_total", {"action": "prewarm"})),
        "wasted_warm_ms": metrics.value("autoscaler_wasted_warm_ms_total"),
    }


def prewarm_study(repetitions: int = 1, seed: int = 42,
                  requests: int = 200_000) -> PrewarmStudyResult:
    """Run X13: the policy ladder over ``repetitions`` fleet traces."""
    config = PrewarmStudyConfig(requests=requests)
    result = PrewarmStudyResult(config=config, seed=seed)
    for rep in range(repetitions):
        result.reps.append(_run_repetition(config, seed, rep))
    result.exemplar = _platform_exemplar(seed)
    return result


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _verdict_lines(artifact: Dict[str, object]) -> List[str]:
    """The two greppable verdict lines, over all paired seeds."""
    verdict = artifact["verdict"]
    seeds = verdict["seeds"]
    if seeds < 2:
        detail = f"{seeds} seed: a paired CI needs at least 2"
    else:
        cold, p99, waste = (verdict[axis] for axis, _ in VERDICT_AXES)
        detail = (
            f"histogram - fixed over {seeds} paired seeds, "
            f"median [95% CI]: "
            f"cold {cold['median']:.1f} "
            f"[{cold['ci_low']:.1f}, {cold['ci_high']:.1f}], "
            f"p99 {p99['median']:.2f} "
            f"[{p99['ci_low']:.2f}, {p99['ci_high']:.2f}] ms, "
            f"waste {waste['median']:.0f} "
            f"[{waste['ci_low']:.0f}, {waste['ci_high']:.0f}] s")
    bounded = sum(1 for rep in artifact["reps"] if rep["oracle_bounds_gap"])
    return [
        f"predictive beats fixed keep-alive: "
        f"{'yes' if verdict['beats'] else 'NO'} ({detail})",
        f"oracle bounds the gap: {'yes' if bounded == seeds else 'NO'} "
        f"(oracle cold rate <= histogram on {bounded} of {seeds} seeds)",
    ]


def render_prewarm_report(artifact: Dict[str, object]) -> str:
    """Human-readable X13 report (the CI smoke greps its verdict lines)."""
    lines: List[str] = []
    config = artifact.get("config", {})
    lines.append("X13 — predictive prewarming study")
    lines.append(
        f"functions: {config.get('functions')} "
        f"(+{config.get('timer_functions')} timer)  "
        f"requests: {config.get('requests')}  "
        f"window: {config.get('window_ms')} ms  "
        f"fixed keep-alive: {config.get('fixed_keepalive_ms')} ms")
    for rep in artifact.get("reps", []):  # type: ignore[union-attr]
        lines.append("")
        lines.append(f"rep {rep['rep']}:")
        rows = []
        for name in POLICY_LADDER:
            o = rep["policies"].get(name)
            if not o:
                continue
            rows.append([
                name,
                o["cold_starts"],
                f"{100.0 * o['cold_start_rate']:.2f}%",
                f"{o['cold_p50_ms']:.1f}",
                f"{o['cold_p99_ms']:.1f}",
                f"{o['wasted_warm_s']:.0f}",
                o["timer_cold_starts"],
                o["prewarm_placements"],
            ])
        lines.append(format_table(
            ["policy", "cold", "cold-rate", "p50(ms)", "p99(ms)",
             "waste(s)", "timer-cold", "prewarmed"], rows))
    lines.append("")
    lines.extend(_verdict_lines(artifact))
    exemplar = artifact.get("exemplar", {})
    if exemplar:
        lines.append("")
        lines.append(
            "live platform exemplar: "
            f"{exemplar.get('prewarm_replicas', 0)} prewarmed replicas, "
            f"{exemplar.get('prefetch_requests', 0)} prefetch requests, "
            f"{exemplar.get('windows_fed', 0)} forecast windows fed")
    return "\n".join(lines)
