"""Incident experiment (X9): chaos with anomaly-triggered postmortems.

The chaos sweep answers "how much does resilience cost on average"
with fresh worlds per repetition; this experiment answers "does the
*incident pipeline* work": one long-lived world serves a clean warmup
phase (establishing the online detectors' baselines), then an armed
fault window (``restore.fail`` by default) degrades cold starts, the
anomaly monitor flags the window, and the postmortem collector seals
bundles that carry a replay recipe.

Everything is deterministic on ``(seed, parameters)``:

* the fault schedule is drawn from per-site seeded streams, digested
  over every decision;
* the detectors read only simulated time and metric values;
* sealing a bundle reads live state without advancing the clock.

So :func:`replay_recipe` — re-running the experiment from a bundle's
recipe — reproduces the identical schedule digest and the identical
flagged windows, which is the property the acceptance test pins.

The replica pool is configured so every request cold-starts (a tiny
idle timeout plus think time and a GC tick between requests): each
request exercises the full restore path, giving the latency detector
one sample per request and the rate detectors steady window traffic.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro import faults, make_world, obs
from repro.bench.report import format_table
from repro.faas.platform import FaaSPlatform, PlatformConfig
from repro.faults.errors import PlatformError
from repro.faults.model import FaultPlan, FaultSpec
from repro.functions.base import make_app
from repro.obs.anomaly import AnomalyEvent
from repro.obs.log import bound_trace_provider, get_logger
from repro.obs.postmortem import PostmortemBundle, PostmortemCollector
from repro.sim.rng import _derive_seed

_log = get_logger("bench")

# Recipe keys that parameterize the run (everything else in a bundle's
# replay dict — e.g. the schedule digest — is provenance, not input).
RECIPE_KEYS = ("function", "technique", "seed", "warmup_requests",
               "fault_requests", "cooldown_requests", "fault_site",
               "fault_rate", "think_ms", "idle_timeout_ms", "window_ms",
               "z_threshold")


@dataclass
class IncidentResult:
    """One incident run: what was flagged, sealed, and injected."""

    function: str
    technique: str
    seed: int
    fault_site: str
    fault_rate: float
    warmup_requests: int
    fault_requests: int
    cooldown_requests: int
    requests: int = 0
    errors: int = 0
    faults_fired: int = 0
    fault_window_start_ms: float = 0.0
    fault_window_end_ms: float = 0.0
    schedule_digest: str = ""
    anomalies: List[AnomalyEvent] = field(default_factory=list)
    bundles: List[PostmortemBundle] = field(default_factory=list)
    bundle_paths: List[pathlib.Path] = field(default_factory=list)
    flight_events: List[Dict[str, object]] = field(default_factory=list)

    def anomalies_in_fault_window(self) -> List[AnomalyEvent]:
        """Flags whose window overlaps the injected-fault interval."""
        return [
            e for e in self.anomalies
            if (e.window_end_ms > self.fault_window_start_ms
                and e.window_start_ms < self.fault_window_end_ms)
        ]

    def anomaly_signature(self) -> List[tuple]:
        """Order-stable fingerprint for determinism assertions."""
        return [(e.detector, e.metric, round(e.at_ms, 6),
                 round(e.value, 9), round(e.score, 6))
                for e in self.anomalies]

    def render(self) -> str:
        header = (
            f"Incident run — {self.function} ({self.technique}), seed "
            f"{self.seed}: {self.warmup_requests} warmup + "
            f"{self.fault_requests} faulted ({self.fault_site}@"
            f"{self.fault_rate:g}) + {self.cooldown_requests} cooldown"
        )
        lines = [header]
        lines.append(
            f"requests={self.requests} errors={self.errors} "
            f"faults_fired={self.faults_fired} "
            f"fault_window=[{self.fault_window_start_ms:.1f}, "
            f"{self.fault_window_end_ms:.1f}) ms"
        )
        if self.anomalies:
            rows = [[e.detector, f"{e.at_ms:.1f}", f"{e.value:.3f}",
                     f"{e.score:.1f}",
                     f"[{e.window_start_ms:.0f}, {e.window_end_ms:.0f})",
                     e.trace_id or "-"]
                    for e in self.anomalies]
            lines.append(format_table(
                ["detector", "at ms", "value", "z", "window", "trace"],
                rows))
        else:
            lines.append("no anomalies flagged")
        lines.append(f"postmortem bundles sealed: {len(self.bundles)}")
        lines.append(f"fault schedule digest: {self.schedule_digest}")
        return "\n".join(lines)


def incident_experiment(
    function: str = "markdown",
    technique: str = "prebake",
    seed: int = 42,
    warmup_requests: int = 12,
    fault_requests: int = 4,
    cooldown_requests: int = 2,
    fault_site: str = faults.RESTORE_FAIL,
    fault_rate: float = 1.0,
    think_ms: float = 100.0,
    idle_timeout_ms: float = 50.0,
    window_ms: float = 500.0,
    z_threshold: float = 6.0,
    postmortem_dir: Optional[Union[str, pathlib.Path]] = None,
    flight_capacity: int = obs.flight.DEFAULT_CAPACITY,
    max_bundles: int = 4,
) -> IncidentResult:
    """Run the X9 chaos-with-postmortem experiment."""
    recipe: Dict[str, object] = {
        "experiment": "incident",
        "function": function,
        "technique": technique,
        "seed": seed,
        "warmup_requests": warmup_requests,
        "fault_requests": fault_requests,
        "cooldown_requests": cooldown_requests,
        "fault_site": fault_site,
        "fault_rate": fault_rate,
        "think_ms": think_ms,
        "idle_timeout_ms": idle_timeout_ms,
        "window_ms": window_ms,
        "z_threshold": z_threshold,
    }
    world = make_world(seed=_derive_seed(seed, "incident"), observe=True)
    kernel = world.kernel
    obs.install_flight(kernel, capacity=flight_capacity)
    obs.enable_timeseries(kernel, window_ms=window_ms)
    monitor = obs.enable_anomaly(kernel, window_ms=window_ms,
                                 z_threshold=z_threshold)
    collector = PostmortemCollector(
        kernel, seed=seed, label=f"incident-{function}-{technique}",
        recipe=recipe, out_dir=postmortem_dir, max_bundles=max_bundles)
    monitor.subscribe(collector.on_anomaly)

    result = IncidentResult(
        function=function, technique=technique, seed=seed,
        fault_site=fault_site, fault_rate=fault_rate,
        warmup_requests=warmup_requests, fault_requests=fault_requests,
        cooldown_requests=cooldown_requests,
    )

    platform = FaaSPlatform(kernel, PlatformConfig(nodes=2))
    platform.register_function(lambda: make_app(function),
                               start_technique=technique,
                               idle_timeout_ms=idle_timeout_ms)
    # One injector lives across all three phases (so the schedule
    # digest covers the whole run); arming/disarming the fault window
    # swaps the plan, not the injector.
    injector = platform.install_faults(FaultPlan())
    armed_plan = FaultPlan().with_spec(
        FaultSpec(site=fault_site, probability=fault_rate))

    def drive(n: int) -> None:
        for _ in range(n):
            result.requests += 1
            try:
                platform.invoke(function)
            except PlatformError as exc:
                result.errors += 1
                collector.on_error(exc, trace_id=_last_route_trace(kernel))
            # Idle out the replica and GC it so the next request
            # cold-starts through the full restore path again.
            kernel.clock.advance(think_ms)
            platform.gc_tick()

    with bound_trace_provider(kernel.obs.tracer.current_trace_id):
        try:
            drive(warmup_requests)
            result.fault_window_start_ms = kernel.clock.now
            injector.plan = armed_plan
            _log.info("incident.fault_armed", site=fault_site,
                      rate=fault_rate, at_ms=round(kernel.clock.now, 3))
            drive(fault_requests)
            injector.plan = FaultPlan()
            result.fault_window_end_ms = kernel.clock.now
            _log.info("incident.fault_disarmed",
                      at_ms=round(kernel.clock.now, 3))
            drive(cooldown_requests)
        finally:
            monitor.flush(kernel.clock.now)
            faults.uninstall(kernel)

    leaked = kernel.obs.tracer.open_spans()
    if leaked:
        raise obs.SpanError(
            "span leak after incident run: "
            + ", ".join(s.name for s in leaked))

    result.faults_fired = injector.fired_count()
    result.schedule_digest = injector.schedule_digest()
    result.anomalies = list(monitor.events)
    result.bundles = list(collector.bundles)
    result.bundle_paths = list(collector.paths)
    result.flight_events = [e.as_dict() for e in kernel.obs.flight.events()]
    return result


def _last_route_trace(kernel) -> Optional[str]:
    """Trace id of the most recent router.route span (error recovery:
    the offending span already closed while the error unwound)."""
    for span in reversed(kernel.obs.tracer.spans):
        if span.name == "router.route":
            return span.trace_id
    return None


def replay_recipe(recipe: Dict[str, object],
                  postmortem_dir: Optional[Union[str, pathlib.Path]] = None
                  ) -> IncidentResult:
    """Re-run the experiment a postmortem bundle describes.

    Accepts a bundle's ``replay`` dict (extra provenance keys like
    ``fault_schedule_digest`` are ignored). Determinism of the stack
    makes the rerun's schedule digest and anomaly set identical to the
    original's — compare against the bundle to verify a reproduction.
    """
    kwargs = {key: recipe[key] for key in RECIPE_KEYS if key in recipe}
    return incident_experiment(postmortem_dir=postmortem_dir, **kwargs)
