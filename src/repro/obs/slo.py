"""Service-level objectives with burn-rate evaluation.

An :class:`SLO` declares what fraction of events must be *good* (the
objective); the complement is the error budget. The **burn rate** is
the observed bad fraction divided by the budget — burn rate 1.0 means
the service is spending its budget exactly as fast as allowed, >1
means the objective will be violated if the window's behaviour
persists.

Two SLO kinds cover the prebake stack's contract:

* ``latency`` — a histogram metric plus a threshold; an observation is
  bad when it lands above the threshold (e.g. cold-start p99 under
  800 ms means at most 1% of cold starts may exceed 800 ms).
* ``ratio`` — a good counter and a bad counter; the bad fraction is
  bad / (good + bad) (e.g. restore success rate: failed restores over
  every attempt, ``criu_restore_total`` counting the successes).

SLOs evaluate against any :class:`~repro.obs.metrics.MetricsRegistry`
— live (:func:`evaluate_slos` on the world's registry) or rebuilt from
a metrics JSONL dump (``repro.obs.cli alerts``), so a recorded run can
be audited without re-simulating it. :class:`BurnCheck` applies the
same rule online, one window of simulated time at a time: the one
definition of unhealthy that incident runs alert on.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional

from repro.obs import flight
from repro.obs.metrics import (
    HISTOGRAM,
    Histogram,
    MetricsRegistry,
    labels_match,
)

LATENCY = "latency"
RATIO = "ratio"


def merged_histogram(registry: MetricsRegistry, name: str,
                     labels: Optional[Dict[str, str]] = None) -> Optional[Histogram]:
    """Merge every series of ``name`` matching the label subset."""
    want = dict(labels or {})
    merged: Optional[Histogram] = None
    for family in registry.families():
        if family.name != name or family.kind != HISTOGRAM:
            continue
        for series_labels, histogram in family.series.items():
            if not labels_match(series_labels, want):
                continue
            if merged is None:
                merged = Histogram()
            merged.merge(histogram)  # type: ignore[arg-type]
    return merged


@dataclass(frozen=True)
class SLO:
    """One service-level objective over registry metrics."""

    name: str
    objective: float                    # good fraction required, e.g. 0.99
    kind: str = LATENCY                 # LATENCY or RATIO
    metric: str = ""                    # histogram (latency) / good counter (ratio)
    threshold_ms: float = 0.0           # latency: bad when above this
    bad_metric: str = ""                # ratio: the bad counter
    labels: Dict[str, str] = field(default_factory=dict)
    description: str = ""

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError(
                f"objective must be in (0, 1), got {self.objective}")
        if self.kind not in (LATENCY, RATIO):
            raise ValueError(f"unknown SLO kind {self.kind!r}")

    @property
    def error_budget(self) -> float:
        return 1.0 - self.objective

    def bad_fraction(self, registry: MetricsRegistry) -> Optional[float]:
        """Observed bad fraction, or None when there is no data yet."""
        if self.kind == LATENCY:
            histogram = merged_histogram(registry, self.metric, self.labels)
            if histogram is None or histogram.count == 0:
                return None
            return histogram.fraction_above(self.threshold_ms)
        bad = registry.value(self.bad_metric, self.labels)
        total = registry.value(self.metric, self.labels) + bad
        if total <= 0:
            return None
        return bad / total

    def burn_rate(self, registry: MetricsRegistry) -> Optional[float]:
        """Bad fraction over error budget (1.0 = spending exactly on
        budget); None when no data has been observed."""
        bad = self.bad_fraction(registry)
        if bad is None:
            return None
        return bad / self.error_budget


@dataclass
class SLOStatus:
    """One SLO evaluated against one registry."""

    slo: SLO
    bad_fraction: Optional[float]
    burn_rate: Optional[float]

    @property
    def breached(self) -> bool:
        return self.burn_rate is not None and self.burn_rate > 1.0

    @property
    def healthy(self) -> bool:
        return not self.breached


# -- the stack's default contract --------------------------------------------

# Cold starts: 99% of request-observed cold-start waits under 800 ms.
# The bound sits between the paper's prebaked image-resizer (~550 ms)
# and vanilla (~2 s), so prebaked fleets pass and vanilla fleets burn.
COLD_START_P99 = SLO(
    name="cold-start-p99",
    objective=0.99,
    kind=LATENCY,
    metric="router_cold_start_wait_ms",
    threshold_ms=800.0,
    description="99% of cold starts complete within 800 ms",
)

# Restores: at least 99% of criu restore attempts succeed
# (``criu_restore_total`` counts the successful ones).
RESTORE_SUCCESS = SLO(
    name="restore-success-rate",
    objective=0.99,
    kind=RATIO,
    metric="criu_restore_total",
    bad_metric="criu_restore_failures_total",
    description="at least 99% of snapshot restores succeed",
)

# Hot-chunk cache: once nodes are warm, at least half the restore-time
# chunk lookups should hit the node-local cache (a persistently cold
# cache means placement is scattering replicas or the cache is sized
# below the working set). Evaluates to "no data" on worlds that never
# enable the cache.
CHUNK_CACHE_HIT_RATE = SLO(
    name="chunk-cache-hit-rate",
    objective=0.50,
    kind=RATIO,
    metric="chunk_cache_hits_total",
    bad_metric="chunk_cache_misses_total",
    description="at least 50% of restore chunk lookups hit the node cache",
)

DEFAULT_SLOS = (COLD_START_P99, RESTORE_SUCCESS, CHUNK_CACHE_HIT_RATE)


def evaluate_slos(registry: MetricsRegistry) -> List[SLOStatus]:
    """Evaluate the stack's SLO contract against a registry."""
    out = []
    for slo in DEFAULT_SLOS:
        out.append(SLOStatus(
            slo=slo,
            bad_fraction=slo.bad_fraction(registry),
            burn_rate=slo.burn_rate(registry),
        ))
    return out


# -- online: the same rule per window ------------------------------------------


@dataclass(frozen=True)
class SLOBreach:
    """One window of simulated time in which an SLO burned over budget."""

    slo: str
    window_start_ms: float
    window_end_ms: float
    bad_fraction: float
    burn_rate: float

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "SLOBreach":
        return cls(**record)  # type: ignore[arg-type]

    def line(self) -> str:
        return (f"{self.slo} window=[{self.window_start_ms:.0f}, "
                f"{self.window_end_ms:.0f}) bad={self.bad_fraction:.3f} "
                f"burn={self.burn_rate:.2f}")


class BurnCheck:
    """:func:`evaluate_slos` over each ``window_ms`` window of writes.

    Installed on the telemetry hub (``obs.enable_burn_check``), the
    metric helpers offer it every write. Writes of the SLOs' metrics
    land in a registry that holds the current window alone; the first
    write past the window closes it, and :meth:`flush` closes the last
    one at end of run. Each SLO breached in a closed window (burn > 1)
    becomes one :class:`SLOBreach`: kept in ``breaches``, recorded on
    the flight tape, counted in ``slo_breach_windows_total`` and handed
    to the subscribers.
    """

    def __init__(self, hub, window_ms: float) -> None:
        self.hub = hub
        self.window_ms = window_ms
        self.breaches: List[SLOBreach] = []
        self._subscribers: List[Callable[[SLOBreach], None]] = []
        self._histograms = {slo.metric for slo in DEFAULT_SLOS
                            if slo.kind == LATENCY}
        self._counters = {name for slo in DEFAULT_SLOS if slo.kind == RATIO
                          for name in (slo.metric, slo.bad_metric)}
        self._window: Optional[int] = None
        self._registry = MetricsRegistry()

    def subscribe(self, callback: Callable[[SLOBreach], None]) -> None:
        self._subscribers.append(callback)

    def offer(self, name: str, at_ms: float, value: float) -> None:
        """One metric write from the helpers, at simulated ``at_ms``."""
        index = int(at_ms // self.window_ms)
        if index != self._window:
            self.flush()
            self._window = index
        if name in self._histograms:
            self._registry.observe(name, value)
        elif name in self._counters:
            self._registry.inc(name, value)

    def flush(self) -> None:
        """Close the current window, if one is open."""
        if self._window is None:
            return
        start = self._window * self.window_ms
        for status in evaluate_slos(self._registry):
            if status.breached:
                self._emit(SLOBreach(
                    status.slo.name, start, start + self.window_ms,
                    status.bad_fraction, status.burn_rate))
        self._window = None
        self._registry = MetricsRegistry()

    def _emit(self, breach: SLOBreach) -> None:
        self.breaches.append(breach)
        hub = self.hub
        # Straight to the recorder and registry (not via the obs
        # helpers), so emitting never re-enters this check.
        if hub.flight is not None:
            hub.flight.record(
                flight.SLO_BREACH, slo=breach.slo,
                bad_fraction=round(breach.bad_fraction, 6),
                burn_rate=round(breach.burn_rate, 3),
                window_start_ms=breach.window_start_ms)
        hub.metrics.inc("slo_breach_windows_total",
                        labels={"slo": breach.slo})
        for subscriber in self._subscribers:
            subscriber(breach)
