"""Online anomaly detection over the telemetry stream.

Detectors are **online** (one pass, bounded state), **deterministic**
(no wall clocks, no randomness — a seeded rerun flags the identical
windows) and **robust**: the baseline is an EWMA of accepted samples
and the dispersion estimate is a MAD (median absolute deviation) over
a bounded history, so a latency spike cannot drag its own detection
threshold up the way a mean/stddev z-score would.

A sample ``x`` is anomalous when its robust z-score

    z = (x - ewma) / (1.4826 * MAD)

crosses the detector's threshold in the watched direction. Anomalous
samples are *not* folded back into the baseline, so an incident never
becomes the new normal.

The :class:`AnomalyMonitor` wires three watches over the platform's
health signals (the issue's contract):

* **cold-start latency** — per-sample over
  ``router_cold_start_wait_ms`` observations;
* **restore-failure rate** — per-window rate of
  ``criu_restore_failures_total`` over ``criu_restore_total``;
* **chunk-cache miss rate** — per-window rate of
  ``chunk_cache_misses_total`` over ``chunk_cache_lookups_total`` (the
  complement of the SLO's hit rate; a collapsing cache spikes it).

The monitor is fed by the :func:`repro.obs.observe`/``count`` helpers
when enabled on the hub; each :class:`AnomalyEvent` is appended to the
monitor, recorded on the flight tape, counted in the registry
(``anomaly_events_total``) and delivered to subscribers, such as the
postmortem collector.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional

import numpy as np

from repro.obs import flight as flight_mod

# Consistency constant: MAD of a normal distribution * 1.4826 == sigma.
MAD_SIGMA = 1.4826

# Detector tuning every watch shares: the EWMA weight of a new sample,
# the samples the MAD is taken over, and the two floors of the
# dispersion (relative to the baseline, and absolute).
EWMA_ALPHA = 0.25
MAD_HISTORY = 64
REL_FLOOR = 0.02
MIN_SIGMA = 1e-9

ABOVE = "above"
BELOW = "below"
BOTH = "both"

# Canonical watch names (postmortems and tests refer to these).
COLD_START_LATENCY = "cold-start-latency"
RESTORE_FAILURE_RATE = "restore-failure-rate"
CHUNK_CACHE_MISS_RATE = "chunk-cache-miss-rate"
DEGRADED_RESTORE_RATE = "degraded-restore-rate"
LOCALITY_MISS_RATE = "locality-miss-rate"


class AnomalyEvent:
    """One flagged observation (typed, serializable)."""

    __slots__ = ("at_ms", "detector", "metric", "value", "baseline",
                 "score", "threshold", "direction", "window_start_ms",
                 "window_end_ms", "trace_id")

    def __init__(self, at_ms: float, detector: str, metric: str,
                 value: float, baseline: float, score: float,
                 threshold: float, direction: str,
                 window_start_ms: float, window_end_ms: float,
                 trace_id: Optional[str] = None) -> None:
        self.at_ms = at_ms
        self.detector = detector
        self.metric = metric
        self.value = value
        self.baseline = baseline
        self.score = score
        self.threshold = threshold
        self.direction = direction
        self.window_start_ms = window_start_ms
        self.window_end_ms = window_end_ms
        self.trace_id = trace_id

    def as_dict(self) -> Dict[str, object]:
        return {
            "at_ms": self.at_ms,
            "detector": self.detector,
            "metric": self.metric,
            "value": self.value,
            "baseline": self.baseline,
            "score": self.score,
            "threshold": self.threshold,
            "direction": self.direction,
            "window_start_ms": self.window_start_ms,
            "window_end_ms": self.window_end_ms,
            "trace": self.trace_id,
        }

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "AnomalyEvent":
        return cls(
            at_ms=float(record["at_ms"]),            # type: ignore[arg-type]
            detector=str(record["detector"]),
            metric=str(record["metric"]),
            value=float(record["value"]),            # type: ignore[arg-type]
            baseline=float(record["baseline"]),      # type: ignore[arg-type]
            score=float(record["score"]),            # type: ignore[arg-type]
            threshold=float(record["threshold"]),    # type: ignore[arg-type]
            direction=str(record["direction"]),
            window_start_ms=float(record["window_start_ms"]),  # type: ignore[arg-type]
            window_end_ms=float(record["window_end_ms"]),      # type: ignore[arg-type]
            trace_id=(None if record.get("trace") is None
                      else str(record["trace"])),
        )

    def line(self) -> str:
        return (f"{self.at_ms:12.3f}ms {self.detector:<22} "
                f"value={self.value:.3f} baseline={self.baseline:.3f} "
                f"z={self.score:.1f} (>{self.threshold:g} {self.direction}) "
                f"window=[{self.window_start_ms:.0f}, "
                f"{self.window_end_ms:.0f})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AnomalyEvent({self.detector!r} z={self.score:.1f})"


class EwmaMadDetector:
    """EWMA baseline + MAD dispersion robust z-score, one value stream.

    ``warmup`` accepted samples must be seen before anything can flag;
    :data:`REL_FLOOR` and ``min_delta`` bound the denominator and the
    raw deviation so float dust (or an all-identical baseline, MAD = 0)
    cannot manufacture infinite scores out of negligible deltas.
    """

    def __init__(self, name: str, z_threshold: float = 6.0,
                 warmup: int = 8, direction: str = ABOVE,
                 min_delta: float = 0.0) -> None:
        if z_threshold <= 0:
            raise ValueError(f"z_threshold must be positive, got {z_threshold}")
        if warmup < 1:
            raise ValueError(f"warmup must be >= 1, got {warmup}")
        if direction not in (ABOVE, BELOW, BOTH):
            raise ValueError(f"unknown direction {direction!r}")
        self.name = name
        self.z_threshold = z_threshold
        self.warmup = warmup
        self.direction = direction
        self.min_delta = min_delta
        self.ewma: Optional[float] = None
        self.accepted = 0
        self._history: Deque[float] = deque(maxlen=MAD_HISTORY)

    def _sigma(self) -> float:
        values = np.array(self._history)
        mad = float(np.median(np.abs(values - np.median(values))))
        sigma = MAD_SIGMA * mad
        baseline = abs(self.ewma) if self.ewma is not None else 0.0
        return max(sigma, REL_FLOOR * baseline, MIN_SIGMA)

    def update(self, value: float) -> Optional[Dict[str, float]]:
        """Feed one sample; a dict of scores when it is anomalous.

        Anomalous samples do not update the baseline.
        """
        if self.ewma is not None and self.accepted >= self.warmup:
            delta = value - self.ewma
            z = delta / self._sigma()
            flagged = (
                (self.direction == ABOVE and z > self.z_threshold)
                or (self.direction == BELOW and z < -self.z_threshold)
                or (self.direction == BOTH and abs(z) > self.z_threshold)
            ) and abs(delta) >= self.min_delta
            if flagged:
                return {"score": z, "baseline": self.ewma,
                        "threshold": self.z_threshold}
        if self.ewma is None:
            self.ewma = float(value)
        else:
            self.ewma += EWMA_ALPHA * (value - self.ewma)
        self.accepted += 1
        self._history.append(float(value))
        return None


class RateWatch:
    """A per-window counter ratio fed into a detector.

    ``additive_total`` handles counter pairs where the bad events are
    *not* included in the total (``criu_restore_total`` counts only
    successes): the denominator becomes ``bad + total`` so an
    all-failures window still has traffic to rate against.
    """

    __slots__ = ("name", "bad_metric", "total_metric", "detector",
                 "additive_total")

    def __init__(self, name: str, bad_metric: str, total_metric: str,
                 detector: EwmaMadDetector,
                 additive_total: bool = False) -> None:
        self.name = name
        self.bad_metric = bad_metric
        self.total_metric = total_metric
        self.detector = detector
        self.additive_total = additive_total


class AnomalyMonitor:
    """Feeds watched metrics into detectors; emits typed events.

    Installed on the telemetry hub (``obs.enable_anomaly``); the
    metric helpers call :meth:`offer` / :meth:`offer_count` on every
    write. Counter increments accumulate per ``window_ms`` window on
    simulated time; when a write lands past the current window the
    closed window's rates are evaluated. :meth:`flush` closes the
    final partial window at end of run.
    """

    def __init__(self, kernel=None, window_ms: float = 500.0) -> None:
        if window_ms <= 0:
            raise ValueError(f"window_ms must be positive, got {window_ms}")
        self.kernel = kernel
        self.window_ms = window_ms
        self.events: List[AnomalyEvent] = []
        self._subscribers: List[Callable[[AnomalyEvent], None]] = []
        self._sample_watches: Dict[str, EwmaMadDetector] = {}
        self._rate_watches: List[RateWatch] = []
        self._counter_names: Dict[str, float] = {}  # name -> window sum
        self._window_index: Optional[int] = None

    # -- configuration -----------------------------------------------------------

    def watch_samples(self, metric: str, detector: EwmaMadDetector) -> None:
        """Flag individual observations of ``metric``."""
        self._sample_watches[metric] = detector

    def watch_rate(self, name: str, bad_metric: str, total_metric: str,
                   detector: EwmaMadDetector,
                   additive_total: bool = False) -> None:
        """Flag the per-window ``bad/total`` ratio."""
        self._rate_watches.append(
            RateWatch(name, bad_metric, total_metric, detector,
                      additive_total=additive_total))
        self._counter_names.setdefault(bad_metric, 0.0)
        self._counter_names.setdefault(total_metric, 0.0)

    def subscribe(self, callback: Callable[[AnomalyEvent], None]) -> None:
        self._subscribers.append(callback)

    # -- feed --------------------------------------------------------------------

    def offer(self, metric: str, at_ms: float, value: float,
              trace_id: Optional[str] = None) -> None:
        """One histogram/gauge observation from the metric helpers."""
        self._advance_to(at_ms)
        detector = self._sample_watches.get(metric)
        if detector is None:
            return
        hit = detector.update(value)
        if hit is not None:
            start = (at_ms // self.window_ms) * self.window_ms
            self._emit(AnomalyEvent(
                at_ms=at_ms, detector=detector.name, metric=metric,
                value=value, baseline=hit["baseline"], score=hit["score"],
                threshold=hit["threshold"], direction=detector.direction,
                window_start_ms=start, window_end_ms=start + self.window_ms,
                trace_id=trace_id,
            ))

    def offer_count(self, metric: str, at_ms: float, value: float) -> None:
        """One counter increment from the metric helpers."""
        self._advance_to(at_ms)
        if metric in self._counter_names:
            self._counter_names[metric] += value

    def flush(self, at_ms: Optional[float] = None) -> None:
        """Close the current (partial) window — call at end of run."""
        if at_ms is not None:
            self._advance_to(at_ms)
        if self._window_index is not None:
            self._close_window(self._window_index)
            self._window_index += 1

    # -- internals ---------------------------------------------------------------

    def _advance_to(self, at_ms: float) -> None:
        index = int(at_ms // self.window_ms)
        if self._window_index is None:
            self._window_index = index
            return
        while self._window_index < index:
            self._close_window(self._window_index)
            self._window_index += 1

    def _close_window(self, index: int) -> None:
        start = index * self.window_ms
        end = start + self.window_ms
        sums, self._counter_names = (
            self._counter_names,
            {name: 0.0 for name in self._counter_names},
        )
        for watch in self._rate_watches:
            total = sums.get(watch.total_metric, 0.0)
            if watch.additive_total:
                total += sums.get(watch.bad_metric, 0.0)
            if total <= 0:
                continue  # no traffic: the window says nothing
            rate = min(1.0, sums.get(watch.bad_metric, 0.0) / total)
            hit = watch.detector.update(rate)
            if hit is not None:
                self._emit(AnomalyEvent(
                    at_ms=end, detector=watch.name,
                    metric=watch.bad_metric, value=rate,
                    baseline=hit["baseline"], score=hit["score"],
                    threshold=hit["threshold"],
                    direction=watch.detector.direction,
                    window_start_ms=start, window_end_ms=end,
                ))

    def _emit(self, event: AnomalyEvent) -> None:
        self.events.append(event)
        hub = self.kernel.obs if self.kernel is not None else None
        if hub is not None:
            # Straight to the recorder/registry (not via the obs
            # helpers) so emitting can never re-enter this monitor.
            if hub.flight is not None:
                hub.flight.record(
                    flight_mod.ANOMALY, detector=event.detector,
                    metric=event.metric, value=round(event.value, 6),
                    score=round(event.score, 3),
                    window_start_ms=event.window_start_ms,
                )
            hub.metrics.inc("anomaly_events_total",
                            labels={"detector": event.detector})
        for subscriber in self._subscribers:
            subscriber(event)


def default_monitor(kernel=None, window_ms: float = 500.0,
                    z_threshold: float = 6.0,
                    latency_warmup: int = 8,
                    rate_warmup: int = 3) -> AnomalyMonitor:
    """The stack's standard watch set (the SLO contract, as detectors).

    * cold-start latency spikes (per cold start);
    * restore-failure-rate spikes (per window; a healthy world's rate
      is 0, so ``min_delta`` is what separates real failure bursts
      from float dust);
    * chunk-cache miss-rate spikes (per window; the complement of the
      hit-rate SLO, with the same baseline-0 robustness);
    * locality miss-rate spikes (per window; the deployer placed a
      cold start on a node whose chunk cache held a minority of the
      image's working set — the placement hint stopped paying off).
    """
    monitor = AnomalyMonitor(kernel=kernel, window_ms=window_ms)
    monitor.watch_samples(
        "router_cold_start_wait_ms",
        EwmaMadDetector(COLD_START_LATENCY, z_threshold=z_threshold,
                        warmup=latency_warmup, direction=ABOVE),
    )
    monitor.watch_rate(
        RESTORE_FAILURE_RATE,
        bad_metric="criu_restore_failures_total",
        total_metric="criu_restore_total",
        detector=EwmaMadDetector(RESTORE_FAILURE_RATE,
                                 z_threshold=z_threshold,
                                 warmup=rate_warmup, direction=ABOVE,
                                 min_delta=0.05),
        additive_total=True,
    )
    monitor.watch_rate(
        CHUNK_CACHE_MISS_RATE,
        bad_metric="chunk_cache_misses_total",
        total_metric="chunk_cache_lookups_total",
        detector=EwmaMadDetector(CHUNK_CACHE_MISS_RATE,
                                 z_threshold=z_threshold,
                                 warmup=rate_warmup, direction=ABOVE,
                                 min_delta=0.10),
    )
    monitor.watch_rate(
        DEGRADED_RESTORE_RATE,
        bad_metric="restore_degraded_total",
        total_metric="criu_restore_total",
        detector=EwmaMadDetector(DEGRADED_RESTORE_RATE,
                                 z_threshold=z_threshold,
                                 warmup=rate_warmup, direction=ABOVE,
                                 min_delta=0.05),
    )
    monitor.watch_rate(
        LOCALITY_MISS_RATE,
        bad_metric="deployer_locality_miss_total",
        total_metric="deployer_cold_placement_total",
        detector=EwmaMadDetector(LOCALITY_MISS_RATE,
                                 z_threshold=z_threshold,
                                 warmup=rate_warmup, direction=ABOVE,
                                 min_delta=0.10),
    )
    return monitor
