"""PrometheusLite: the OpenFaaS stack's alert and SLO layer.

"The platform auto-scaling functionality is shared between the Gateway
API and the Prometheus tool, which continuously monitors metrics and
fires alerts" (§5.1). Here scale-up is the platform autoscaler's own
decision; this class keeps the threshold rules, SLO burn-rate checks
and alert delivery over the world's metrics registry.

Metric storage lives in the shared :class:`repro.obs.metrics.MetricsRegistry`
(one per world when telemetry is installed). ``inc``/``set_gauge``/
``observe``/``value`` delegate straight to the registry, so rules see
the same series the platform's instrumentation writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLO

LabelSet = Tuple[Tuple[str, str], ...]


@dataclass
class AlertRule:
    """Fire when ``metric`` (summed over matching labels) crosses ``threshold``."""

    name: str
    metric: str
    threshold: float
    comparison: str = ">"        # ">" or "<"
    labels: Dict[str, str] = field(default_factory=dict)

    def evaluate(self, value: float) -> bool:
        if self.comparison == ">":
            return value > self.threshold
        if self.comparison == "<":
            return value < self.threshold
        raise ValueError(f"unsupported comparison {self.comparison!r}")


@dataclass
class Alert:
    """A fired alert delivered to subscribers (the Gateway)."""

    rule: AlertRule
    value: float
    at_ms: float


class PrometheusLite:
    """Alert rules over a (possibly shared) metrics registry."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._rules: List[AlertRule] = []
        self._slos: List[Tuple[SLO, float]] = []  # (slo, burn threshold)
        self._subscribers: List[Callable[[Alert], None]] = []
        self.fired: List[Alert] = []

    # -- metrics (delegates to the shared registry) ------------------------------

    def inc(self, metric: str, value: float = 1.0,
            labels: Optional[Dict[str, str]] = None) -> None:
        if value < 0:
            raise ValueError("counters only go up")
        self.registry.inc(metric, value, labels)

    def set_gauge(self, metric: str, value: float,
                  labels: Optional[Dict[str, str]] = None) -> None:
        self.registry.set_gauge(metric, value, labels)

    def observe(self, metric: str, value: float,
                labels: Optional[Dict[str, str]] = None) -> None:
        self.registry.observe(metric, value, labels)

    def value(self, metric: str, labels: Optional[Dict[str, str]] = None) -> float:
        """Sum of the metric across series matching the label subset."""
        return self.registry.value(metric, labels)

    # -- alerting ----------------------------------------------------------------

    def add_rule(self, rule: AlertRule) -> None:
        self._rules.append(rule)

    def add_slo(self, slo: SLO, burn_threshold: float = 1.0) -> None:
        """Register an SLO; :meth:`evaluate` fires an alert whenever
        its burn rate exceeds ``burn_threshold`` (1.0 = the error
        budget is being spent exactly as fast as allowed)."""
        if burn_threshold <= 0:
            raise ValueError("burn threshold must be positive")
        self._slos.append((slo, burn_threshold))

    def subscribe(self, callback: Callable[[Alert], None]) -> None:
        self._subscribers.append(callback)

    def attach_anomaly_monitor(self, monitor) -> None:
        """Route online :class:`~repro.obs.anomaly.AnomalyEvent`s into
        the alert path: each flagged window fires immediately as a
        synthetic ``anomaly:<detector>`` alert — no polling
        :meth:`evaluate` pass needed — and is delivered to the same
        subscribers as threshold and SLO-burn alerts."""
        def deliver(event) -> None:
            rule = AlertRule(
                name=f"anomaly:{event.detector}",
                metric=event.metric,
                threshold=event.threshold,
            )
            self._fire(rule, event.score, event.at_ms)

        monitor.subscribe(deliver)

    def _fire(self, rule: AlertRule, value: float, now_ms: float) -> Alert:
        alert = Alert(rule=rule, value=value, at_ms=now_ms)
        self.fired.append(alert)
        for subscriber in self._subscribers:
            subscriber(alert)
        return alert

    def evaluate(self, now_ms: float = 0.0) -> List[Alert]:
        """Evaluate every rule and SLO; fire and deliver alerts that trip."""
        alerts = []
        for rule in self._rules:
            value = self.value(rule.metric, rule.labels)
            if rule.evaluate(value):
                alerts.append(self._fire(rule, value, now_ms))
        for slo, burn_threshold in self._slos:
            burn = slo.burn_rate(self.registry)
            if burn is not None and burn > burn_threshold:
                # A synthetic rule describes the burn-rate condition so
                # subscribers handle SLO alerts like any threshold alert.
                rule = AlertRule(
                    name=f"slo:{slo.name}",
                    metric=f"burn_rate({slo.metric})",
                    threshold=burn_threshold,
                    labels=dict(slo.labels),
                )
                alerts.append(self._fire(rule, burn, now_ms))
        return alerts
