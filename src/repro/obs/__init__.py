"""repro.obs — unified telemetry for the prebake stack.

One hub per simulated world, ``kernel.obs`` — the kernel's only
telemetry switch. The hub always carries spans and metrics; its
optional layers are ``None`` until installed, and installing any of
them installs the hub first:

* :mod:`repro.obs.spans` — nested lifecycle spans on simulated time
  (``deploy → bake → checkpoint → store → restore → replica.serve``);
* :mod:`repro.obs.metrics` — counters, gauges, log-linear histograms
  (the registry the OpenFaaS stack exposes and SLOs evaluate against);
* :mod:`repro.obs.slo` — the SLO contract and its burn rate, offline
  over a registry and online per window on ``hub.burn``
  (:func:`enable_burn_check`);
* :mod:`repro.obs.export` — Prometheus text format and JSONL dumps,
  summarized by ``python -m repro.obs.cli``;
* :mod:`repro.obs.flight` — bounded ring-buffer flight recorder on
  ``hub.flight`` (:func:`install_flight`), fed via :func:`record`;
* :mod:`repro.obs.profile` — phase profiler on ``hub.profile``
  (:func:`repro.obs.profile.install`), a subscriber to the phase
  charges the ``kernel.probes`` events carry;
* :mod:`repro.obs.timeseries` — windowed ``(sim_time, value)`` rollups
  on ``hub.timeseries`` (:func:`enable_timeseries`);
* :mod:`repro.obs.postmortem` — seals flight tail + span tree + metric
  windows + SLO burn and breaches + replay recipe into incident bundles.

Instrumentation calls the module-level helpers below with the kernel
in hand; when no hub is installed they cost a single attribute load
and do nothing, so un-observed worlds (the default) stay exactly as
fast as before. Every metric write (:func:`count`, :func:`gauge`,
:func:`observe`) lands in the registry and then fans out through one
path, in a fixed order: time series, then SLO burn check. Telemetry
only watches: no platform decision reads it, so an observed world runs
bit-identically to an unobserved one under the same seed.

    from repro import make_world, obs

    world = make_world(seed=42)
    hub = obs.install(world.kernel)
    ...  # run a scenario
    print(obs.export.render_prometheus(hub.metrics))
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.obs import export  # re-exported for `obs.export.*` call sites
from repro.obs import fleet   # re-exported for `obs.fleet.*` call sites
from repro.obs import flight  # re-exported for `obs.flight.*` call sites
from repro.obs import profile  # re-exported for `obs.profile.*` call sites
from repro.obs import slo as _slo
from repro.obs import timeseries as _timeseries
from repro.obs.context import TraceContext
from repro.obs.log import StructuredLogger, get_logger
from repro.obs.metrics import (
    CounterHandle,
    GaugeHandle,
    Histogram,
    MetricsError,
    MetricsRegistry,
)
from repro.obs.spans import NULL_SPAN, NullSpan, Span, SpanError, Tracer


class Observability:
    """Per-world telemetry hub: tracer + metrics, with optional flight
    tape, phase profile, time-series and SLO burn layers (None until
    installed)."""

    def __init__(self, clock) -> None:
        self.tracer = Tracer(clock)
        self.metrics = MetricsRegistry()
        self.flight = None       # FlightRecorder via install_flight
        self.profile = None      # PhaseProfiler via profile.install
        self.timeseries = None   # TimeseriesTable via enable_timeseries
        self.burn = None         # slo.BurnCheck via enable_burn_check


def install(kernel) -> Observability:
    """Install (or fetch) the telemetry hub on ``kernel``."""
    if kernel.obs is None:
        kernel.obs = Observability(kernel.clock)
    return kernel.obs


def uninstall(kernel) -> None:
    """Detach the hub (and its profiler's probe subscriptions);
    instrumentation reverts to zero-cost no-ops."""
    profile.uninstall(kernel)
    kernel.obs = None


def install_flight(kernel, capacity: int = flight.DEFAULT_CAPACITY
                   ) -> "flight.FlightRecorder":
    """Install (or fetch) the flight recorder on the hub, installing
    the hub if needed.

    Events carry the hub tracer's trace/span ids, and ring evictions
    increment ``flight_dropped_total`` in the hub registry.
    """
    hub = install(kernel)
    if hub.flight is None:
        hub.flight = flight.FlightRecorder(
            kernel.clock, tracer=hub.tracer, capacity=capacity,
            metrics=hub.metrics)
    return hub.flight


def enable_timeseries(kernel, window_ms: float = 1_000.0
                      ) -> "_timeseries.TimeseriesTable":
    """Enable windowed rollups on the hub (installing the hub if needed).

    Every subsequent :func:`count`/:func:`gauge`/:func:`observe` also
    lands a ``(sim_time, value)`` sample in the table.
    """
    hub = install(kernel)
    if hub.timeseries is None:
        hub.timeseries = _timeseries.TimeseriesTable(window_ms=window_ms)
    return hub.timeseries


def enable_burn_check(kernel, window_ms: float) -> "_slo.BurnCheck":
    """Enable the per-window SLO burn check on the hub (installing the
    hub if needed): each ``window_ms`` window of metric writes that
    breaches an SLO becomes one :class:`~repro.obs.slo.SLOBreach`.
    """
    hub = install(kernel)
    if hub.burn is None:
        hub.burn = _slo.BurnCheck(hub, window_ms)
    return hub.burn


# -- zero-cost instrumentation helpers ---------------------------------------
#
# Hot paths call these with their kernel; a world without an installed
# hub takes the early-out branch.

def span(kernel, name: str, context: Optional[TraceContext] = None,
         **attributes: object) -> Union[Span, NullSpan]:
    """Open a span on the world's tracer (no-op span when unobserved).

    ``context`` joins an existing trace when the span stack cannot
    supply the causal parent (see :meth:`Tracer.span`).
    """
    hub = kernel.obs
    if hub is None:
        return NULL_SPAN
    return hub.tracer.span(name, context=context, **attributes)


def current_context(kernel) -> Optional[TraceContext]:
    """Propagation handle of the innermost active span, if observed."""
    hub = kernel.obs
    if hub is None:
        return None
    return hub.tracer.current_context()


def record(kernel, kind: str, **attrs: object) -> None:
    """Append a lifecycle event to the flight tape (no-op when no
    recorder is installed — one attribute load, like the tracer)."""
    hub = kernel.obs
    if hub is not None and hub.flight is not None:
        hub.flight.record(kind, **attrs)


def _fan_out(kernel, hub: Observability, name: str, value: float,
             kind: str) -> None:
    """Feed one metric write to the hub's optional layers, in order:
    time series, then SLO burn check."""
    now = kernel.clock.now
    if hub.timeseries is not None:
        hub.timeseries.record(name, now, value, kind=kind)
    if hub.burn is not None:
        hub.burn.offer(name, now, value)


def count(kernel, name: str, value: float = 1.0,
          labels: Optional[Dict[str, str]] = None) -> None:
    hub = kernel.obs
    if hub is not None:
        hub.metrics.inc(name, value, labels)
        _fan_out(kernel, hub, name, value, _timeseries.COUNTER_SAMPLE)


def gauge(kernel, name: str, value: float,
          labels: Optional[Dict[str, str]] = None) -> None:
    hub = kernel.obs
    if hub is not None:
        hub.metrics.set_gauge(name, value, labels)
        _fan_out(kernel, hub, name, value, _timeseries.VALUE_SAMPLE)


def observe(kernel, name: str, value: float,
            labels: Optional[Dict[str, str]] = None,
            exemplar: Optional[str] = None) -> None:
    """Record a histogram observation; the exemplar defaults to the
    trace id of the innermost active span, linking the latency bucket
    back to the causal span tree."""
    hub = kernel.obs
    if hub is not None:
        if exemplar is None:
            exemplar = hub.tracer.current_trace_id()
        hub.metrics.observe(name, value, labels, exemplar=exemplar)
        _fan_out(kernel, hub, name, value, _timeseries.VALUE_SAMPLE)


__all__ = [
    "Observability",
    "install",
    "uninstall",
    "install_flight",
    "enable_timeseries",
    "enable_burn_check",
    "span",
    "count",
    "gauge",
    "observe",
    "CounterHandle",
    "GaugeHandle",
    "record",
    "current_context",
    "fleet",
    "flight",
    "profile",
    "TraceContext",
    "Span",
    "SpanError",
    "NullSpan",
    "NULL_SPAN",
    "Tracer",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "StructuredLogger",
    "get_logger",
    "export",
]
