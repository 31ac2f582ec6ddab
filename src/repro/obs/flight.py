"""Flight recorder: an always-on bounded ring of lifecycle events.

The black box of the platform. Instrumented layers append structured
:class:`FlightEvent` records — request admitted/routed, restore phase
transitions, fault injections, retries, cache traffic, autoscaler
decisions — into a bounded ring buffer on the telemetry hub
(``kernel.obs.flight``). When an incident is declared the *last N* events
are exactly the window a postmortem needs: what the platform was doing
right before things went wrong.

Design constraints, in order:

* **Near-zero cost when disabled.** Instrumentation goes through
  :func:`repro.obs.record`, which is one attribute load when
  ``kernel.obs is None`` (the default) — the same discipline as the
  tracer and the fault injector.
* **No interference with the simulation.** Recording reads the clock
  and never advances it, and draws no randomness, so a recorded world
  replays bit-identically to an unrecorded one under the same seed.
* **Bounded.** The ring holds ``capacity`` events; older events are
  evicted oldest-first and only counted (``dropped``), never resized.

Events carry the active trace/span ids when the hub's tracer has a
span open, so a flight tape can be joined against the span tree of
the same run.
"""

from __future__ import annotations

import json
import pathlib
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Union

FLIGHT_SCHEMA = 1

# Default ring capacity: enough to cover the tail of a burst (a cold
# start emits ~a dozen events) without holding a whole run.
DEFAULT_CAPACITY = 2048

# -- canonical event kinds ----------------------------------------------------
#
# Kinds are plain strings (new instrumentation points need no central
# change), but the set the platform emits is listed here so tooling and
# tests have one vocabulary.

REQUEST_ADMITTED = "request.admitted"        # router accepted a request
REQUEST_ROUTED = "request.routed"            # request dispatched + served
REQUEST_REQUEUED = "request.requeued"        # capacity exhausted, backoff
REQUEST_TIMEOUT = "request.timeout"          # dispatch deadline blown
REQUEST_CRASH_RETRY = "request.crash-retry"  # replica died mid-request
REPLICA_PROVISIONED = "replica.provisioned"  # deployer brought one up
REPLICA_REAPED = "replica.reaped"            # health check reaped a corpse
RESTORE_STARTED = "restore.started"          # criu restore began
RESTORE_FINISHED = "restore.finished"        # process resumed
RESTORE_FAILED = "restore.failed"            # restore died / hung
RESTORE_RETRY = "restore.retry"              # starter backing off to retry
RESTORE_FALLBACK = "restore.fallback"        # starter gave up, went vanilla
SNAPSHOT_QUARANTINED = "snapshot.quarantined"
SNAPSHOT_REPAIRED = "snapshot.repaired"
CACHE_LOOKUP = "cache.lookup"                # chunk-cache pass summary
FAULT_INJECTED = "fault.injected"            # injector fired a site
AUTOSCALER_ACTION = "autoscaler.action"      # scale-up/gc/reap/heal/prewarm
DEPLOY = "deploy"                            # function (re)deployed/baked
SLO_BREACH = "slo.breach"                    # a window burned an SLO
RESTORE_DEGRADED = "restore.degraded"        # quorum lost; survivors served
SHARD_NODE_DOWN = "shard.node-down"          # a storage node crashed
SHARD_NODE_UP = "shard.node-up"              # a storage node recovered
SHARD_BREAKER = "shard.breaker"              # circuit breaker state change
PREWARM_PREFETCH = "prewarm.prefetch"        # predictive chunk prefetch summary

EVENT_KINDS = (
    REQUEST_ADMITTED, REQUEST_ROUTED, REQUEST_REQUEUED, REQUEST_TIMEOUT,
    REQUEST_CRASH_RETRY, REPLICA_PROVISIONED, REPLICA_REAPED,
    RESTORE_STARTED, RESTORE_FINISHED, RESTORE_FAILED, RESTORE_RETRY,
    RESTORE_FALLBACK, SNAPSHOT_QUARANTINED, SNAPSHOT_REPAIRED,
    CACHE_LOOKUP, FAULT_INJECTED, AUTOSCALER_ACTION, DEPLOY, SLO_BREACH,
    RESTORE_DEGRADED, SHARD_NODE_DOWN, SHARD_NODE_UP,
    SHARD_BREAKER, PREWARM_PREFETCH,
)


class FlightError(Exception):
    """Malformed flight event during decode."""


class FlightEvent:
    """One structured lifecycle event on the flight tape.

    ``node`` is the first-class node identity of the emitter (a
    compute ``node-*`` or storage ``store-*`` id) so fleet tooling can
    slice a tape by node without digging through free-form attrs; a
    ``node=`` keyword passed to :meth:`FlightRecorder.record` is
    hoisted into it.
    """

    __slots__ = ("seq", "at_ms", "kind", "trace_id", "span_id", "node",
                 "attrs")

    def __init__(self, seq: int, at_ms: float, kind: str,
                 trace_id: Optional[str] = None,
                 span_id: Optional[int] = None,
                 attrs: Optional[Dict[str, object]] = None,
                 node: Optional[str] = None) -> None:
        self.seq = seq
        self.at_ms = at_ms
        self.kind = kind
        self.trace_id = trace_id
        self.span_id = span_id
        self.attrs = attrs or {}
        if node is None and "node" in self.attrs:
            node = str(self.attrs["node"])
        self.node = node

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable form (one JSONL tape line)."""
        record: Dict[str, object] = {
            "seq": self.seq,
            "at_ms": self.at_ms,
            "kind": self.kind,
            "attrs": dict(self.attrs),
        }
        if self.trace_id is not None:
            record["trace"] = self.trace_id
        if self.span_id is not None:
            record["span"] = self.span_id
        if self.node is not None:
            record["node"] = self.node
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "FlightEvent":
        """Inverse of :meth:`as_dict`; raises :class:`FlightError` on
        anything that is not a flight event record."""
        if not isinstance(record, dict) or "kind" not in record:
            raise FlightError(f"not a flight event record: {record!r}")
        try:
            return cls(
                seq=int(record["seq"]),
                at_ms=float(record["at_ms"]),
                kind=str(record["kind"]),
                trace_id=(None if record.get("trace") is None
                          else str(record["trace"])),
                span_id=(None if record.get("span") is None
                         else int(record["span"])),  # type: ignore[arg-type]
                attrs=dict(record.get("attrs") or {}),  # type: ignore[arg-type]
                node=(None if record.get("node") is None
                      else str(record["node"])),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FlightError(f"malformed flight event: {exc}") from None

    def line(self) -> str:
        """Human-oriented one-line rendering (postmortem tail)."""
        blob = " ".join(f"{k}={v}" for k, v in sorted(self.attrs.items()))
        trace = f" trace={self.trace_id}" if self.trace_id else ""
        return (f"{self.seq:06d} {self.at_ms:12.3f}ms "
                f"{self.kind:<20}{trace} {blob}".rstrip())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlightEvent({self.kind!r} seq={self.seq} at={self.at_ms})"


class FlightRecorder:
    """Bounded per-world event ring.

    ``clock`` is anything with a ``now`` property on simulated
    milliseconds; ``tracer`` (optional) supplies trace/span correlation
    for events recorded while a span is open.
    """

    def __init__(self, clock, tracer=None,
                 capacity: int = DEFAULT_CAPACITY,
                 metrics=None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.clock = clock
        self.tracer = tracer
        self.capacity = capacity
        # Optional MetricsRegistry: evictions increment
        # flight_dropped_total there, so truncated evidence is visible
        # in scrapes and fleet reports, not only on the ring object.
        self.metrics = metrics
        self._ring: Deque[FlightEvent] = deque(maxlen=capacity)
        self.total = 0          # events ever recorded
        self._next_seq = 1

    # -- recording -------------------------------------------------------------

    def record(self, kind: str, **attrs: object) -> FlightEvent:
        """Append one event (evicting the oldest when full).

        Reads the clock, never advances it; draws no randomness.
        """
        trace_id: Optional[str] = None
        span_id: Optional[int] = None
        tracer = self.tracer
        if tracer is not None:
            context = tracer.current_context()
            if context is not None:
                trace_id = context.trace_id
                span_id = context.span_id
        event = FlightEvent(
            seq=self._next_seq,
            at_ms=self.clock.now,
            kind=kind,
            trace_id=trace_id,
            span_id=span_id,
            attrs=attrs,
        )
        self._next_seq += 1
        self.total += 1
        evicting = len(self._ring) == self.capacity
        self._ring.append(event)
        if evicting and self.metrics is not None:
            self.metrics.inc("flight_dropped_total")
        return event

    # -- inspection ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def dropped(self) -> int:
        """Events evicted from the ring so far."""
        return self.total - len(self._ring)

    def events(self) -> List[FlightEvent]:
        """Buffered events oldest-first."""
        return list(self._ring)

    def last(self, n: int) -> List[FlightEvent]:
        """The newest ``n`` events, oldest-first."""
        if n <= 0:
            return []
        return list(self._ring)[-n:]

    def clear(self) -> None:
        self._ring.clear()


# -- tape (de)serialization ---------------------------------------------------


def events_to_jsonl(events: Iterable[Union[FlightEvent, Dict[str, object]]]
                    ) -> str:
    """One JSON object per line, oldest-first.

    Accepts :class:`FlightEvent` objects or their ``as_dict`` records —
    harness sinks accumulate the latter (stamped with ``rep`` and
    ``technique``), live recorders hold the former.
    """
    lines = [
        json.dumps(e if isinstance(e, dict) else e.as_dict(), sort_keys=True)
        for e in events
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def write_flight_jsonl(path: Union[str, pathlib.Path],
                       events: Iterable[Union[FlightEvent, Dict[str, object]]]
                       ) -> pathlib.Path:
    path = pathlib.Path(path)
    path.write_text(events_to_jsonl(events), encoding="utf-8")
    return path
