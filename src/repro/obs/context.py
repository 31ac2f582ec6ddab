"""Causal trace context: the propagation handle of the span layer.

A :class:`TraceContext` is the minimal tuple needed to attach work done
in one component to the request that caused it: the trace id plus the
span id of the causal parent. It is minted wherever a request enters
the system (the gateway or the router), stamped onto the
:class:`~repro.runtime.base.Request`, and carried along the
``router → pool → deployer → starters → replica → runtime`` path, so a
span opened far from the call stack that minted the trace still lands
in the same causal tree.

Within one synchronous call chain the tracer's span stack already
supplies parenting; the explicit context matters at the seams — a
replica serving a request that was routed earlier, a pool handing out
a pre-started instance, exemplars linking a histogram bucket back to
the trace that produced the observation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class TraceContext:
    """Immutable (trace id, parent span id) propagation handle."""

    trace_id: str
    span_id: Optional[int] = None
