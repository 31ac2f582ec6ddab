"""Span-based lifecycle tracing for the prebake stack.

One :class:`Tracer` per simulated world. Spans nest (a per-tracer
stack supplies parenting), carry free-form attributes, and are stamped
exclusively with *simulated* time read from the world clock — a trace
therefore reproduces bit-for-bit under a fixed seed.

The instrumented hot paths never talk to a tracer directly; they go
through :func:`repro.obs.span`, which returns the shared
:data:`NULL_SPAN` when no collector is installed on the kernel, so an
un-observed world pays one attribute load per instrumentation point.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.context import TraceContext


class SpanError(Exception):
    """Span lifecycle violation (double finish, out-of-order exit)."""


class Span:
    """One timed operation in a trace.

    Usable as a context manager: entering is a no-op (the tracer
    already started it), exiting finishes it — with ``status="error"``
    and an ``error`` attribute if an exception is unwinding.
    """

    __slots__ = ("tracer", "trace_id", "span_id", "parent_id", "name",
                 "start_ms", "end_ms", "status", "attributes")

    def __init__(self, tracer: "Tracer", trace_id: str, span_id: int,
                 parent_id: Optional[int], name: str, start_ms: float,
                 attributes: Dict[str, object]) -> None:
        self.tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_ms = start_ms
        self.end_ms: Optional[float] = None
        self.status = "ok"
        self.attributes = attributes

    # -- recording --------------------------------------------------------------

    def set(self, **attributes: object) -> "Span":
        """Attach (or overwrite) attributes; chainable."""
        self.attributes.update(attributes)
        return self

    @property
    def finished(self) -> bool:
        return self.end_ms is not None

    @property
    def duration_ms(self) -> float:
        if self.end_ms is None:
            raise SpanError(f"span {self.name!r} has not finished")
        return self.end_ms - self.start_ms

    @property
    def context(self) -> TraceContext:
        """The propagation handle work caused by this span should carry."""
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.status = "error"
            # Record the exception type as its own tag so traces from
            # fault-injected runs are filterable by failure class
            # (e.g. error_type=RestoreFailed) without string parsing.
            self.attributes.setdefault("error_type", exc_type.__name__)
            self.attributes.setdefault("error", f"{exc_type.__name__}: {exc}")
        self.tracer.finish(self)
        return False

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable form (one JSONL trace line)."""
        return {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "duration_ms": None if self.end_ms is None else self.duration_ms,
            "status": self.status,
            "attrs": dict(self.attributes),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r} id={self.span_id} "
                f"parent={self.parent_id} status={self.status})")


class NullSpan:
    """Zero-cost stand-in when no collector is installed."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attributes: object) -> "NullSpan":
        return self

    @property
    def context(self) -> None:
        return None


NULL_SPAN = NullSpan()


class Tracer:
    """Per-world span collector.

    ``clock`` is anything with a ``now`` property in simulated
    milliseconds (normally the world's :class:`~repro.sim.clock.SimClock`).
    Every root span opens a fresh trace id; children inherit the trace
    of the span below them on the stack.
    """

    def __init__(self, clock) -> None:
        self.clock = clock
        self.spans: List[Span] = []       # finished spans, completion order
        self._stack: List[Span] = []
        self._next_span_id = 1
        self._next_trace_id = 1

    # -- span lifecycle -----------------------------------------------------------

    def span(self, name: str, context: Optional[TraceContext] = None,
             **attributes: object) -> Span:
        """Open a span (nested under the innermost active span).

        ``context`` adopts an explicit :class:`TraceContext` when the
        span stack cannot supply the causal parent — e.g. a replica
        serving a request whose trace was minted at the router. The
        stack wins whenever it is non-empty (lexical nesting is always
        the tighter causal link); a context-adopted span joins the
        carried trace instead of opening a fresh one.
        """
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            if context is not None:
                trace_id = context.trace_id
                parent_id = context.span_id
            else:
                trace_id = f"t-{self._next_trace_id:04d}"
                self._next_trace_id += 1
                parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        span = Span(
            tracer=self,
            trace_id=trace_id,
            span_id=self._next_span_id,
            parent_id=parent_id,
            name=name,
            start_ms=self.clock.now,
            attributes=dict(attributes),
        )
        self._next_span_id += 1
        self._stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        """Close ``span``; it must be the innermost active span."""
        if span.finished:
            raise SpanError(f"span {span.name!r} finished twice")
        if not self._stack or self._stack[-1] is not span:
            raise SpanError(
                f"span {span.name!r} finished out of order; active: "
                + ", ".join(s.name for s in self._stack)
            )
        self._stack.pop()
        span.end_ms = self.clock.now
        self.spans.append(span)

    # -- inspection ----------------------------------------------------------------

    def open_spans(self) -> List[Span]:
        """Active (unfinished) spans, outermost first.

        A clean run leaves this empty; the bench harness asserts so
        after every episode, which catches spans leaked on error paths.
        """
        return list(self._stack)

    def current_context(self) -> Optional[TraceContext]:
        """Propagation handle of the innermost active span, if any."""
        if not self._stack:
            return None
        return self._stack[-1].context

    def current_trace_id(self) -> Optional[str]:
        """Trace id of the innermost active span (exemplar source)."""
        if not self._stack:
            return None
        return self._stack[-1].trace_id

    def by_trace(self, trace_id: str) -> List[Span]:
        return [s for s in self.spans if s.trace_id == trace_id]
