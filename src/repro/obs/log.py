"""Structured diagnostic logging (stderr), keeping stdout for results.

The bench CLIs print rendered tables/reports to stdout so pipelines
can capture them; everything *about* the run (timings, file writes,
errors) goes through here as ``key=value`` lines on stderr:

    level=info component=bench event=experiment.done name=fig4 wall_s=2.1

Log lines can be correlated with the active trace: a bench CLI binds
the world tracer via :func:`bound_trace_provider`, and every line
emitted while a span is
open then carries ``trace_id=…`` — the same id the span tree, flight
tape, and postmortem bundle use for that request.
"""

from __future__ import annotations

import contextlib
import sys
from typing import Callable, Dict, Iterator, Optional

LEVELS = ("debug", "info", "warning", "error")

# Process-wide hook returning the active trace id (or None when no
# span is open). One world runs at a time per thread in the bench
# CLIs, so a single slot is enough; parallel harness workers each run
# in their own process.
_trace_provider: Optional[Callable[[], Optional[str]]] = None


@contextlib.contextmanager
def bound_trace_provider(
        provider: Optional[Callable[[], Optional[str]]]) -> Iterator[None]:
    """Install ``provider`` as the active-trace-id hook (typically the
    world tracer's ``current_trace_id``) for the block, then restore
    the previous one."""
    global _trace_provider
    previous = _trace_provider
    _trace_provider = provider
    try:
        yield
    finally:
        _trace_provider = previous


def _format_field(value: object) -> str:
    if isinstance(value, float):
        text = f"{value:.6g}"
    else:
        text = str(value)
    if any(ch.isspace() for ch in text) or text == "":
        escaped = text.replace('"', '\\"')
        return f'"{escaped}"'
    return text


class StructuredLogger:
    """Key=value line logger bound to one component name.

    Lines go to the *current* ``sys.stderr`` at emit time so pytest's
    capture fixtures (and shell redirections) see them.
    """

    def __init__(self, component: str) -> None:
        self.component = component

    def log(self, level: str, event: str, **fields: object) -> None:
        if level not in LEVELS:
            raise ValueError(f"unknown log level {level!r}")
        parts = [f"level={level}", f"component={self.component}",
                 f"event={event}"]
        if "trace_id" not in fields and _trace_provider is not None:
            trace_id = _trace_provider()
            if trace_id is not None:
                parts.append(f"trace_id={_format_field(trace_id)}")
        parts.extend(f"{key}={_format_field(value)}"
                     for key, value in fields.items())
        print(" ".join(parts), file=sys.stderr)

    def info(self, event: str, **fields: object) -> None:
        self.log("info", event, **fields)

    def warning(self, event: str, **fields: object) -> None:
        self.log("warning", event, **fields)

    def error(self, event: str, **fields: object) -> None:
        self.log("error", event, **fields)


_loggers: Dict[str, StructuredLogger] = {}


def get_logger(component: str) -> StructuredLogger:
    """Shared logger per component name (stderr-bound)."""
    logger = _loggers.get(component)
    if logger is None:
        logger = StructuredLogger(component)
        _loggers[component] = logger
    return logger
