"""Deterministic postmortem bundles.

When an incident is declared — a window of the run breaches an SLO, or
a request dies with an unrecovered ``PlatformError`` — the
:class:`PostmortemCollector` seals everything an investigation needs
into one JSON bundle:

* the tail of the flight tape (what the platform was doing just before);
* the offending request's span tree (finished and still-open spans of
  the incident trace);
* windowed metric rollups around the incident (the curves, not just
  end-of-run scalars);
* SLO burn at seal time;
* the fault schedule digest, fired counts, and schedule tail;
* every SLO breach flagged so far; and
* a **replay recipe** — the seed plus the experiment parameters that
  produced the run. Because the whole stack is deterministic, feeding
  the recipe back (``repro.bench.fault_sweep.replay_recipe``, which
  re-runs the one world the recipe names) reproduces the identical
  incident: same schedule digest, same breached windows.

Bundles are sealed from *live* state (reading the tracer, registry,
flight ring and injector mutates nothing and advances no clock), so
collection never perturbs the run it is documenting. Rendering lives
here too (:meth:`PostmortemBundle.render`) and is exposed as
``repro.obs.cli postmortem``.
"""

from __future__ import annotations

import json
import pathlib
import re
from typing import Dict, List, Optional, Union

from repro.obs import slo as slo_mod
from repro.obs.log import get_logger

BUNDLE_SCHEMA = 2

# Flight events a bundle keeps: the newest of the recorder's ring.
FLIGHT_TAIL = 256

# Incident kinds.
SLO_BREACH = "slo-breach"
ERROR = "error"
MANUAL = "manual"

_log = get_logger("postmortem")


def _slug(text: str) -> str:
    cleaned = re.sub(r"[^A-Za-z0-9._-]+", "-", text).strip("-")
    return cleaned or "incident"


def _slo_status_dict(status: "slo_mod.SLOStatus") -> Dict[str, object]:
    return {
        "slo": status.slo.name,
        "objective": status.slo.objective,
        "bad_fraction": status.bad_fraction,
        "burn_rate": status.burn_rate,
        "breached": status.breached,
    }


class PostmortemBundle:
    """One sealed incident capsule (a JSON document with accessors)."""

    def __init__(self, payload: Dict[str, object]) -> None:
        if payload.get("schema") != BUNDLE_SCHEMA:
            raise ValueError(
                f"unsupported postmortem schema: {payload.get('schema')!r}")
        self.payload = payload

    # -- convenience accessors ---------------------------------------------------

    @property
    def reason(self) -> Dict[str, object]:
        return self.payload["reason"]  # type: ignore[return-value]

    @property
    def kind(self) -> str:
        return str(self.reason.get("kind", ""))

    @property
    def sealed_at_ms(self) -> float:
        return float(self.payload["sealed_at_ms"])  # type: ignore[arg-type]

    @property
    def trace_id(self) -> Optional[str]:
        value = self.payload.get("trace", {}).get("trace")  # type: ignore[union-attr]
        return None if value is None else str(value)

    @property
    def replay(self) -> Dict[str, object]:
        return dict(self.payload.get("replay") or {})  # type: ignore[arg-type]

    @property
    def breaches(self) -> List["slo_mod.SLOBreach"]:
        records = self.payload.get("breaches") or []
        return [slo_mod.SLOBreach.from_dict(r) for r in records]  # type: ignore[union-attr]

    # -- (de)serialization -------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(self.payload, sort_keys=True, indent=2)

    def write(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        path = pathlib.Path(path)
        path.write_text(self.to_json() + "\n", encoding="utf-8")
        return path

    @classmethod
    def load(cls, source: Union[str, pathlib.Path]) -> "PostmortemBundle":
        """Load a bundle from a JSON file path or raw JSON text."""
        if isinstance(source, pathlib.Path):
            text = source.read_text(encoding="utf-8")
        else:
            text = str(source)
            if not text.lstrip().startswith("{"):
                text = pathlib.Path(text).read_text(encoding="utf-8")
        return cls(json.loads(text))

    # -- rendering ---------------------------------------------------------------

    def render(self, flight_tail: int = 20) -> str:
        """Human-oriented incident report (``repro.obs.cli postmortem``)."""
        p = self.payload
        reason = self.reason
        lines: List[str] = []
        lines.append(f"POSTMORTEM  {p.get('label', '')}  "
                     f"sealed at {self.sealed_at_ms:.3f} ms sim")
        lines.append(f"  reason: {reason.get('kind')}"
                     + (f" — {reason.get('detail')}" if reason.get("detail") else ""))
        if self.trace_id:
            lines.append(f"  trace:  {self.trace_id}")
        replay = self.replay
        if replay:
            lines.append("")
            lines.append("REPLAY RECIPE")
            for key in sorted(replay):
                lines.append(f"  {key} = {replay[key]}")
        breaches = self.breaches
        if breaches:
            lines.append("")
            lines.append(f"SLO BREACHES ({len(breaches)})")
            for breach in breaches:
                lines.append("  " + breach.line())
        statuses = p.get("slo") or []
        if statuses:
            lines.append("")
            lines.append("SLO BURN AT SEAL")
            for s in statuses:
                burn = s.get("burn_rate")
                burn_text = "no data" if burn is None else f"burn={burn:.2f}"
                flag = "BREACHED" if s.get("breached") else "ok"
                lines.append(f"  {s['slo']:<24} {burn_text:<14} {flag}")
        faults = p.get("faults") or {}
        if faults:
            lines.append("")
            lines.append("FAULTS")
            lines.append(f"  schedule digest: {faults.get('schedule_digest')}")
            fired = faults.get("fired") or {}
            for site in sorted(fired):
                lines.append(f"  fired {site}: {fired[site]}")
        flight = p.get("flight") or {}
        events = flight.get("events") or []
        if events:
            lines.append("")
            shown = events[-flight_tail:]
            lines.append(f"FLIGHT TAPE (last {len(shown)} of "
                         f"{flight.get('total', len(events))} events, "
                         f"{flight.get('dropped', 0)} dropped)")
            from repro.obs.flight import FlightEvent
            for record in shown:
                lines.append("  " + FlightEvent.from_dict(record).line())
        spans = (p.get("trace") or {}).get("spans") or []
        if spans:
            lines.append("")
            lines.append(f"INCIDENT SPAN TREE ({len(spans)} spans)")
            lines.extend("  " + line for line in _render_span_tree(spans))
        return "\n".join(lines) + "\n"


def _render_span_tree(spans: List[Dict[str, object]]) -> List[str]:
    by_parent: Dict[Optional[int], List[Dict[str, object]]] = {}
    ids = {s.get("span") for s in spans}
    for s in spans:
        parent = s.get("parent")
        key = parent if parent in ids else None
        by_parent.setdefault(key, []).append(s)  # type: ignore[arg-type]

    lines: List[str] = []

    def walk(parent: Optional[int], depth: int) -> None:
        for s in sorted(by_parent.get(parent, []),
                        key=lambda s: (s.get("start_ms", 0.0), s.get("span", 0))):
            duration = s.get("duration_ms")
            time_text = ("open" if duration is None
                         else f"{float(duration):9.3f} ms")  # type: ignore[arg-type]
            status = s.get("status", "ok")
            mark = "" if status == "ok" else f"  [{status}]"
            lines.append(f"{'  ' * depth}{s.get('name')}  {time_text}{mark}")
            walk(s.get("span"), depth + 1)  # type: ignore[arg-type]

    walk(None, 0)
    return lines


class PostmortemCollector:
    """Seals bundles from live world state on an SLO breach or error.

    One collector per world. Subscribe :meth:`on_breach` to the hub's
    SLO burn check and call :meth:`on_error` from the request loop's
    ``PlatformError`` handler; both funnel into :meth:`seal`.

    ``recipe`` is the experiment's replay recipe (seed + parameters);
    the collector stamps the live fault-schedule digest into it at seal
    time so the bundle is self-reproducing. ``max_bundles`` caps how
    many incidents one run may seal (a 100%-fault-rate run would
    otherwise bundle every request); further incidents are counted in
    ``suppressed`` but not sealed.
    """

    def __init__(self, kernel, seed: Optional[int] = None,
                 label: str = "incident",
                 recipe: Optional[Dict[str, object]] = None,
                 out_dir: Optional[Union[str, pathlib.Path]] = None,
                 max_bundles: int = 8) -> None:
        if max_bundles < 1:
            raise ValueError(f"max_bundles must be >= 1, got {max_bundles}")
        self.kernel = kernel
        self.seed = seed
        self.label = _slug(label)
        self.recipe = dict(recipe or {})
        self.out_dir = None if out_dir is None else pathlib.Path(out_dir)
        self.max_bundles = max_bundles
        self.bundles: List[PostmortemBundle] = []
        self.paths: List[pathlib.Path] = []
        self.suppressed = 0

    # -- incident hooks ----------------------------------------------------------

    def on_breach(self, breach: "slo_mod.SLOBreach"
                  ) -> Optional[PostmortemBundle]:
        """Burn-check subscriber: seal on the first breach(es)."""
        return self.seal(SLO_BREACH, detail=breach.line())

    def on_error(self, error: BaseException,
                 trace_id: Optional[str] = None) -> Optional[PostmortemBundle]:
        """Request-loop hook for an unrecovered platform error."""
        return self.seal(
            ERROR,
            detail=f"{type(error).__name__}: {error}",
            error_type=type(error).__name__,
            trace_id=trace_id,
        )

    # -- sealing -----------------------------------------------------------------

    def seal(self, kind: str, detail: str = "",
             error_type: Optional[str] = None,
             trace_id: Optional[str] = None) -> Optional[PostmortemBundle]:
        """Capture live state into a bundle (None once over the cap)."""
        if len(self.bundles) >= self.max_bundles:
            self.suppressed += 1
            return None
        kernel = self.kernel
        hub = kernel.obs
        reason: Dict[str, object] = {"kind": kind}
        if detail:
            reason["detail"] = detail
        if error_type:
            reason["error_type"] = error_type

        payload: Dict[str, object] = {
            "schema": BUNDLE_SCHEMA,
            "label": self.label,
            "bundle_seq": len(self.bundles) + 1,
            "sealed_at_ms": kernel.clock.now,
            "reason": reason,
        }
        if self.seed is not None:
            payload["seed"] = self.seed

        # Flight tape tail.
        flight = hub.flight if hub is not None else None
        if flight is not None:
            tail = flight.last(FLIGHT_TAIL)
            payload["flight"] = {
                "total": flight.total,
                "dropped": flight.dropped,
                "events": [e.as_dict() for e in tail],
            }

        # Incident span tree: finished + still-open spans of the trace.
        if hub is not None:
            tracer = hub.tracer
            if trace_id is None:
                trace_id = tracer.current_trace_id()
            if trace_id is not None:
                spans = [s.as_dict() for s in tracer.by_trace(trace_id)]
                spans += [s.as_dict() for s in tracer.open_spans()
                          if s.trace_id == trace_id]
                payload["trace"] = {"trace": trace_id, "spans": spans}

            if hub.timeseries is not None:
                payload["metrics_windows"] = {
                    "window_ms": hub.timeseries.window_ms,
                    "series": hub.timeseries.rollup(),
                }
            payload["slo"] = [
                _slo_status_dict(s)
                for s in slo_mod.evaluate_slos(hub.metrics)
            ]
            if hub.burn is not None:
                payload["breaches"] = [
                    b.as_dict() for b in hub.burn.breaches]

        # Fault schedule provenance + replay recipe.
        recipe = dict(self.recipe)
        if self.seed is not None:
            recipe.setdefault("seed", self.seed)
        injector = kernel.faults
        if injector is not None:
            digest = injector.schedule_digest()
            payload["faults"] = {
                "schedule_digest": digest,
                "decisions": len(injector.records),
                "fired": dict(injector.fired),
                "plan": injector.plan.describe(),
                "schedule_tail": injector.schedule_lines()[-32:],
            }
            recipe["fault_schedule_digest"] = digest
        if recipe:
            payload["replay"] = recipe

        bundle = PostmortemBundle(payload)
        self.bundles.append(bundle)
        if self.out_dir is not None:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            name = f"postmortem-{self.label}-{len(self.bundles):03d}.json"
            self.paths.append(bundle.write(self.out_dir / name))
        _log.info("postmortem.sealed", kind=kind,
                  bundle_seq=len(self.bundles),
                  sealed_at_ms=round(kernel.clock.now, 3),
                  detail=detail or None)
        return bundle


def load_bundles(directory: Union[str, pathlib.Path]) -> List[PostmortemBundle]:
    """Load every ``postmortem-*.json`` in a directory, name order."""
    out = []
    for path in sorted(pathlib.Path(directory).glob("postmortem-*.json")):
        out.append(PostmortemBundle.load(path))
    return out
