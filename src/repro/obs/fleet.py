"""Fleet-scale aggregates that stay bounded at millions of requests.

A fleet's counters and histograms need nothing beyond one
:class:`~repro.obs.metrics.MetricsRegistry` with a ``node=`` label on
each series: fleet totals are unlabelled ``value`` reads, and fleet
quantiles come from :func:`repro.obs.slo.merged_histogram`, which
merges the node histograms bucket-wise, so no per-request sample list
is ever kept. This module holds the two aggregates a registry cannot
express:

* :class:`SpaceSavingSketch` — the Metwally/Agrawal/El Abbadi
  Space-Saving heavy-hitters sketch: top-k hot functions / hot chunks
  in O(capacity) memory with a per-key overestimation bound.
* :class:`ColdStartAttribution` — the exact critical-path
  decomposition of PR4's :class:`~repro.obs.profile.PhaseProfiler`
  (phase sums equal ready-spawned time to float round-off, enforced
  on every record) bucketed by (function, node, cache outcome),
  renderable as a fleet blame table and folded flamegraph stacks.

Nothing here is touched by world-local instrumentation, so serial
single-node runs stay byte-identical to the committed baselines.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Sequence, Tuple

NODE_LABEL = "node"

# Canonical cache outcomes for cold-start attribution buckets.
OUTCOME_LOCAL_HIT = "local-hit"        # majority of image bytes from the node cache
OUTCOME_REMOTE_FETCH = "remote-fetch"  # majority pulled from storage nodes, clean quorum
OUTCOME_DEGRADED = "degraded"          # quorum needed retry hops / lost replicas

OUTCOMES = (OUTCOME_LOCAL_HIT, OUTCOME_REMOTE_FETCH, OUTCOME_DEGRADED)


class FleetError(Exception):
    """Fleet aggregate misuse (bad sketch weights, bad phases)."""


# ---------------------------------------------------------------------------
# Space-Saving top-k sketch
# ---------------------------------------------------------------------------


class SpaceSavingSketch:
    """Memory-bounded heavy hitters (Space-Saving, SIGMOD'05 variant).

    Holds at most ``capacity`` keys. A new key arriving at a full
    sketch evicts the current minimum-count key and inherits its count
    as overestimation ``error`` — so ``count - error`` is a guaranteed
    lower bound on the key's true weight, and any key whose true
    weight exceeds ``total / capacity`` is guaranteed present.
    Deterministic: eviction ties break on the lexicographically
    smallest key.
    """

    __slots__ = ("capacity", "total", "_counts", "_errors", "_heap")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise FleetError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.total = 0.0
        self._counts: Dict[str, float] = {}
        self._errors: Dict[str, float] = {}
        # One (count, key) entry per tracked key. A hit does not touch
        # it, so an entry's count may lag its key's, never lead it
        # (weights are non-negative): the victim search refreshes lagging
        # entries until the top one is current, and that is the minimum.
        self._heap: List[Tuple[float, str]] = []

    def offer(self, key: str, weight: float = 1.0) -> None:
        """Add ``weight`` to ``key``'s count, evicting the minimum if full.

        One offer of a positive whole-number weight ``w`` leaves the counts,
        errors and total that ``w`` unit offers of the key would: the
        victim is always the true ``(count, key)`` minimum whatever lag
        the heap entries carry, and the first unit would evict that same
        victim before the rest add up. So a run of equal keys can be
        offered once, with its length as the weight.
        """
        if not weight >= 0:      # also refuses NaN, which no count can order
            raise FleetError("sketch weights only go up")
        self.total += weight
        counts = self._counts
        if key in counts:
            counts[key] += weight
            return
        heap = self._heap
        if len(counts) < self.capacity:
            counts[key] = weight
            self._errors[key] = 0.0
            heapq.heappush(heap, (weight, key))
            return
        floor, victim = heap[0]
        while counts[victim] != floor:
            heapq.heapreplace(heap, (counts[victim], victim))
            floor, victim = heap[0]
        del counts[victim]
        del self._errors[victim]
        counts[key] = floor + weight
        self._errors[key] = floor
        heapq.heapreplace(heap, (floor + weight, key))

    def __len__(self) -> int:
        return len(self._counts)

    def top(self, k: int) -> List[Tuple[str, float, float]]:
        """The ``k`` heaviest tracked keys as ``(key, count, error)``,
        heaviest first (ties on key for deterministic output)."""
        ranked = sorted(self._counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return [(key, count, self._errors[key])
                for key, count in ranked[:max(0, k)]]


# ---------------------------------------------------------------------------
# Cold-start attribution
# ---------------------------------------------------------------------------

# Phase sums must equal the request's ready-spawned time to float
# round-off (the PhaseProfiler invariant, PR4). One part in 1e9 of the
# total covers any associativity dust without hiding a real leak.
PHASE_SUM_REL_TOLERANCE = 1e-9


class AttributionCell:
    """Accumulated decomposition of one (function, node, outcome)."""

    __slots__ = ("function", "node", "outcome", "count", "total_ms",
                 "phase_ms")

    def __init__(self, function: str, node: str, outcome: str) -> None:
        self.function = function
        self.node = node
        self.outcome = outcome
        self.count = 0
        self.total_ms = 0.0
        self.phase_ms: Dict[str, float] = {}

    @property
    def mean_ms(self) -> float:
        return self.total_ms / self.count if self.count else 0.0

    def dominant_phase(self) -> str:
        if not self.phase_ms:
            return "-"
        return max(self.phase_ms.items(), key=lambda kv: (kv[1], kv[0]))[0]

    def as_dict(self) -> Dict[str, object]:
        return {
            "function": self.function, "node": self.node,
            "outcome": self.outcome, "count": self.count,
            "total_ms": self.total_ms,
            "phases": dict(sorted(self.phase_ms.items())),
        }


class ColdStartAttribution:
    """Exact critical-path decomposition, bucketed and bounded.

    State is one cell per (function, node, cache outcome) — bounded
    by the key space, never by request count. Every :meth:`record`
    enforces the accounting invariant before accumulating: the phase
    sums must reproduce the request's ready-spawned total to float
    round-off, so the blame table can never silently leak time.
    """

    def __init__(self) -> None:
        self._cells: Dict[Tuple[str, str, str], AttributionCell] = {}

    def record(self, function: str, node: str, outcome: str,
               phases: Dict[str, float], total_ms: float) -> None:
        if outcome not in OUTCOMES:
            raise FleetError(f"unknown cache outcome {outcome!r}; "
                             f"expected one of {OUTCOMES}")
        phase_sum = 0.0
        for value in phases.values():
            phase_sum += value
        tolerance = PHASE_SUM_REL_TOLERANCE * max(1.0, abs(total_ms))
        if abs(phase_sum - total_ms) > tolerance:
            raise FleetError(
                f"phase sums must equal ready-spawned time: "
                f"{phase_sum!r} != {total_ms!r} for {function}/{node}"
            )
        key = (function, node, outcome)
        cell = self._cells.get(key)
        if cell is None:
            cell = AttributionCell(function, node, outcome)
            self._cells[key] = cell
        cell.count += 1
        cell.total_ms += total_ms
        for phase, value in phases.items():
            cell.phase_ms[phase] = cell.phase_ms.get(phase, 0.0) + value

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def total_ms(self) -> float:
        return sum(cell.total_ms for cell in self._cells.values())

    def cells(self) -> List[AttributionCell]:
        """All cells, heaviest total first (deterministic tie order)."""
        return sorted(self._cells.values(),
                      key=lambda c: (-c.total_ms, c.function, c.node,
                                     c.outcome))

    def blame_table(self) -> str:
        """The fleet blame table: who is burning the cold-start time
        (the 12 costliest cells)."""
        fleet_total = self.total_ms or 1.0
        rows = []
        for cell in self.cells()[:12]:
            rows.append([
                cell.function, cell.node, cell.outcome, str(cell.count),
                f"{cell.total_ms:.1f}", f"{cell.mean_ms:.2f}",
                f"{100.0 * cell.total_ms / fleet_total:.1f}%",
                cell.dominant_phase(),
            ])
        return format_table(
            ["function", "node", "outcome", "count", "total(ms)",
             "mean(ms)", "share", "dominant phase"],
            rows,
        )

    def folded_lines(self, prefix: str = "fleet") -> List[str]:
        """Folded flamegraph stacks (``frame;frame <integer µs>``).

        Stack order node → function → outcome → phase, so a fleet
        flamegraph drills from *where* through *what* to *why*.
        """
        lines = []
        for cell in self.cells():
            base = f"{prefix};{cell.node};{cell.function};{cell.outcome}"
            for phase in sorted(cell.phase_ms):
                micros = int(round(cell.phase_ms[phase] * 1000.0))
                if micros > 0:
                    lines.append(f"{base};{phase} {micros}")
        return lines

    def as_dict(self) -> List[Dict[str, object]]:
        return [cell.as_dict() for cell in self.cells()]

    @classmethod
    def from_dict(cls, records: Iterable[Dict[str, object]]
                  ) -> "ColdStartAttribution":
        out = cls()
        for record in records:
            cell = AttributionCell(str(record["function"]),
                                   str(record["node"]),
                                   str(record["outcome"]))
            cell.count = int(record["count"])          # type: ignore[arg-type]
            cell.total_ms = float(record["total_ms"])  # type: ignore[arg-type]
            cell.phase_ms = {str(k): float(v)
                             for k, v in dict(record["phases"]).items()}  # type: ignore[arg-type]
            out._cells[(cell.function, cell.node, cell.outcome)] = cell
        return out


def format_table(headers: Sequence[object],
                 rows: Sequence[Sequence[object]]) -> str:
    """Left-aligned text table of ``str()`` cells: header row, dash
    rule, data rows."""
    head, *body = [[str(cell) for cell in row] for row in [headers, *rows]]
    widths = [len(h) for h in head]
    for row in body:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(row: List[str]) -> str:
        return "  ".join(cell.ljust(widths[i])
                         for i, cell in enumerate(row)).rstrip()

    lines = [fmt(head), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in body)
    return "\n".join(lines)


__all__ = [
    "NODE_LABEL",
    "OUTCOME_LOCAL_HIT",
    "OUTCOME_REMOTE_FETCH",
    "OUTCOME_DEGRADED",
    "OUTCOMES",
    "FleetError",
    "SpaceSavingSketch",
    "ColdStartAttribution",
    "AttributionCell",
]
