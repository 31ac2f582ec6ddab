"""The seeded fault injector installed on a kernel.

Mirrors :class:`repro.obs.Observability`: one injector per simulated
world, attached to ``kernel.faults``. Instrumented code asks
:func:`repro.faults.should_fire` whether a named site misbehaves right
now; a world without an injector pays one attribute load and never
draws randomness, so fault-free runs are bit-identical to a build
without the framework.

Determinism: every site draws from its own named RNG stream
(``fault.<site>``) derived from the world's master seed, so the fault
schedule is a pure function of (seed, sequence of site crossings) and
adding a new site never perturbs the draws of existing ones. The full
schedule is recorded and can be digested for CI determinism checks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List

from repro import obs
from repro.faults.model import FaultPlan


@dataclass(frozen=True)
class FaultRecord:
    """One evaluated injection decision (fired or not)."""

    seq: int
    site: str
    at_ms: float
    draw: float
    fired: bool
    detail: str = ""

    def line(self) -> str:
        mark = "FIRE" if self.fired else "pass"
        return (f"{self.seq:06d} {self.site:<15} {mark} "
                f"draw={self.draw:.6f} at={self.at_ms:.3f} {self.detail}")


class FaultInjector:
    """Per-world fault oracle with a reproducible schedule log."""

    def __init__(self, kernel, plan: FaultPlan) -> None:
        self.kernel = kernel
        self.plan = plan
        self.records: List[FaultRecord] = []
        self.fired: Dict[str, int] = {}
        self._seq = 0

    # -- decisions ---------------------------------------------------------------

    def should_fire(self, site: str, detail: str = "") -> bool:
        """Evaluate ``site`` once; record and count the decision.

        Sites absent from the plan (or at probability 0) consume no
        randomness at all, so a plan only perturbs the streams of the
        sites it actually arms.
        """
        spec = self.plan.spec(site)
        if spec is None or spec.probability <= 0.0:
            return False
        draw = self.kernel.streams.get(f"fault.{site}").random()
        fires = draw < spec.probability
        self._seq += 1
        self.records.append(FaultRecord(
            seq=self._seq,
            site=site,
            at_ms=self.kernel.clock.now,
            draw=draw,
            fired=fires,
            detail=detail,
        ))
        if fires:
            self.fired[site] = self.fired.get(site, 0) + 1
            obs.record(self.kernel, obs.flight.FAULT_INJECTED, site=site,
                       seq=self._seq, fires=self.fired[site],
                       detail=detail or None)
            obs.count(self.kernel, "fault_injected_total", labels={"site": site})
        return fires

    def delay_ms(self, site: str) -> float:
        """Extra simulated latency the armed site imposes when it fires."""
        spec = self.plan.spec(site)
        return spec.effective_delay_ms if spec is not None else 0.0

    # -- schedule inspection -------------------------------------------------------

    def fired_count(self) -> int:
        return sum(self.fired.values())

    def schedule_lines(self) -> List[str]:
        return [r.line() for r in self.records]

    def schedule_digest(self) -> str:
        """SHA-256 over the decision schedule — equal digests mean two
        runs injected exactly the same faults at the same points."""
        hasher = hashlib.sha256()
        for record in self.records:
            hasher.update(
                f"{record.seq}|{record.site}|{record.draw:.12f}|"
                f"{record.fired}|{record.at_ms:.6f}\n".encode("utf-8")
            )
        return hasher.hexdigest()
