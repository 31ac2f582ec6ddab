"""The failure model: named injection sites and per-site specs.

A :class:`FaultPlan` declares, per named site, the probability that
the fault fires when execution crosses that site, plus the extra
latency of a latency-type site (hangs, slow I/O). Sites
are string names; a spec may only name one of :data:`SITES`, the set the
platform instruments, since a misspelt site would arm nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

# Canonical injection sites wired through the stack.
RESTORE_FAIL = "restore.fail"      # restore dies before the process resumes
RESTORE_HANG = "restore.hang"      # restore hangs; the watchdog kills it
IMAGE_CORRUPT = "image.corrupt"    # stored checkpoint image bit-rots
IO_SLOW = "io.slow"                # image page reads hit slow storage
REPLICA_CRASH = "replica.crash"    # replica dies while serving
OOM_KILL = "oom.kill"              # cgroup OOM killer fires post-request
STORE_NODE_DOWN = "store.node_down"    # a snapshot storage node crashes
STORE_PARTITION = "store.partition"    # one replica fetch hop unreachable
STORE_SLOW_SHARD = "store.slow_shard"  # a shard answers, but slowly

SITES: Tuple[str, ...] = (
    RESTORE_FAIL,
    RESTORE_HANG,
    IMAGE_CORRUPT,
    IO_SLOW,
    REPLICA_CRASH,
    OOM_KILL,
    STORE_NODE_DOWN,
    STORE_PARTITION,
    STORE_SLOW_SHARD,
)

# Default extra latency per site when the spec does not override it.
DEFAULT_DELAY_MS: Dict[str, float] = {
    RESTORE_HANG: 1_000.0,        # watchdog timeout for a hung restore
    IO_SLOW: 50.0,                # slow-disk penalty on image reads
    STORE_NODE_DOWN: 5_000.0,     # how long a crashed storage node stays down
    STORE_SLOW_SHARD: 25.0,       # straggler penalty on one shard fetch
}

@dataclass(frozen=True)
class FaultSpec:
    """How one site misbehaves.

    ``probability`` is evaluated independently at every crossing of the
    site; ``delay_ms`` is the extra simulated latency for latency-type
    sites.
    """

    site: str
    probability: float
    delay_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; known: {SITES}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"fault probability must be in [0, 1], got {self.probability}"
            )
        if self.delay_ms is not None and self.delay_ms < 0:
            raise ValueError(f"delay_ms must be >= 0, got {self.delay_ms}")

    @property
    def effective_delay_ms(self) -> float:
        if self.delay_ms is not None:
            return self.delay_ms
        return DEFAULT_DELAY_MS.get(self.site, 0.0)


@dataclass
class FaultPlan:
    """A full experiment's failure model: one spec per active site."""

    specs: Dict[str, FaultSpec] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for site, spec in self.specs.items():
            if spec.site != site:
                raise ValueError(
                    f"spec for site {site!r} carries site name {spec.site!r}"
                )

    # -- queries ---------------------------------------------------------------

    def spec(self, site: str) -> Optional[FaultSpec]:
        return self.specs.get(site)

    def describe(self) -> str:
        if not self.specs:
            return "faults: none"
        return "faults: " + ", ".join(
            f"{site}={self.specs[site].probability:g}"
            for site in sorted(self.specs))
