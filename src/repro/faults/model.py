"""The failure model: named injection sites and per-site specs.

A :class:`FaultPlan` declares, per named site, the probability that
the fault fires when execution crosses that site, plus site-specific
knobs (extra latency for hangs/slow I/O, a cap on total fires). Sites
are string names so new instrumentation points need no central enum
change, but the canonical set the platform instruments is listed in
:data:`SITES`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Optional, Tuple

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

# keyword spelling (underscored) -> canonical site name. Site names may
# themselves contain underscores ("store.node_down"), so the keyword
# form is derived from the site, never the other way around.
_SITE_BY_KEYWORD: Dict[str, str] = {
    site.replace(".", "_"): site for site in SITES
}


@dataclass(frozen=True)
class FaultSpec:
    """How one site misbehaves.

    ``probability`` is evaluated independently at every crossing of the
    site; ``max_fires`` (if set) stops injection after that many fires,
    which is how tests model transient faults; ``delay_ms`` is the
    extra simulated latency for latency-type sites.
    """

    site: str
    probability: float
    delay_ms: Optional[float] = None
    max_fires: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"fault probability must be in [0, 1], got {self.probability}"
            )
        if self.max_fires is not None and self.max_fires < 0:
            raise ValueError(f"max_fires must be >= 0, got {self.max_fires}")
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

    # -- construction helpers ---------------------------------------------------

    @classmethod
    def of(cls, **rates_by_underscored_site: float) -> "FaultPlan":
        """Build a plan from ``site_name=probability`` keywords, with
        underscores standing in for the dots in site names::

            FaultPlan.of(restore_fail=0.5, replica_crash=0.1)

        Only the canonical :data:`SITES` are accepted — a typo'd
        keyword raises instead of silently arming a site nothing
        instruments (custom sites go through :meth:`with_spec`).
        """
        specs = {}
        for key, probability in rates_by_underscored_site.items():
            site = _SITE_BY_KEYWORD.get(key)
            if site is None:
                raise ValueError(
                    f"unknown fault site keyword {key!r}; known: "
                    f"{sorted(_SITE_BY_KEYWORD)}"
                )
            specs[site] = FaultSpec(site=site, probability=probability)
        return cls(specs=specs)

    @classmethod
    def uniform(cls, probability: float,
                sites: Iterable[str] = SITES) -> "FaultPlan":
        """The same fire probability at every listed site."""
        return cls(specs={s: FaultSpec(site=s, probability=probability)
                          for s in sites})

    def scaled(self, factor: float) -> "FaultPlan":
        """A copy with every probability multiplied by ``factor`` (capped at 1)."""
        return FaultPlan(specs={
            site: replace(spec, probability=min(1.0, spec.probability * factor))
            for site, spec in self.specs.items()
        })

    # -- queries ---------------------------------------------------------------

    def spec(self, site: str) -> Optional[FaultSpec]:
        return self.specs.get(site)

    def describe(self) -> str:
        if not self.specs:
            return "faults: none"
        parts = []
        for site in sorted(self.specs):
            spec = self.specs[site]
            text = f"{site}={spec.probability:g}"
            if spec.max_fires is not None:
                text += f"(max {spec.max_fires})"
            parts.append(text)
        return "faults: " + ", ".join(parts)
