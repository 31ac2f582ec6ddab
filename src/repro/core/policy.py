"""Snapshot-timing policies (paper §3.1 and §4.2.2).

"The prebaking technique allows the creation of snapshots at any point
of the function setup." The paper evaluates two points and finds the
choice decisive:

* :class:`AfterReady` — right after the function can take requests
  (PB-NOWarmup in Table 1);
* :class:`AfterWarmup` — after the function served n ≥ 1 requests,
  "which forces the Java runtime to compile and optimize the code"
  (PB-Warmup).

:class:`AfterRuntimeBoot` snapshots even earlier (runtime booted,
application not yet loaded) and exists for the snapshot-point ablation
the design discussion motivates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional


@dataclass(frozen=True)
class SnapshotPolicy:
    """Base policy; concrete subclasses pick the snapshot point."""

    @property
    def warm(self) -> bool:
        """Whether the snapshot contains a warmed (JIT-compiled) runtime."""
        return False

    @property
    def key(self) -> str:
        """Stable identifier used in snapshot-store keys."""
        raise NotImplementedError


@dataclass(frozen=True)
class AfterRuntimeBoot(SnapshotPolicy):
    """Snapshot after RTS, before APPINIT (ablation point)."""

    @property
    def key(self) -> str:
        return "after-runtime-boot"


@dataclass(frozen=True)
class AfterReady(SnapshotPolicy):
    """Snapshot once the function is ready to serve (PB-NOWarmup)."""

    @property
    def key(self) -> str:
        return "after-ready"


@dataclass(frozen=True)
class AfterWarmup(SnapshotPolicy):
    """Snapshot after ``requests`` warm-up invocations (PB-Warmup).

    "The warmup procedure consisted of sending one request to the
    serverless function, which triggers the code compilation."
    """

    requests: int = 1
    warmup_body: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError(f"warmup needs >= 1 request, got {self.requests}")

    @property
    def warm(self) -> bool:
        return True

    @property
    def key(self) -> str:
        return f"after-warmup-{self.requests}"
