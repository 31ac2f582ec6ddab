"""Prebaking: the paper's contribution (§3).

Prebaking "reduces function start-up time by restoring snapshots of
previously started function runtimes". The pieces:

* :mod:`repro.core.policy` — *when* along the start-up lifecycle to
  take the snapshot (the paper's key sensitivity: after-ready vs
  after-warmup changes speed-ups from ~127 % to ~404 % on small
  functions and ~121 % to ~1932 % on big ones);
* :mod:`repro.core.store` — the snapshot registry replicas restore from
  (one snapshot serves any number of replicas, §3.1);
* :mod:`repro.core.bake` — the build-time pipeline that starts the
  function, optionally warms it, and checkpoints it;
* :mod:`repro.core.starters` — the two replica start methods compared
  throughout the evaluation: ``VanillaStarter`` (fork-exec) and
  ``PrebakeStarter`` (CRIU restore).
"""

from repro.core.policy import (
    AfterReady,
    AfterRuntimeBoot,
    AfterWarmup,
    SnapshotPolicy,
)
from repro.core.store import SnapshotKey, SnapshotStore
from repro.core.bake import BakeError, Prebaker
from repro.core.starters import (
    PrebakeStarter,
    ReplicaHandle,
    StartError,
    Starter,
    VanillaStarter,
)
from repro.core.manager import PrebakeManager
from repro.core.bakery import BakeService, bake_farm_sweep

__all__ = [
    "BakeService",
    "bake_farm_sweep",
    "SnapshotPolicy",
    "AfterRuntimeBoot",
    "AfterReady",
    "AfterWarmup",
    "SnapshotKey",
    "SnapshotStore",
    "Prebaker",
    "BakeError",
    "Starter",
    "VanillaStarter",
    "PrebakeStarter",
    "ReplicaHandle",
    "StartError",
    "PrebakeManager",
]
