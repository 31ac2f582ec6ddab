"""repro.faults — deterministic fault injection for the prebake stack.

The robustness counterpart of :mod:`repro.obs`: a seeded
:class:`FaultInjector` installs on the kernel (``kernel.faults``) and
decides, at named sites the platform instruments, whether a failure
fires. The platform's resilience machinery — restore retry with capped
backoff, vanilla fallback, snapshot quarantine-and-rebake, router
re-queue, replica health checks — is exercised against it.

Sites (see :mod:`repro.faults.model`):

* ``restore.fail`` / ``restore.hang`` — the restore dies, or hangs
  until a watchdog kills it;
* ``image.corrupt`` — the stored checkpoint image bit-rots; detected
  by content-digest verification, answered by quarantine + rebake;
* ``io.slow`` — image page reads pay a slow-storage penalty;
* ``replica.crash`` — the replica dies with a request in flight;
* ``oom.kill`` — the cgroup OOM killer takes the replica down after a
  request.

Usage::

    from repro import faults, make_world

    world = make_world(seed=42)
    plan = faults.FaultPlan(specs={
        faults.RESTORE_FAIL: faults.FaultSpec(faults.RESTORE_FAIL, 1.0)})
    faults.install(world.kernel, plan)
    ...   # every restore now fails; prebake starts fall back to vanilla

Instrumented code calls the module helpers with the kernel in hand;
when no injector is installed they cost one attribute load and draw no
randomness, so fault-free worlds are bit-identical to pre-framework
builds.
"""

from __future__ import annotations

from repro.faults.errors import (
    CapacityExhausted,
    PlatformError,
    ReplicaCrashed,
    ReplicaUnavailable,
    RequestTimeout,
    RestoreFailed,
    SnapshotCorrupted,
)
from repro.faults.injector import FaultInjector, FaultRecord
from repro.faults.model import (
    DEFAULT_DELAY_MS,
    IMAGE_CORRUPT,
    IO_SLOW,
    OOM_KILL,
    REPLICA_CRASH,
    RESTORE_FAIL,
    RESTORE_HANG,
    SITES,
    STORE_NODE_DOWN,
    STORE_PARTITION,
    STORE_SLOW_SHARD,
    FaultPlan,
    FaultSpec,
)


def install(kernel, plan: FaultPlan) -> FaultInjector:
    """Install a fault injector on ``kernel`` (replacing any prior one)."""
    injector = FaultInjector(kernel, plan)
    kernel.faults = injector
    return injector


def uninstall(kernel) -> None:
    """Detach the injector; all sites revert to never-fire."""
    kernel.faults = None


# -- zero-cost site helpers ---------------------------------------------------
#
# Hot paths call these with their kernel; a world without an injector
# takes the early-out branch and never touches the RNG.

def should_fire(kernel, site: str, detail: str = "") -> bool:
    """Does ``site`` misbehave at this crossing? (False when uninstalled.)"""
    injector = kernel.faults
    if injector is None:
        return False
    return injector.should_fire(site, detail=detail)


def extra_delay_ms(kernel, site: str) -> float:
    """The armed latency penalty for ``site`` (0 when uninstalled)."""
    injector = kernel.faults
    if injector is None:
        return 0.0
    return injector.delay_ms(site)


def corrupt_image(kernel, image) -> bool:
    """Fire the ``image.corrupt`` site against ``image``.

    When it fires the *stored* image object is tampered in place — the
    model of registry bit rot — so every later fetch also sees the
    corruption until the snapshot is repaired from the chunk store (or
    quarantined and rebaked). The blast radius is one page-store chunk
    of consecutive pages, matching the granularity at which a
    content-addressed registry loses data. Returns whether corruption
    was injected.
    """
    if should_fire(kernel, IMAGE_CORRUPT, detail=image.image_id):
        from repro.criu.pagestore import CHUNK_PAGES
        image.tamper(pages=CHUNK_PAGES)
        return True
    return False


__all__ = [
    "FaultInjector",
    "FaultRecord",
    "FaultPlan",
    "FaultSpec",
    "DEFAULT_DELAY_MS",
    "SITES",
    "RESTORE_FAIL",
    "RESTORE_HANG",
    "IMAGE_CORRUPT",
    "IO_SLOW",
    "REPLICA_CRASH",
    "OOM_KILL",
    "STORE_NODE_DOWN",
    "STORE_PARTITION",
    "STORE_SLOW_SHARD",
    "install",
    "uninstall",
    "should_fire",
    "extra_delay_ms",
    "corrupt_image",
    "PlatformError",
    "RestoreFailed",
    "SnapshotCorrupted",
    "ReplicaCrashed",
    "ReplicaUnavailable",
    "CapacityExhausted",
    "RequestTimeout",
]
