"""repro — reproduction of "Prebaking Functions to Warm the Serverless
Cold Start" (Silva, Fireman & Pereira, Middleware '20).

The package builds the paper's whole stack from scratch:

* :mod:`repro.sim` — deterministic discrete-event substrate with a
  cost model calibrated to the paper's reported numbers;
* :mod:`repro.osproc` — the simulated Linux (processes, VMAs, pagemap,
  freezer, ptrace) CRIU manipulates;
* :mod:`repro.runtime` — JVM / CPython / Node.js runtime models;
* :mod:`repro.criu` — the checkpoint/restore engine (and a driver for
  a real ``criu`` binary when present);
* :mod:`repro.core` — **prebaking**: snapshot policies, store, bake
  pipeline, and the vanilla/prebake replica starters;
* :mod:`repro.functions` — the NOOP / Markdown / Image Resizer /
  synthetic workloads (with real markdown and imaging engines);
* :mod:`repro.faas` — a SPEC-RG-style FaaS platform plus the OpenFaaS
  integration of the paper's §5;
* :mod:`repro.bench` — the experiment harness, statistics and
  paper-figure reproductions;
* :mod:`repro.realproc` — real-process measurements on the host.

Quickstart::

    from repro import PrebakeManager, make_world
    from repro.core.policy import AfterWarmup
    from repro.functions import make_app

    world = make_world(seed=42)
    manager = PrebakeManager(world.kernel)
    app = make_app("markdown")
    manager.deploy(app, policy=AfterWarmup(requests=1))
    replica = manager.start_replica(app, technique="prebake",
                                    policy=AfterWarmup(requests=1))
    print(replica.startup_ms("ready"), "ms to ready")
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.manager import PrebakeManager
from repro.osproc.kernel import Kernel
from repro.sim.clock import SimClock
from repro.sim.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.sim.rng import RandomStreams

__version__ = "1.0.0"


@dataclass
class World:
    """One simulated experiment world: a kernel plus its clock and RNG."""

    kernel: Kernel

    @property
    def clock(self) -> SimClock:
        return self.kernel.clock

    @property
    def now(self) -> float:
        return self.kernel.clock.now


def make_world(seed: int = 0, observe: bool = False) -> World:
    """Create a fresh simulated world (kernel + clock + seeded RNG) on
    the calibrated cost model.

    ``observe=True`` installs a :class:`repro.obs.Observability` hub so
    the world records lifecycle spans and metrics from the start.
    """
    kernel = Kernel(RandomStreams(seed=seed))
    if observe:
        from repro import obs
        obs.install(kernel)
    return World(kernel=kernel)


__all__ = [
    "PrebakeManager",
    "World",
    "make_world",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "Kernel",
    "__version__",
]
