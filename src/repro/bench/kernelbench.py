"""Kernel throughput microbenchmark: events/sec, fast vs reference (X11).

Every other bench in this repo reports *simulated* milliseconds — the
cost model's answer, identical on any machine. This one measures the
opposite axis: how fast the simulation kernel itself chews through a
fixed, seeded fig3-style workload in *wall-clock* time, with the
vectorized pagemap backend and with the per-page reference backend
(``REPRO_SLOW_PAGEMAP=1``) in the same process.

The workload is deterministic: start-up episodes (deploy → prebake
restore → vanilla boot, exercising checkpoint/restore and the CRIU
chunk paths), a direct pagemap stress (touch_range / full dump / bulk
populate over multi-MiB VMAs), and an event storm on the
discrete-event engine (bulk scheduling, coroutine sleeps, signal
waits, cancellations). Simulated work — and therefore the event count
— is byte-identical under both backends, so

    speedup_vs_reference = fast events/sec ÷ reference events/sec
                         = reference wall ÷ fast wall

is a machine-independent ratio: both runs execute on the same
hardware, back to back. The continuous-perf gate
(:mod:`repro.bench.baseline`, bench ``kernel-throughput``) enforces
that ratio plus the deterministic event total; raw events/sec is
reported and archived as a profile artifact but never gated — it means
nothing across different machines.

The "events" numerator is the sum of three deterministic counters:
syscall probe emissions (``kernel.probes.events_emitted``), engine
dispatches (``Simulation.events_dispatched``), and pages processed by
the pagemap stress. It is a fixed measure of work, not a claim that
all events cost the same.
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import dataclass
from typing import Dict, List, Union

from repro.bench.report import format_table
from repro.core.policy import AfterReady
from repro.osproc.memory import (
    PAGE_SIZE,
    TAGS,
    VMAKind,
    pagemap_backend,
    set_slow_pagemap,
    slow_pagemap_enabled,
)
from repro.sim.engine import Simulation
from repro.sim.events import Signal
from repro.sim.rng import _derive_seed

DEFAULT_TARGET_EVENTS = 60_000

# The refactor's contract (ISSUE: "gated events/sec throughput
# baseline"): the vectorized kernel must beat the per-page reference
# by at least this factor on the fixed workload, on any machine.
SPEEDUP_HARD_FLOOR = 4.0


# ---------------------------------------------------------------------------
# Workload components — each returns its deterministic event count
# ---------------------------------------------------------------------------


def _startup_episode(seed: int, index: int) -> int:
    """One fig3-style episode: deploy + prebake restore + vanilla boot.

    Imports locally so ``repro.bench.baseline --help`` style paths do
    not drag the whole world in; returns the kernel's probe-event
    count, which depends only on (seed, index).
    """
    from repro import make_world
    from repro.core.manager import PrebakeManager
    from repro.functions.base import make_app

    world = make_world(seed=_derive_seed(seed, f"kernel-bench-{index}"))
    kernel = world.kernel
    manager = PrebakeManager(kernel)
    app = make_app("markdown")
    policy = AfterReady()
    manager.deploy(app, policy=policy)
    prebake = manager.starter(
        "prebake", policy=policy,
        version=manager.current_version(app.name))
    prebake.start(app).invoke()
    manager.starter("vanilla").start(make_app("markdown")).invoke()
    return kernel.probes.events_emitted


def _pagemap_stress(seed: int, index: int) -> int:
    """Direct VMA stress on whichever backend is active.

    Mirrors a checkpoint/restore cycle at the pagemap layer: 64 rounds
    of population in windows, each followed by a working-set floor read
    and a soft-dirty clear; then one full dump and a bulk restore-style
    populate into a fresh VMA. Page counts are exact functions of
    ``index`` — no RNG, no backend dependence.
    """
    del seed  # sized by index only; kept for signature symmetry
    backend = pagemap_backend()
    pages = 8_192
    window = 2_048
    rounds = 64
    vma = backend(start=PAGE_SIZE, length=pages * PAGE_SIZE,
                  kind=VMAKind.ANON, prot="rw-", file_path=None,
                  file_offset=0, label="bench-heap")
    processed = 0
    for rnd in range(rounds):
        for lo in range(0, pages, window):
            vma.touch_range(lo, window,
                            content_tag=f"heap:{index}:{rnd}:{lo}")
            processed += window
        processed += int(vma.touched_indices(floor=True).size)
        vma.clear_soft_dirty()
    full_indices, full_tags = vma.dump_pages()
    processed += len(full_indices)
    target = backend(start=PAGE_SIZE, length=pages * PAGE_SIZE,
                     kind=VMAKind.ANON, prot="rw-", file_path=None,
                     file_offset=0, label="bench-restore")
    target.populate_pages(full_indices, TAGS.intern_many(full_tags))
    processed += len(full_indices)
    if target.resident_bytes != vma.resident_bytes:
        raise RuntimeError("pagemap stress lost pages in populate")
    return processed


def _event_storm(seed: int, index: int) -> int:
    """Engine stress: bulk scheduling, coroutines, signals, cancels."""
    del seed, index  # fixed-shape storm: dispatch count is constant
    sim = Simulation()

    def noop() -> None:
        return None

    storm = 500
    sim.schedule_many(
        ((float(i % 97), noop) for i in range(storm)), label="storm")
    # Cancellations leave tombstones for the pop to skip.
    doomed = [sim.schedule_in(1_000.0 + i, noop, label="doomed")
              for i in range(64)]
    for event in doomed[::2]:
        event.cancel()
    gate = Signal("bench-gate")

    def worker():
        for _ in range(5):
            yield 1.0

    def waiter():
        yield gate

    def firer():
        yield 50.0
        gate.fire(None)

    for n in range(16):
        sim.spawn(worker(), name=f"worker-{n}")
    for n in range(4):
        sim.spawn(waiter(), name=f"waiter-{n}")
    sim.spawn(firer(), name="firer")
    sim.run()
    return sim.events_dispatched


def _run_workload(target_events: int, seed: int) -> int:
    """Repeat the three components until the event budget is met."""
    events = 0
    index = 0
    while events < target_events:
        events += _startup_episode(seed, index)
        events += _pagemap_stress(seed, index)
        events += _event_storm(seed, index)
        index += 1
    return events


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass
class BackendRun:
    """One backend's timed pass over the workload."""

    backend: str        # "fast" | "reference"
    events: int
    wall_s: float

    @property
    def events_per_sec(self) -> float:
        if self.wall_s <= 0.0:
            return 0.0
        return self.events / self.wall_s

    def to_dict(self) -> Dict[str, object]:
        return {
            "backend": self.backend,
            "events": self.events,
            "wall_s": self.wall_s,
            "events_per_sec": self.events_per_sec,
        }


@dataclass
class KernelBenchResult:
    """Both passes plus the machine-independent speedup ratio."""

    seed: int
    target_events: int
    fast: BackendRun
    reference: BackendRun

    @property
    def events_total(self) -> int:
        return self.fast.events

    @property
    def speedup_vs_reference(self) -> float:
        ref = self.reference.events_per_sec
        if ref <= 0.0:
            return 0.0
        return self.fast.events_per_sec / ref

    def to_dict(self) -> Dict[str, object]:
        return {
            "bench": "kernel-throughput",
            "seed": self.seed,
            "target_events": self.target_events,
            "events_total": self.events_total,
            "speedup_vs_reference": self.speedup_vs_reference,
            "runs": [self.fast.to_dict(), self.reference.to_dict()],
        }

    def render(self) -> str:
        rows: List[List[str]] = []
        for run in (self.fast, self.reference):
            rows.append([
                run.backend,
                str(run.events),
                f"{run.wall_s:.3f}",
                f"{run.events_per_sec:,.0f}",
            ])
        table = format_table(
            ["backend", "events", "wall s", "events/sec"], rows)
        return (
            f"Kernel throughput — seed {self.seed}, "
            f"{self.events_total} events per pass\n"
            f"{table}\n"
            f"speedup vs per-page reference: "
            f"{self.speedup_vs_reference:.1f}x "
            f"(hard floor {SPEEDUP_HARD_FLOOR:.0f}x)"
        )


def kernel_bench(target_events: int = DEFAULT_TARGET_EVENTS,
                 seed: int = 42) -> KernelBenchResult:
    """Time the fixed workload under both pagemap backends.

    Runs the vectorized backend first, then the per-page reference,
    restoring whatever backend was active on entry. Raises if the two
    passes disagree on the event count — that would mean the backends
    diverged in *simulated* behaviour, which is a correctness bug, not
    a performance result.
    """
    if target_events < 1:
        raise ValueError(
            f"target_events must be a positive integer, got {target_events}")
    previous = slow_pagemap_enabled()
    try:
        set_slow_pagemap(False)
        started = time.perf_counter()
        fast_events = _run_workload(target_events, seed)
        fast = BackendRun("fast", fast_events,
                          time.perf_counter() - started)
        set_slow_pagemap(True)
        started = time.perf_counter()
        slow_events = _run_workload(target_events, seed)
        reference = BackendRun("reference", slow_events,
                               time.perf_counter() - started)
    finally:
        set_slow_pagemap(previous)
    if fast_events != slow_events:
        raise RuntimeError(
            "pagemap backends diverged: fast pass counted "
            f"{fast_events} events, reference counted {slow_events}")
    return KernelBenchResult(seed=seed, target_events=target_events,
                             fast=fast, reference=reference)


def write_kernel_bench_json(path: Union[str, pathlib.Path],
                            result: KernelBenchResult) -> pathlib.Path:
    """Archive the raw runs (incl. machine-dependent events/sec)."""
    path = pathlib.Path(path)
    path.write_text(
        json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    return path
