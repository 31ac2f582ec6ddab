"""A reaped process releases what it held, by reference count, at once.

Every check runs with the cyclic garbage collector switched off, so a
runtime, class loader or mapping that only a reference cycle (or a
stale process-table slot) keeps alive shows up as a live weak
reference. Under ``REPRO_SLOW_PAGEMAP=1`` the same checks cover the
dict-of-``Page`` mappings.
"""

from __future__ import annotations

import gc
import random
import weakref

import pytest

from repro import make_world
from repro.core.manager import PrebakeManager
from repro.core.policy import AfterWarmup
from repro.faas.autoscaler import AutoscalerConfig
from repro.faas.platform import FaaSPlatform, PlatformConfig
from repro.functions.base import make_app
from repro.osproc.memory import VMA, SlowVMA
from repro.runtime.base import Request

APPS = ["noop", "py-markdown", "node-markdown"]  # jvm, python, nodejs


@pytest.fixture
def no_cyclic_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _start(kernel, name, technique):
    """Start one replica and return (pid, weak refs to what it holds).

    The start handle is dropped here: only the kernel keeps the
    process, and only the process keeps its runtime.
    """
    handle = PrebakeManager(kernel).start_replica(
        make_app(name), technique, policy=AfterWarmup(1))
    handle.invoke(Request())
    runtime = handle.runtime
    assert runtime.kind == make_app(name).runtime_kind
    held = [runtime, *runtime.process.address_space.vmas]
    if runtime.kind == "jvm":
        held.append(runtime.classloader)
    return handle.process.pid, [weakref.ref(obj) for obj in held]


def _alive(refs):
    return [ref() for ref in refs if ref() is not None]


@pytest.mark.parametrize("technique", ["vanilla", "prebake"])
@pytest.mark.parametrize("name", APPS)
def test_killed_process_frees_runtime_loader_and_mappings(
        no_cyclic_gc, name, technique):
    kernel = make_world(seed=3).kernel
    pid, refs = _start(kernel, name, technique)
    assert len(_alive(refs)) == len(refs)
    kernel.kill(pid)
    assert _alive(refs) == []
    assert pid not in kernel.processes
    kernel.kill(pid)  # a reaped pid stays a no-op


def _churn(kernel, requests=300, seed=1):
    platform = FaaSPlatform(kernel, PlatformConfig(
        nodes=2, autoscaler=AutoscalerConfig(idle_timeout_ms=5_000.0)))
    names = [
        platform.register_function(
            lambda name=name: make_app(name), start_technique="prebake",
            snapshot_policy=AfterWarmup(requests=1),
            idle_timeout_ms=5_000.0).name
        for name in ("noop", "markdown", "py-markdown", "node-markdown")
    ]
    rng = random.Random(seed)
    for _ in range(requests):
        # Mostly warm hits, with gaps past the keep-alive so replicas
        # are reaped and cold-started again throughout the trace.
        kernel.clock.advance(rng.choice([50.0, 400.0, 7_000.0]))
        platform.gc_tick()
        assert platform.invoke(rng.choice(names), Request(body="# hi")).ok
    return platform


def _vma_objects():
    return [obj for obj in gc.get_objects() if type(obj) in (VMA, SlowVMA)]


def test_platform_churn_leaves_only_live_mappings(no_cyclic_gc):
    before = _vma_objects()  # kept alive so their ids stay unique
    seen = {id(vma) for vma in before}
    kernel = make_world(seed=3).kernel
    platform = _churn(kernel)
    alive = [proc for proc in kernel.processes.values() if proc.alive]
    reaped = platform.router.stats.cold_starts - len(alive) + 1
    assert reaped >= 50
    live = [vma for proc in alive for vma in proc.address_space.vmas]
    world = [vma for vma in _vma_objects() if id(vma) not in seen]
    assert len(world) == len(live)
    assert {id(vma) for vma in world} == {id(vma) for vma in live}
    assert all(proc.alive for proc in kernel.processes.values()
               if proc.pid != kernel.INIT_PID)
