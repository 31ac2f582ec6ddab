"""Shared fixtures for the test suite."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import make_world
from repro.core.manager import PrebakeManager
from repro.osproc.kernel import Kernel
from repro.sim.costmodel import DEFAULT_COST_MODEL


@pytest.fixture
def world():
    """A fresh simulated world with a fixed seed."""
    return make_world(seed=1234)


@pytest.fixture
def kernel(world) -> Kernel:
    return world.kernel


@pytest.fixture
def quiet_world():
    """A world with zero timing noise (deterministic durations)."""
    world = make_world(seed=1234)
    world.kernel.costs = replace(DEFAULT_COST_MODEL, noise_sigma=0.0)
    return world


@pytest.fixture
def quiet_kernel(quiet_world) -> Kernel:
    return quiet_world.kernel


@pytest.fixture
def manager(kernel) -> PrebakeManager:
    return PrebakeManager(kernel)


@pytest.fixture
def quiet_manager(quiet_kernel) -> PrebakeManager:
    return PrebakeManager(quiet_kernel)
