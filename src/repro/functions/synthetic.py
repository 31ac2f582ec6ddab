"""Synthetic class-loading functions (paper §4.2.2).

"We created a synthetic function which loads a predefined number of
classes when invoked": small = 374 classes (≈2.8 MB), medium = 574
(≈9.2 MB), big = 1574 (≈41 MB). Their first invocation triggers the
lazy load + JIT, so the start-up metric for these experiments is
time-to-first-response.
"""

from __future__ import annotations

from typing import Any, Tuple, TYPE_CHECKING

from repro.functions.base import FunctionApp, register_app
from repro.runtime.classes import generate_classes
from repro.sim.costmodel import (
    SYNTHETIC_BIG,
    SYNTHETIC_MEDIUM,
    SYNTHETIC_SMALL,
    FunctionCosts,
    synthetic_costs,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.base import ManagedRuntime, Request


class SyntheticFunction(FunctionApp):
    """Loads its class set on first invocation, then acks requests."""

    def __init__(self, profile: FunctionCosts) -> None:
        super().__init__(profile)
        if profile.classes <= 0:
            raise ValueError(f"profile {profile.name!r} declares no classes")
        self.classes = generate_classes(profile.classes, profile.class_kib, seed=7)

    def execute(self, runtime: "ManagedRuntime", request: "Request") -> Tuple[Any, int]:
        loaded = getattr(runtime, "loaded_classes", None)
        return {"classes_loaded": loaded if loaded is not None else len(self.classes)}, 200


def small_function() -> SyntheticFunction:
    return SyntheticFunction(SYNTHETIC_SMALL)


def medium_function() -> SyntheticFunction:
    return SyntheticFunction(SYNTHETIC_MEDIUM)


def big_function() -> SyntheticFunction:
    return SyntheticFunction(SYNTHETIC_BIG)


def custom_function(classes: int, total_kib: float, name: str = "") -> SyntheticFunction:
    """Build a synthetic function of arbitrary size (used by sweeps)."""
    profile = synthetic_costs(name or f"synthetic-{classes}c", classes, total_kib)
    return SyntheticFunction(profile)


register_app("synthetic-small", small_function)
register_app("synthetic-medium", medium_function)
register_app("synthetic-big", big_function)
