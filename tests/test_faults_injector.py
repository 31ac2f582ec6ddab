"""Tests for the fault model and the seeded injector."""

import pytest

from repro import faults, make_world
from repro.core.bake import Prebaker
from repro.core.policy import AfterReady
from repro.faults import (
    REPLICA_CRASH,
    RESTORE_FAIL,
    RESTORE_HANG,
    SITES,
    FaultPlan,
    FaultSpec,
    SnapshotCorrupted,
)
from repro.functions import make_app


class TestFaultSpec:
    def test_probability_bounds_enforced(self):
        with pytest.raises(ValueError):
            FaultSpec(RESTORE_FAIL, probability=1.5)
        with pytest.raises(ValueError):
            FaultSpec(RESTORE_FAIL, probability=-0.1)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(RESTORE_HANG, probability=0.5, delay_ms=-1.0)

    def test_negative_max_fires_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(RESTORE_FAIL, probability=0.5, max_fires=-1)

    def test_default_delay_by_site(self):
        assert FaultSpec(RESTORE_HANG, 1.0).effective_delay_ms == 1_000.0
        assert FaultSpec(RESTORE_FAIL, 1.0).effective_delay_ms == 0.0
        assert FaultSpec(RESTORE_HANG, 1.0, delay_ms=5.0).effective_delay_ms == 5.0


class TestFaultPlan:
    def test_of_maps_underscores_to_dots(self):
        plan = FaultPlan.of(restore_fail=0.5, replica_crash=0.1)
        assert plan.spec(RESTORE_FAIL).probability == 0.5
        assert plan.spec(REPLICA_CRASH).probability == 0.1
        assert plan.spec(RESTORE_HANG) is None

    def test_uniform_covers_all_sites(self):
        plan = FaultPlan.uniform(0.2)
        assert sorted(site for site, spec in plan.specs.items()
                      if spec.probability > 0.0) == sorted(SITES)

    def test_scaled_caps_at_one(self):
        plan = FaultPlan.of(restore_fail=0.6).scaled(10.0)
        assert plan.spec(RESTORE_FAIL).probability == 1.0

    def test_mismatched_spec_site_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(specs={RESTORE_FAIL: FaultSpec(RESTORE_HANG, 0.5)})

    def test_describe_lists_sites(self):
        plan = FaultPlan(specs={
            RESTORE_FAIL: FaultSpec(RESTORE_FAIL, 0.5, max_fires=2)})
        assert "restore.fail=0.5(max 2)" in plan.describe()
        assert FaultPlan().describe() == "faults: none"


class TestInjectorLifecycle:
    def test_uninstalled_world_never_fires_and_draws_nothing(self, kernel):
        assert kernel.faults is None
        assert faults.should_fire(kernel, RESTORE_FAIL) is False
        assert faults.extra_delay_ms(kernel, RESTORE_HANG) == 0.0
        # The zero-cost path must not even create the fault stream.
        assert f"fault.{RESTORE_FAIL}" not in kernel.streams._streams

    def test_install_and_uninstall(self, kernel):
        injector = faults.install(kernel, FaultPlan.of(restore_fail=1.0))
        assert faults.active(kernel) is injector
        assert faults.should_fire(kernel, RESTORE_FAIL) is True
        faults.uninstall(kernel)
        assert kernel.faults is None
        assert faults.should_fire(kernel, RESTORE_FAIL) is False

    def test_unarmed_site_consumes_no_randomness(self, kernel):
        injector = faults.install(kernel, FaultPlan.of(restore_fail=1.0))
        assert faults.should_fire(kernel, REPLICA_CRASH) is False
        assert injector.records == []
        assert f"fault.{REPLICA_CRASH}" not in kernel.streams._streams

    def test_zero_probability_site_consumes_no_randomness(self, kernel):
        injector = faults.install(kernel, FaultPlan.of(restore_fail=0.0))
        assert faults.should_fire(kernel, RESTORE_FAIL) is False
        assert injector.records == []

    def test_max_fires_caps_injection(self, kernel):
        plan = FaultPlan(specs={
            RESTORE_FAIL: FaultSpec(RESTORE_FAIL, 1.0, max_fires=2)})
        injector = faults.install(kernel, plan)
        fires = [faults.should_fire(kernel, RESTORE_FAIL) for _ in range(5)]
        assert fires == [True, True, False, False, False]
        assert injector.fired[RESTORE_FAIL] == 2
        # Capped crossings are not even recorded as decisions.
        assert len(injector.records) == 2

    def test_fired_decisions_are_counted_in_metrics(self):
        world = make_world(seed=9, observe=True)
        faults.install(world.kernel, FaultPlan.of(restore_fail=1.0))
        faults.should_fire(world.kernel, RESTORE_FAIL)
        assert world.kernel.obs.metrics.value(
            "fault_injected_total", labels={"site": RESTORE_FAIL}) == 1


class TestDeterminism:
    @staticmethod
    def _schedule(seed: int) -> str:
        world = make_world(seed=seed)
        injector = faults.install(world.kernel, FaultPlan.uniform(0.5))
        for i in range(50):
            site = SITES[i % len(SITES)]
            faults.should_fire(world.kernel, site, detail=f"x{i}")
            world.kernel.clock.advance(1.0)
        return injector.schedule_digest()

    def test_same_seed_same_schedule(self):
        assert self._schedule(42) == self._schedule(42)

    def test_different_seed_different_schedule(self):
        assert self._schedule(42) != self._schedule(43)

    def test_new_site_does_not_perturb_existing_streams(self):
        """Arming an extra site must not change existing sites' draws."""
        def draws(plan):
            world = make_world(seed=42)
            injector = faults.install(world.kernel, plan)
            for _ in range(20):
                faults.should_fire(world.kernel, RESTORE_FAIL)
                faults.should_fire(world.kernel, REPLICA_CRASH)
            return [r.draw for r in injector.records
                    if r.site == RESTORE_FAIL]

        baseline = draws(FaultPlan.of(restore_fail=0.5))
        widened = draws(FaultPlan.of(restore_fail=0.5, replica_crash=0.5))
        assert baseline == widened

    def test_schedule_lines_render(self, kernel):
        injector = faults.install(kernel, FaultPlan.of(restore_fail=1.0))
        faults.should_fire(kernel, RESTORE_FAIL, detail="img-1")
        (line,) = injector.schedule_lines()
        assert "restore.fail" in line and "FIRE" in line and "img-1" in line


class TestCorruptImage:
    def test_corrupt_image_breaks_integrity(self, kernel):
        prebaker = Prebaker(kernel)
        report = prebaker.bake(make_app("noop"), policy=AfterReady())
        image = report.image
        image.verify_integrity()
        faults.install(kernel, FaultPlan.of(image_corrupt=1.0))
        assert faults.corrupt_image(kernel, image) is True
        with pytest.raises(SnapshotCorrupted):
            image.verify_integrity()

    def test_corrupt_image_noop_when_uninstalled(self, kernel):
        prebaker = Prebaker(kernel)
        report = prebaker.bake(make_app("noop"), policy=AfterReady())
        assert faults.corrupt_image(kernel, report.image) is False
        report.image.verify_integrity()
