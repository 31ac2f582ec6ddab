"""Tests for the calibrated cost model (the DESIGN.md §4 fits)."""

from dataclasses import replace

import pytest

from repro.sim.costmodel import (
    BUILTIN_PROFILES,
    DEFAULT_COST_MODEL,
    IMAGE_RESIZER_COSTS,
    MARKDOWN_COSTS,
    NOOP_COSTS,
    SYNTHETIC_BIG,
    SYNTHETIC_MEDIUM,
    SYNTHETIC_SMALL,
    synthetic_costs,
)
from repro.sim.rng import RandomStreams


class TestCostModelFits:
    """The calibration must recover the paper's Table 1 within ~3%."""

    @pytest.mark.parametrize("profile,paper_vanilla", [
        (SYNTHETIC_SMALL, 219.7),
        (SYNTHETIC_MEDIUM, 456.0),
        (SYNTHETIC_BIG, 1621.0),
    ])
    def test_vanilla_fit(self, profile, paper_vanilla):
        m = DEFAULT_COST_MODEL
        predicted = (
            m.clone_ms + m.exec_ms + m.jvm_rts_ms + m.appinit_base_ms
            + m.cold_load_cost(profile.classes, profile.class_kib)
        )
        assert predicted == pytest.approx(paper_vanilla, rel=0.03)

    @pytest.mark.parametrize("profile,paper_nowarmup", [
        (SYNTHETIC_SMALL, 172.5),
        (SYNTHETIC_MEDIUM, 360.9),
        (SYNTHETIC_BIG, 1340.4),
    ])
    def test_nowarmup_fit(self, profile, paper_nowarmup):
        m = DEFAULT_COST_MODEL
        predicted = (
            m.criu_spawn_ms
            + m.restore_cost(profile.snapshot_ready_mib)
            + m.restored_load_cost(profile.classes, profile.class_kib)
        )
        assert predicted == pytest.approx(paper_nowarmup, rel=0.035)

    @pytest.mark.parametrize("profile,paper_warmup", [
        (SYNTHETIC_SMALL, 54.4),
        (SYNTHETIC_BIG, 84.0),
    ])
    def test_warmup_fit(self, profile, paper_warmup):
        m = DEFAULT_COST_MODEL
        predicted = m.criu_spawn_ms + m.restore_cost(profile.snapshot_warm_mib)
        assert predicted == pytest.approx(paper_warmup, rel=0.04)

    def test_restored_per_byte_cheaper_than_cold(self):
        m = DEFAULT_COST_MODEL
        assert m.restored_load_per_kib_ms < m.cold_load_per_kib_ms

    def test_clone_exec_tiny_fraction(self):
        """Fig 4: CLONE+EXEC are a tiny fraction of any start-up."""
        m = DEFAULT_COST_MODEL
        assert (m.clone_ms + m.exec_ms) < 0.05 * m.jvm_rts_ms


class TestCostModelMechanics:
    def test_restore_override_wins(self):
        m = DEFAULT_COST_MODEL
        assert m.restore_cost(100.0, override_ms=12.0) == 12.0

    def test_restore_scales_with_size(self):
        m = DEFAULT_COST_MODEL
        assert m.restore_cost(50.0) > m.restore_cost(10.0)

    def test_dump_scales_with_size(self):
        m = DEFAULT_COST_MODEL
        assert m.dump_cost(100.0) > m.dump_cost(10.0)

    def test_jitter_zero_sigma_is_identity(self):
        m = replace(DEFAULT_COST_MODEL, noise_sigma=0.0)
        streams = RandomStreams(seed=0)
        assert m.jitter(42.0, streams, "x") == pytest.approx(42.0)


class TestRestorePrice:
    """``restore_price``: the one restore charge the engine and the
    fleet model both pay, as (base, pipeline plan, serial duration)."""

    @pytest.mark.parametrize("image_mib", [0.5, 10.0, 58.0, 300.0])
    def test_one_worker_no_cache_charges_the_restore_cost(self, image_mib):
        m = DEFAULT_COST_MODEL
        base, plan, serial = m.restore_price(image_mib)
        assert base == m.restore_base_ms
        assert not plan.pipelined
        assert plan.total_ms == plan.serial_ms
        assert serial == base + plan.total_ms
        assert serial == pytest.approx(m.restore_cost(image_mib))

    def test_an_override_below_the_base_is_the_whole_restore(self):
        m = DEFAULT_COST_MODEL
        fast = m.restore_base_ms / 4
        base, plan, serial = m.restore_price(100.0, override_ms=fast)
        assert base == fast
        assert plan.total_ms == 0.0
        assert serial == fast

    def test_an_override_above_the_base_keeps_the_base(self):
        m = DEFAULT_COST_MODEL
        slow = m.restore_base_ms + 30.0
        base, plan, serial = m.restore_price(1.0, override_ms=slow)
        assert base == m.restore_base_ms
        assert plan.total_ms == pytest.approx(30.0)
        assert serial == pytest.approx(slow)

    def test_in_memory_scales_only_the_page_stage(self):
        m = DEFAULT_COST_MODEL
        disk_base, disk_plan, _ = m.restore_price(58.0)
        base, plan, _ = m.restore_price(58.0, in_memory=True)
        assert base == disk_base
        assert plan.total_ms == pytest.approx(
            disk_plan.total_ms * m.restore_in_memory_factor)

    @pytest.mark.parametrize("page_fraction", [0.0, 0.3, 1.0])
    def test_page_fraction_scales_the_serial_page_stage(self, page_fraction):
        m = DEFAULT_COST_MODEL
        full = m.restore_cost(58.0)
        base, plan, serial = m.restore_price(58.0,
                                             page_fraction=page_fraction)
        assert plan.serial_ms == pytest.approx((full - base) * page_fraction)
        assert serial == base + (full - base) * page_fraction

    @pytest.mark.parametrize("cached_fraction", [0.0, 0.5, 1.0])
    def test_cache_hits_cut_the_plan_not_the_serial_duration(
            self, cached_fraction):
        m = DEFAULT_COST_MODEL
        _, cold_plan, cold_serial = m.restore_price(58.0)
        base, plan, serial = m.restore_price(58.0,
                                             cached_fraction=cached_fraction)
        assert serial == cold_serial
        assert plan.cached_fraction == cached_fraction
        assert plan.map_ms == cold_plan.map_ms
        hit_saving = 1.0 - m.restore_cache_hit_factor
        assert plan.total_ms == pytest.approx(
            cold_plan.total_ms - cold_plan.fetch_ms * cached_fraction
            * hit_saving)

    @pytest.mark.parametrize("workers", [2, 4, 16])
    def test_workers_never_charge_more_than_serial(self, workers):
        m = DEFAULT_COST_MODEL
        base, plan, serial = m.restore_price(58.0, workers=workers,
                                             chunk_count=64)
        assert plan.pipelined
        assert base + plan.total_ms < serial

    def test_the_plan_is_the_pipeline_of_the_page_stage(self):
        m = DEFAULT_COST_MODEL
        full = m.restore_cost(58.0)
        pages_ms = (full - m.restore_base_ms) * m.restore_in_memory_factor
        pages_ms *= 0.4
        _, plan, _ = m.restore_price(58.0, in_memory=True, page_fraction=0.4,
                                     workers=3, chunk_count=12,
                                     cached_fraction=0.25)
        # Bit-identical: the float operations run in the same order.
        assert plan == m.plan_restore_pipeline(pages_ms, 3, 12, 0.25)


class TestProfiles:
    def test_builtin_profiles_registered(self):
        for name in ("noop", "markdown", "image-resizer",
                     "synthetic-small", "synthetic-medium", "synthetic-big"):
            assert name in BUILTIN_PROFILES

    def test_paper_snapshot_sizes(self):
        assert NOOP_COSTS.snapshot_ready_mib == 13.0
        assert MARKDOWN_COSTS.snapshot_ready_mib == 14.0
        assert IMAGE_RESIZER_COSTS.snapshot_ready_mib == pytest.approx(99.2)

    def test_synthetic_sizes_match_paper(self):
        assert SYNTHETIC_SMALL.classes == 374
        assert SYNTHETIC_MEDIUM.classes == 574
        assert SYNTHETIC_BIG.classes == 1574
        assert SYNTHETIC_SMALL.class_kib == pytest.approx(2.8 * 1024)
        assert SYNTHETIC_BIG.class_kib == pytest.approx(41.0 * 1024)

    def test_warm_snapshot_includes_classes(self):
        grow = SYNTHETIC_BIG.snapshot_warm_mib - SYNTHETIC_BIG.snapshot_ready_mib
        assert grow == pytest.approx(41.0, rel=0.01)

    def test_synthetic_uses_first_response_metric(self):
        assert SYNTHETIC_SMALL.startup_metric == "first_response"
        assert NOOP_COSTS.startup_metric == "ready"

    def test_snapshot_mib_selector(self):
        p = SYNTHETIC_SMALL
        assert p.snapshot_mib(warm=False) == p.snapshot_ready_mib
        assert p.snapshot_mib(warm=True) == p.snapshot_warm_mib

    def test_restore_override_selector(self):
        assert NOOP_COSTS.restore_override_ms(warm=False) == 60.0
        assert SYNTHETIC_SMALL.restore_override_ms(warm=True) is None

    def test_synthetic_costs_factory_validation(self):
        profile = synthetic_costs("custom", classes=100, class_kib=500.0)
        assert profile.classes == 100
        assert profile.snapshot_warm_mib > profile.snapshot_ready_mib
