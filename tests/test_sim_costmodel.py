"""Tests for the calibrated cost model (the DESIGN.md §4 fits)."""

import pytest

from repro.sim.costmodel import (
    BUILTIN_PROFILES,
    CostModel,
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
        m = DEFAULT_COST_MODEL.with_noise_sigma(0.0)
        streams = RandomStreams(seed=0)
        assert m.jitter(42.0, streams, "x") == pytest.approx(42.0)

    def test_with_noise_sigma_does_not_mutate(self):
        m = CostModel()
        m2 = m.with_noise_sigma(0.5)
        assert m.noise_sigma != 0.5
        assert m2.noise_sigma == 0.5
        assert m2.clone_ms == m.clone_ms


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
