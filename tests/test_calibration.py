"""Calibration tests: the measured medians must land near the paper's
published values (the repro's headline claim).

Tolerances are deliberately loose (a few percent) — the goal is the
paper's *shape*: who wins, by what factor, and where growth comes from.
"""

import pytest

from repro.bench.harness import run_startup_experiment
from repro.bench.stats import mann_whitney_u
from repro.core.policy import AfterReady, AfterWarmup

# Every test here runs figure-scale simulations (seconds each); CI's
# smoke job deselects them and a dedicated job runs the full suite.
pytestmark = pytest.mark.slow

REPS = 40  # enough for stable medians, fast enough for CI


def startup(function, technique, policy=AfterReady(), seed=11, **kwargs):
    return run_startup_experiment(function, technique, policy=policy,
                                  repetitions=REPS, seed=seed, **kwargs)


class TestFigure3Calibration:
    """Real functions: vanilla vs prebake medians (paper §4.2)."""

    @pytest.mark.parametrize("function,vanilla_ms,prebake_ms", [
        ("noop", 103.0, 62.0),
        ("markdown", 100.0, 53.0),
        ("image-resizer", 310.0, 87.0),
    ])
    def test_medians_match_paper(self, function, vanilla_ms, prebake_ms):
        vanilla = startup(function, "vanilla")
        prebake = startup(function, "prebake")
        assert vanilla.median_ms == pytest.approx(vanilla_ms, rel=0.04)
        assert prebake.median_ms == pytest.approx(prebake_ms, rel=0.04)

    @pytest.mark.parametrize("function,improvement", [
        ("noop", 0.40), ("markdown", 0.47), ("image-resizer", 0.71),
    ])
    def test_improvements_match_paper(self, function, improvement):
        vanilla = startup(function, "vanilla")
        prebake = startup(function, "prebake")
        measured = 1 - prebake.median_ms / vanilla.median_ms
        assert measured == pytest.approx(improvement, abs=0.04)

    def test_medians_statistically_different(self):
        """Paper: 'in both cases the medians are not equal' (95%)."""
        vanilla = startup("noop", "vanilla")
        prebake = startup("noop", "prebake")
        assert mann_whitney_u(vanilla.values, prebake.values).p_value < 0.05

    def test_noop_median_difference_interval(self):
        """Paper: NOOP median difference [40.35, 42.29] ms."""
        vanilla = startup("noop", "vanilla")
        prebake = startup("noop", "prebake")
        assert 38.0 < vanilla.median_ms - prebake.median_ms < 44.0


class TestTable1Calibration:
    """Synthetic factorial: Table 1 cells within a few percent."""

    PAPER = {
        ("synthetic-small", "vanilla"): 219.8,
        ("synthetic-medium", "vanilla"): 456.0,
        ("synthetic-big", "vanilla"): 1621.0,
        ("synthetic-small", "nowarmup"): 172.5,
        ("synthetic-medium", "nowarmup"): 360.9,
        ("synthetic-big", "nowarmup"): 1340.4,
        ("synthetic-small", "warmup"): 54.4,
        ("synthetic-medium", "warmup"): 63.7,
        ("synthetic-big", "warmup"): 84.0,
    }

    @pytest.mark.parametrize("function", [
        "synthetic-small", "synthetic-medium", "synthetic-big"])
    def test_vanilla_cells(self, function):
        summary = startup(function, "vanilla")
        assert summary.median_ms == pytest.approx(
            self.PAPER[(function, "vanilla")], rel=0.05)

    @pytest.mark.parametrize("function", [
        "synthetic-small", "synthetic-medium", "synthetic-big"])
    def test_nowarmup_cells(self, function):
        summary = startup(function, "prebake", policy=AfterReady())
        assert summary.median_ms == pytest.approx(
            self.PAPER[(function, "nowarmup")], rel=0.06)

    @pytest.mark.parametrize("function", [
        "synthetic-small", "synthetic-medium", "synthetic-big"])
    def test_warmup_cells(self, function):
        summary = startup(function, "prebake", policy=AfterWarmup(1))
        assert summary.median_ms == pytest.approx(
            self.PAPER[(function, "warmup")], rel=0.10)


class TestFigure6Calibration:
    """Speed-up ratios: 127%→404% (small), 121%→1932% (big)."""

    def test_small_ratios(self):
        vanilla = startup("synthetic-small", "vanilla").median_ms
        nowarm = startup("synthetic-small", "prebake", policy=AfterReady()).median_ms
        warm = startup("synthetic-small", "prebake", policy=AfterWarmup(1)).median_ms
        assert 100 * vanilla / nowarm == pytest.approx(127.45, abs=8.0)
        assert 100 * vanilla / warm == pytest.approx(403.96, abs=35.0)

    def test_big_ratios(self):
        vanilla = startup("synthetic-big", "vanilla").median_ms
        nowarm = startup("synthetic-big", "prebake", policy=AfterReady()).median_ms
        warm = startup("synthetic-big", "prebake", policy=AfterWarmup(1)).median_ms
        assert 100 * vanilla / nowarm == pytest.approx(121.07, abs=10.0)
        assert 100 * vanilla / warm == pytest.approx(1932.49, rel=0.08)

    def test_warm_speedup_grows_with_function_size(self):
        """Fig 6's headline: the gain grows as the function grows."""
        ratios = []
        for name in ("synthetic-small", "synthetic-medium", "synthetic-big"):
            vanilla = startup(name, "vanilla").median_ms
            warm = startup(name, "prebake", policy=AfterWarmup(1)).median_ms
            ratios.append(vanilla / warm)
        assert ratios[0] < ratios[1] < ratios[2]

    def test_warm_startup_nearly_flat_across_sizes(self):
        """Table 1: warm restore grows only ~30ms from small to big
        while vanilla grows ~1400ms."""
        small = startup("synthetic-small", "prebake", policy=AfterWarmup(1)).median_ms
        big = startup("synthetic-big", "prebake", policy=AfterWarmup(1)).median_ms
        assert big - small < 45.0
