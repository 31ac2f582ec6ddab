"""Tests for the statistics module, cross-checked against scipy."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.stats import (
    bootstrap_median_ci,
    ecdf,
    ecdf_at,
    ks_distance,
    mann_whitney_u,
    median,
    median_difference_ci,
    quantile,
    shapiro_wilk,
)

scipy_stats = pytest.importorskip("scipy.stats")


class TestMedianQuantile:
    def test_median_odd(self):
        assert median([3, 1, 2]) == 2

    def test_median_even(self):
        assert median([4, 1, 3, 2]) == 2.5

    def test_median_empty_rejected(self):
        with pytest.raises(ValueError):
            median([])

    def test_quantile_endpoints(self):
        data = [1.0, 2.0, 3.0, 4.0]
        assert quantile(data, 0.0) == 1.0
        assert quantile(data, 1.0) == 4.0

    def test_quantile_interpolates(self):
        assert quantile([0.0, 10.0], 0.25) == 2.5

    def test_quantile_bounds_checked(self):
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)

    @given(data=st.lists(st.floats(min_value=-1e6, max_value=1e6),
                         min_size=1, max_size=100),
           q=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100)
    def test_quantile_within_range(self, data, q):
        value = quantile(data, q)
        assert min(data) <= value <= max(data)


class TestBootstrap:
    def test_ci_brackets_true_median(self):
        rng = random.Random(0)
        data = [rng.gauss(50.0, 2.0) for _ in range(200)]
        ci = bootstrap_median_ci(data, seed=1)
        assert ci.low <= ci.point <= ci.high
        assert ci.contains(50.0)

    def test_ci_deterministic_per_seed(self):
        data = [float(i) for i in range(50)]
        a = bootstrap_median_ci(data, seed=3)
        b = bootstrap_median_ci(data, seed=3)
        assert (a.low, a.high) == (b.low, b.high)

    def test_narrower_with_more_data(self):
        rng = random.Random(1)
        small = [rng.gauss(0, 1) for _ in range(20)]
        big = [rng.gauss(0, 1) for _ in range(2000)]
        assert bootstrap_median_ci(big).width < bootstrap_median_ci(small).width

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            bootstrap_median_ci([1.0])

    def test_interval_overlap_helper(self):
        a = bootstrap_median_ci([1.0, 2.0, 3.0] * 10, seed=0)
        b = bootstrap_median_ci([100.0, 101.0, 102.0] * 10, seed=0)
        assert not a.overlaps(b)
        assert a.overlaps(a)

    def test_median_difference_ci(self):
        rng = random.Random(2)
        a = [rng.gauss(100, 1) for _ in range(100)]
        b = [rng.gauss(60, 1) for _ in range(100)]
        ci = median_difference_ci(a, b, seed=0)
        assert 38 < ci.low < ci.high < 42
        assert ci.point == pytest.approx(40, abs=1)


class TestShapiroWilk:
    def test_matches_scipy_on_normal(self):
        rng = random.Random(5)
        data = [rng.gauss(10, 3) for _ in range(150)]
        ours = shapiro_wilk(data)
        ref = scipy_stats.shapiro(data)
        assert ours.statistic == pytest.approx(ref.statistic, abs=1e-3)
        assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-2)

    def test_matches_scipy_on_skewed(self):
        rng = random.Random(6)
        data = [rng.expovariate(1.0) for _ in range(150)]
        ours = shapiro_wilk(data)
        ref = scipy_stats.shapiro(data)
        assert ours.statistic == pytest.approx(ref.statistic, abs=1e-3)
        assert (ours.p_value < 0.05) == (ref.pvalue < 0.05)

    @pytest.mark.parametrize("n", [4, 7, 11, 12, 30, 100])
    def test_matches_scipy_small_samples(self, n):
        rng = random.Random(n)
        data = [rng.gauss(0, 1) for _ in range(n)]
        ours = shapiro_wilk(data)
        ref = scipy_stats.shapiro(data)
        assert ours.statistic == pytest.approx(ref.statistic, abs=2e-3)
        assert ours.p_value == pytest.approx(ref.pvalue, abs=0.03)

    def test_rejects_uniform_tail(self):
        data = [float(i) ** 3 for i in range(100)]
        assert shapiro_wilk(data).p_value < 0.05

    def test_too_small_sample(self):
        with pytest.raises(ValueError):
            shapiro_wilk([1.0, 2.0])

    def test_constant_sample_rejected(self):
        with pytest.raises(ValueError):
            shapiro_wilk([5.0] * 10)


class TestMannWhitney:
    def test_matches_scipy(self):
        rng = random.Random(7)
        a = [rng.gauss(10, 2) for _ in range(80)]
        b = [rng.gauss(10.8, 2) for _ in range(90)]
        ours = mann_whitney_u(a, b)
        ref = scipy_stats.mannwhitneyu(a, b, alternative="two-sided")
        assert ours.statistic == pytest.approx(ref.statistic)
        assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-3)

    def test_matches_scipy_with_ties(self):
        rng = random.Random(8)
        a = [float(rng.randint(0, 5)) for _ in range(60)]
        b = [float(rng.randint(1, 6)) for _ in range(60)]
        ours = mann_whitney_u(a, b)
        ref = scipy_stats.mannwhitneyu(a, b, alternative="two-sided",
                                       method="asymptotic")
        assert ours.statistic == pytest.approx(ref.statistic)
        assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-2)

    def test_identical_samples_not_significant(self):
        data = [1.0, 2.0, 3.0, 4.0] * 10
        assert mann_whitney_u(data, data).p_value > 0.9

    def test_disjoint_samples_significant(self):
        a = [float(i) for i in range(50)]
        b = [float(i) + 1000 for i in range(50)]
        assert mann_whitney_u(a, b).p_value < 1e-10

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1.0])

    def test_all_constant(self):
        assert mann_whitney_u([1.0] * 5, [1.0] * 5).p_value == 1.0


class TestEcdfKs:
    def test_ecdf_shape(self):
        xs, ps = ecdf([3.0, 1.0, 2.0])
        assert xs == [1.0, 2.0, 3.0]
        assert ps == [pytest.approx(1 / 3), pytest.approx(2 / 3), 1.0]

    def test_ecdf_at(self):
        data = [1.0, 2.0, 3.0, 4.0]
        assert ecdf_at(data, 0.5) == 0.0
        assert ecdf_at(data, 2.0) == 0.5
        assert ecdf_at(data, 99.0) == 1.0

    def test_ks_identical_is_zero(self):
        data = [1.0, 5.0, 9.0]
        assert ks_distance(data, data) == 0.0

    def test_ks_disjoint_is_one(self):
        assert ks_distance([1.0, 2.0], [10.0, 11.0]) == 1.0

    def test_ks_matches_scipy(self):
        rng = random.Random(9)
        a = [rng.gauss(0, 1) for _ in range(100)]
        b = [rng.gauss(0.5, 1) for _ in range(120)]
        ref = scipy_stats.ks_2samp(a, b)
        assert ks_distance(a, b) == pytest.approx(ref.statistic, abs=1e-12)

    @given(a=st.lists(st.floats(min_value=-100, max_value=100),
                      min_size=1, max_size=50),
           b=st.lists(st.floats(min_value=-100, max_value=100),
                      min_size=1, max_size=50))
    @settings(max_examples=50)
    def test_ks_properties(self, a, b):
        d = ks_distance(a, b)
        assert 0.0 <= d <= 1.0
        assert d == pytest.approx(ks_distance(b, a))
