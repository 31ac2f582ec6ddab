"""Tests for seeded random streams."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import RandomStreams, _derive_seed


class TestDerivation:
    def test_same_inputs_same_seed(self):
        assert _derive_seed(1, "a") == _derive_seed(1, "a")

    def test_different_names_different_seeds(self):
        assert _derive_seed(1, "a") != _derive_seed(1, "b")

    def test_different_masters_different_seeds(self):
        assert _derive_seed(1, "a") != _derive_seed(2, "a")


class TestStreams:
    def test_streams_reproducible_across_instances(self):
        a = RandomStreams(seed=99).get("x").random()
        b = RandomStreams(seed=99).get("x").random()
        assert a == b

    def test_named_streams_independent(self):
        streams = RandomStreams(seed=0)
        first = [streams.get("a").random() for _ in range(5)]
        # Draining another stream must not disturb "a".
        streams2 = RandomStreams(seed=0)
        for _ in range(100):
            streams2.get("b").random()
        second = [streams2.get("a").random() for _ in range(5)]
        assert first == second

    def test_get_returns_same_stream_object(self):
        streams = RandomStreams(seed=3)
        assert streams.get("s") is streams.get("s")


class TestDistributions:
    def test_lognormal_jitter_zero_median(self):
        assert RandomStreams(seed=1).lognormal_jitter("n", 0.0, 0.1) == 0.0

    def test_lognormal_jitter_positive(self):
        streams = RandomStreams(seed=1)
        for _ in range(100):
            assert streams.lognormal_jitter("n", 10.0, 0.05) > 0

    def test_lognormal_jitter_centered_on_median(self):
        streams = RandomStreams(seed=1)
        draws = sorted(
            streams.lognormal_jitter("n", 100.0, 0.02) for _ in range(2001)
        )
        sample_median = draws[len(draws) // 2]
        assert abs(sample_median - 100.0) < 1.0

    @given(median=st.floats(min_value=0.01, max_value=1e5),
           sigma=st.floats(min_value=0.0, max_value=0.5))
    @settings(max_examples=50)
    def test_lognormal_jitter_finite(self, median, sigma):
        value = RandomStreams(seed=2).lognormal_jitter("x", median, sigma)
        assert math.isfinite(value) and value > 0
