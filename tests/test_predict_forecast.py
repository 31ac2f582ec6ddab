"""Property tests for repro.predict: forecasters and prewarm policies."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predict.forecast import (
    AttentionForecaster,
    EwmaForecaster,
    InterArrivalHistogram,
)
from repro.predict.policy import (
    FixedKeepAlivePolicy,
    HistogramEwmaPolicy,
    LearnedPolicy,
    OraclePolicy,
    PrewarmConfig,
    PrewarmController,
    ReactivePolicy,
)


def _poisson_gaps(rate_per_ms: float, n: int, seed: int) -> np.ndarray:
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.exponential(1.0 / rate_per_ms, size=n)


class TestInterArrivalHistogram:
    @given(rate=st.floats(min_value=0.001, max_value=1.0),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_rate_converges_on_stationary_poisson_stream(self, rate, seed):
        hist = InterArrivalHistogram()
        for gap in _poisson_gaps(rate, 4000, seed):
            hist.note_gap(float(gap))
        estimate = hist.rate_per_ms()
        assert estimate is not None
        # Mean of 4000 exponential gaps: relative standard error
        # 1/sqrt(4000) ~ 1.6%; 10% is > 6 sigma.
        assert abs(estimate - rate) / rate < 0.10

    @given(rate=st.floats(min_value=0.001, max_value=1.0),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_quantile_edge_covers_the_requested_mass(self, rate, seed):
        gaps = _poisson_gaps(rate, 2000, seed)
        hist = InterArrivalHistogram()
        for gap in gaps:
            hist.note_gap(float(gap))
        edge = hist.quantile(0.9)
        assert edge is not None
        # The log2 bucket's upper edge must cover >= 90% of the sample.
        assert np.mean(gaps <= edge) >= 0.9

    def test_empty_histogram_has_no_answers(self):
        hist = InterArrivalHistogram()
        assert hist.quantile(0.9) is None
        assert hist.exact_quantile(0.5) is None
        assert hist.rate_per_ms() is None
        assert hist.keepalive_ms(0.9, 500.0, 30_000.0) == 500.0

    def test_negative_and_nonfinite_gaps_are_ignored(self):
        hist = InterArrivalHistogram()
        hist.note_gap(-1.0)
        hist.note_gap(float("nan"))
        hist.note_gap(float("inf"))
        assert hist.total == 0

    def test_quantile_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            InterArrivalHistogram().quantile(0.0)
        with pytest.raises(ValueError):
            InterArrivalHistogram().quantile(1.5)


class TestEwmaForecaster:
    @given(rate=st.floats(min_value=0.5, max_value=50.0),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_converges_to_true_rate_on_stationary_poisson_counts(
            self, rate, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        ewma = EwmaForecaster(alpha=0.25)
        for count in rng.poisson(rate, size=800):
            ewma.observe(float(count))
        # Steady-state EWMA standard error: sqrt(alpha/(2-alpha)) of
        # the per-window sigma = sqrt(rate); 6 of those is a safe band.
        sigma = math.sqrt(0.25 / 1.75) * math.sqrt(rate)
        assert abs(ewma.forecast() - rate) < 6.0 * sigma + 1e-9

    def test_first_observation_seeds_the_average(self):
        ewma = EwmaForecaster()
        ewma.observe(10.0)
        assert ewma.forecast() == 10.0

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            EwmaForecaster(alpha=0.0)
        with pytest.raises(ValueError):
            EwmaForecaster(alpha=1.5)


class TestAttentionForecaster:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           counts_seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bit_deterministic_for_fixed_seed(self, seed, counts_seed):
        rng = np.random.Generator(np.random.PCG64(counts_seed))
        counts = rng.poisson(4.0, size=120).astype(float)
        runs = []
        for _ in range(2):
            model = AttentionForecaster(horizon=32, seed=seed)
            for count in counts:
                model.observe(count)
            runs.append((model.forecast(), model.state_digest()))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    def test_different_seeds_give_different_projections(self):
        a = AttentionForecaster(seed=1)
        b = AttentionForecaster(seed=2)
        for count in (3.0, 5.0, 2.0, 7.0, 4.0):
            a.observe(count)
            b.observe(count)
        assert a.state_digest() != b.state_digest()

    @given(rate=st.floats(min_value=1.0, max_value=30.0),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_tracks_a_stationary_poisson_stream(self, rate, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        model = AttentionForecaster(horizon=32, seed=0)
        for count in rng.poisson(rate, size=600):
            model.observe(float(count))
        # The readout starts as the EWMA predictor and LMS only moves
        # it to reduce error, so on a stationary stream the forecast
        # stays in a Poisson-scaled band around the true rate.
        assert abs(model.forecast() - rate) < 6.0 * math.sqrt(rate) + 1.0

    def test_forecast_never_negative(self):
        model = AttentionForecaster(seed=0)
        for count in (50.0, 0.0, 0.0, 0.0, 0.0, 0.0):
            model.observe(count)
        assert model.forecast() >= 0.0

    def test_rejects_degenerate_shapes(self):
        with pytest.raises(ValueError):
            AttentionForecaster(horizon=1)
        with pytest.raises(ValueError):
            AttentionForecaster(d_model=0)


class TestPolicies:
    def test_reactive_never_holds_anything(self):
        policy = ReactivePolicy()
        policy.note_gap("f", 100.0)
        assert policy.keepalive_ms("f") == 0.0
        assert policy.target_warm("f") == 0
        assert policy.prewarm_schedule("f") is None

    def test_fixed_keepalive_is_constant(self):
        policy = FixedKeepAlivePolicy(keepalive_ms=45_000.0)
        assert policy.keepalive_ms("anything") == 45_000.0
        assert policy.target_warm("anything") == 0

    def test_histogram_policy_defaults_to_status_quo_without_data(self):
        policy = HistogramEwmaPolicy(default_keepalive_ms=60_000.0,
                                     keepalive_cap_ms=120_000.0)
        assert policy.keepalive_ms("new-fn") == 60_000.0

    def test_timer_function_scales_to_zero_and_gets_a_schedule(self):
        policy = HistogramEwmaPolicy(keepalive_cap_ms=30_000.0)
        for _ in range(12):
            policy.note_gap("timer", 180_000.0)
        assert policy.keepalive_ms("timer") == policy.keepalive_floor_ms
        schedule = policy.prewarm_schedule("timer")
        assert schedule is not None
        eta, hold = schedule
        assert 0 < eta < 180_000.0
        assert hold > 0

    def test_bursty_mixture_falls_back_to_the_default_keepalive(self):
        policy = HistogramEwmaPolicy(default_keepalive_ms=60_000.0,
                                     keepalive_cap_ms=120_000.0)
        # 97% intra-burst ~40ms gaps, 3% off gaps ~3 minutes: a broad
        # ON/OFF mixture the tail quantile can't serve.
        for _ in range(97):
            policy.note_gap("bursty", 40.0)
        for _ in range(3):
            policy.note_gap("bursty", 180_000.0)
        assert policy.keepalive_ms("bursty") == 60_000.0

    def test_ewma_target_scales_with_forecast(self):
        policy = HistogramEwmaPolicy(window_ms=1_000.0, service_ms=200.0,
                                     min_forecast=0.5)
        for _ in range(10):
            policy.observe_window("hot", 40.0)
        assert policy.target_warm("hot") >= 8  # load alone is 8
        assert policy.target_warm("idle-fn") == 0

    def test_learned_policy_is_seed_deterministic(self):
        outs = []
        for _ in range(2):
            policy = LearnedPolicy(window_ms=1_000.0, seed=7)
            for count in (3.0, 9.0, 1.0, 6.0, 4.0, 8.0):
                policy.observe_window("f", count)
            outs.append((policy.forecast("f"), policy.target_warm("f")))
        assert outs[0] == outs[1]

    def test_oracle_reads_the_next_window_off_the_trace(self):
        policy = OraclePolicy({"f": [4.0, 0.0, 2.0]}, window_ms=1_000.0,
                              service_ms=500.0)
        assert policy.target_warm("f") >= 2      # next window has 4
        assert policy.keepalive_ms("f") == 1_000.0
        policy.observe_window("f", 4.0)
        assert policy.target_warm("f") == 0      # next window is empty
        assert policy.keepalive_ms("f") == 0.0
        assert policy.prewarm_singletons

    def test_forecast_policies_do_not_place_singletons(self):
        assert not HistogramEwmaPolicy.prewarm_singletons
        assert not LearnedPolicy.prewarm_singletons


class TestPrewarmController:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            PrewarmConfig(policy="nope")
        with pytest.raises(ValueError):
            PrewarmConfig(window_ms=0.0)
        with pytest.raises(ValueError):
            PrewarmConfig(max_prewarm_per_tick=0)

    def test_plan_is_budget_capped(self):
        config = PrewarmConfig(policy="histogram", window_ms=100.0,
                               service_ms_hint=100.0,
                               max_prewarm_per_tick=3,
                               max_warm_per_function=8)
        controller = PrewarmController(config)
        # Two hot functions, each forecasting far more than the budget.
        t = 0.0
        for _ in range(40):
            for function in ("a", "b"):
                for _ in range(5):
                    controller.note_arrival(function, t)
                    t += 2.0
        actions = controller.plan(t + 100.0, {"a": 0, "b": 0})
        added = sum(a.add_replicas for a in actions)
        assert 0 < added <= 3

    def test_burn_rate_boosts_targets(self):
        config = PrewarmConfig(policy="histogram", window_ms=100.0,
                               max_prewarm_per_tick=32,
                               max_warm_per_function=32)
        results = {}
        for label, burn in (("calm", 0.0), ("burning", 5.0)):
            controller = PrewarmController(config)
            t = 0.0
            for _ in range(30):
                for _ in range(4):
                    controller.note_arrival("f", t)
                    t += 5.0
            actions = controller.plan(t + 100.0, {"f": 0}, burn_rate=burn)
            results[label] = sum(a.add_replicas for a in actions)
        assert results["burning"] > results["calm"]
        assert results["calm"] > 0

    def test_keepalive_falls_back_to_default_until_data(self):
        controller = PrewarmController(PrewarmConfig(policy="histogram"))
        assert controller.keepalive_ms("unknown", 42_000.0) == 42_000.0


# One step of a scripted platform clock: ``arrive``/``plan`` advance it
# by a gap in ms, ``arrive_on_edge`` jumps exactly onto a later window
# boundary, ``idle`` skips more windows than one plan feeds.
_FEED_STEPS = st.one_of(
    st.tuples(st.just("arrive"), st.integers(0, 250)),
    st.tuples(st.just("arrive_on_edge"), st.integers(1, 3)),
    st.tuples(st.just("idle"), st.integers(65, 150)),
    st.tuples(st.just("plan"), st.integers(0, 250)),
    st.tuples(st.just("plan_on_edge"), st.integers(1, 3)),
)


class TestWindowFeed:
    @settings(max_examples=200, deadline=None)
    @given(window=st.sampled_from([50, 100, 1000]),
           steps=st.lists(_FEED_STEPS, max_size=60))
    def test_feed_matches_offline_window_counts(self, window, steps):
        controller = PrewarmController(PrewarmConfig(
            policy="histogram", window_ms=float(window)))
        fed = []
        controller.policy.observe_window = (
            lambda key, count: fed.append((key, count)))
        t = 0
        arrivals, plans = [], []
        for kind, amount in steps:
            if kind.endswith("_on_edge"):
                t = (t // window + amount) * window
            elif kind == "idle":
                t += amount * window
            else:
                t += amount
            if kind == "plan" or kind == "plan_on_edge":
                controller.plan(float(t), {})
                plans.append((t, len(arrivals)))
            else:
                controller.note_arrival("f", float(t))
                arrivals.append(t)
        # Offline: every window [k*w, k*w + w) that ended by a plan is
        # fed once, in order, from the first arrival's window on, with
        # at most the 64 most recent ones per plan.
        expected = []
        next_window = None
        for now, noted in plans:
            if not noted:
                continue
            if next_window is None:
                next_window = arrivals[0] // window
            end = now // window
            for k in range(max(next_window, end - 64), end):
                count = sum(1 for a in arrivals
                            if k * window <= a < (k + 1) * window)
                expected.append(("f", float(count)))
            next_window = max(next_window, end)
        assert fed == expected
        assert controller.stats.windows_fed == len(expected)

