"""Property tests for repro.predict: forecasters and prewarm policies."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predict.forecast import ALPHA, EwmaForecaster, InterArrivalHistogram
from repro.predict.policy import (
    HORIZON,
    KEEPALIVE_FLOOR_MS,
    HistogramEwmaPolicy,
    OraclePolicy,
    PrewarmConfig,
    PrewarmController,
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

    @pytest.mark.parametrize("seed", range(40))
    def test_exact_quantile_is_bitwise_numpy_linear(self, seed):
        rng = np.random.default_rng(seed)
        hist = InterArrivalHistogram()
        for _ in range(int(rng.integers(1, 2 * hist.RECENT_GAPS))):
            scale = float(rng.choice([1.0, 37.5, 1_000.0, 60_000.0]))
            gap = float(rng.choice([round(rng.exponential(scale)),
                                    rng.exponential(scale), scale]))
            hist.note_gap(gap)
            recent = np.asarray(list(hist._recent))
            for q in (0.05, 0.98, float(rng.random()), 0.0, 0.5, 1.0):
                want = float(np.quantile(recent, q, method="linear"))
                assert hist.exact_quantile(q).hex() == want.hex()

    def test_exact_quantile_rejects_out_of_range(self):
        hist = InterArrivalHistogram()
        hist.note_gap(5.0)
        with pytest.raises(ValueError):
            hist.exact_quantile(1.5)


class TestEwmaForecaster:
    @given(rate=st.floats(min_value=0.5, max_value=50.0),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_converges_to_true_rate_on_stationary_poisson_counts(
            self, rate, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        ewma = EwmaForecaster()
        for count in rng.poisson(rate, size=800):
            ewma.observe(float(count))
        # Steady-state EWMA standard error: sqrt(alpha/(2-alpha)) of
        # the per-window sigma = sqrt(rate); 6 of those is a safe band.
        sigma = math.sqrt(ALPHA / (2.0 - ALPHA)) * math.sqrt(rate)
        assert abs(ewma.forecast() - rate) < 6.0 * sigma + 1e-9

    def test_first_observation_seeds_the_average(self):
        ewma = EwmaForecaster()
        ewma.observe(10.0)
        assert ewma.forecast() == 10.0

    def test_each_window_moves_the_average_by_alpha(self):
        ewma = EwmaForecaster()
        ewma.observe(10.0)
        ewma.observe(30.0)
        assert ewma.forecast() == 10.0 + ALPHA * 20.0
        ewma.observe(-1.0)        # rejected: no count is negative
        assert ewma.forecast() == 10.0 + ALPHA * 20.0


def _keepalive_formula(policy, key):
    """The keep-alive decision, recomputed in full on every call."""
    hist = policy._hist(key)
    default = policy._clamp(policy.DEFAULT_KEEPALIVE_MS)
    if hist.total == 0:
        return default
    shortest = hist.quantile(0.1)
    if shortest is not None and shortest > policy.keepalive_cap_ms:
        return KEEPALIVE_FLOOR_MS
    median, tail = hist.quantile(0.5), hist.quantile(policy.HIST_QUANTILE)
    if median is not None and tail is not None \
            and tail > policy.BROAD_RATIO * median:
        return default
    value = hist.keepalive_ms(policy.HIST_QUANTILE, KEEPALIVE_FLOOR_MS,
                              policy.keepalive_cap_ms)
    if value > policy.DEFAULT_KEEPALIVE_MS:
        rate = hist.rate_per_ms()
        if not rate or 1.0 / rate > policy.EXTEND_MEAN_GAP_MS:
            return default
    if value < policy.DEFAULT_KEEPALIVE_MS and policy.target_warm(key) > 0:
        return default
    return value


class TestPolicies:
    def test_histogram_policy_defaults_to_status_quo_without_data(self):
        policy = HistogramEwmaPolicy(keepalive_cap_ms=120_000.0)
        assert policy.keepalive_ms("new-fn") == 60_000.0

    def test_timer_function_scales_to_zero_and_gets_a_schedule(self):
        policy = HistogramEwmaPolicy(keepalive_cap_ms=30_000.0)
        for _ in range(12):
            policy.note_gap("timer", 180_000.0)
        assert policy.keepalive_ms("timer") == KEEPALIVE_FLOOR_MS
        schedule = policy.prewarm_schedule("timer")
        assert schedule is not None
        eta, hold = schedule
        assert 0 < eta < 180_000.0
        assert hold > 0

    def test_bursty_mixture_falls_back_to_the_default_keepalive(self):
        policy = HistogramEwmaPolicy(keepalive_cap_ms=120_000.0)
        # 97% intra-burst ~40ms gaps, 3% off gaps ~3 minutes: a broad
        # ON/OFF mixture the tail quantile can't serve.
        for _ in range(97):
            policy.note_gap("bursty", 40.0)
        for _ in range(3):
            policy.note_gap("bursty", 180_000.0)
        assert policy.keepalive_ms("bursty") == 60_000.0

    def test_ewma_target_scales_with_forecast(self):
        policy = HistogramEwmaPolicy(window_ms=1_000.0, service_ms=200.0)
        for _ in range(10):
            policy.observe_window("hot", 40.0)
        assert policy.target_warm("hot") >= 8  # load alone is 8
        assert policy.target_warm("idle-fn") == 0

    @given(steps=st.lists(st.one_of(
        st.tuples(st.just("gap"), st.sampled_from("ab"),
                  st.one_of(st.floats(min_value=0.0, max_value=400_000.0),
                            st.just(-1.0), st.just(math.nan))),
        st.tuples(st.just("window"), st.sampled_from("ab"),
                  st.one_of(st.floats(min_value=0.0, max_value=50.0),
                            st.just(-1.0))),
        st.tuples(st.just("ask"), st.sampled_from("abc"), st.just(0.0))),
        max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_memoized_keepalive_equals_the_per_call_formula(self, steps):
        policy = HistogramEwmaPolicy(window_ms=1_000.0, service_ms=200.0,
                                     keepalive_cap_ms=120_000.0)
        for kind, key, value in steps:
            if kind == "gap":
                policy.note_gap(key, value)
            elif kind == "window":
                policy.observe_window(key, value)
            # Rejected evidence (negative, NaN) bumps no count and
            # changes no decision; accepted evidence is never missed.
            assert policy.keepalive_ms(key) == _keepalive_formula(policy, key)

    def test_the_active_function_floor_follows_the_forecast(self):
        policy = HistogramEwmaPolicy(window_ms=1_000.0, service_ms=200.0,
                                     keepalive_cap_ms=120_000.0)
        for _ in range(20):
            policy.note_gap("f", 40.0)
        assert policy.keepalive_ms("f") < policy.DEFAULT_KEEPALIVE_MS
        policy.observe_window("f", 10.0)
        assert policy.keepalive_ms("f") == policy.DEFAULT_KEEPALIVE_MS
        for _ in range(30):
            policy.observe_window("f", 0.0)
        assert policy.keepalive_ms("f") < policy.DEFAULT_KEEPALIVE_MS

    def test_oracle_reads_the_next_window_off_the_trace(self):
        policy = OraclePolicy({"f": [4.0, 0.0, 2.0]}, PrewarmConfig(
            window_ms=1_000.0, service_ms_hint=500.0))
        # The window read is floor(now / window): the one starting at
        # the plan's boundary, whatever windows were fed before.
        for now_ms, count in ((0.0, 4.0), (999.0, 4.0), (1_000.0, 0.0),
                              (2_500.0, 2.0), (3_000.0, 0.0)):
            policy.now_ms = now_ms
            assert policy.forecast("f") == count
            assert policy.keepalive_ms("f") == (2_000.0 if count else 0.0)
        policy.now_ms = 0.0
        assert policy.target_warm("f") >= 2      # next window has 4
        policy.now_ms = 1_000.0
        assert policy.target_warm("f") == 0      # next window is empty
        assert policy.forecast("unknown") == 0.0

    def test_oracle_controller_reads_the_window_across_a_horizon_skip(self):
        # A feed cursor would fall behind the window index here: the
        # controller feeds at most HORIZON windows per plan.
        window = 1_000.0
        counts = [0.0] * (HORIZON + 10)
        counts[-1] = 3.0
        config = PrewarmConfig(window_ms=window, service_ms_hint=500.0)
        policy = OraclePolicy({"f": counts}, config)
        controller = PrewarmController(config, policy=policy)
        controller.note_arrival("f", 0.0)
        # The controller hands the oracle the plan's time.
        (action,) = controller.plan((len(counts) - 1) * window, {"f": 0})
        assert action.forecast == 3.0
        assert action.add_replicas >= 1


class TestPrewarmController:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            PrewarmConfig(policy="nope")
        with pytest.raises(ValueError):
            PrewarmConfig(policy="learned")
        with pytest.raises(ValueError):
            PrewarmConfig(window_ms=0.0)
        with pytest.raises(ValueError):
            PrewarmConfig(max_prewarm_per_tick=0)
        with pytest.raises(ValueError, match="keepalive_cap_ms"):
            PrewarmConfig(keepalive_cap_ms=10.0)     # the floor is 1 s
        # A zero warm cap silently disabled every pre-placement.
        with pytest.raises(ValueError, match="max_warm_per_function"):
            PrewarmConfig(max_warm_per_function=0)

    def test_controller_runs_the_histogram_policy(self):
        assert PrewarmConfig().policy == "histogram"
        controller = PrewarmController(PrewarmConfig(policy="histogram"))
        assert type(controller.policy) is HistogramEwmaPolicy

    @pytest.mark.parametrize("hint", [0.0, -500.0])
    def test_non_positive_service_hint_rejected(self, hint):
        # A negative hint once made the staffing sqrt() of a negative
        # load raise "math domain error" from inside gc_tick.
        with pytest.raises(ValueError, match="service_ms_hint"):
            PrewarmConfig(policy="histogram", window_ms=200.0,
                          service_ms_hint=hint)

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

    def test_keepalive_falls_back_to_default_until_data(self):
        controller = PrewarmController(PrewarmConfig(policy="histogram"))
        assert controller.keepalive_ms("unknown", 42_000.0) == 42_000.0

    def test_controller_takes_its_policy(self):
        config = PrewarmConfig()
        policy = OraclePolicy({"f": [0.0]}, config)
        controller = PrewarmController(config, policy=policy)
        assert controller.policy is policy
        controller.note_arrival("f", 0.0)
        # The oracle's keep-alive of 0 is 0, not the default.
        assert controller.keepalive_ms("f", 42_000.0) == 0.0


def _timer_controller(period_ms=60_000.0, arrivals=8):
    """A controller that saw ``arrivals`` strictly periodic arrivals."""
    controller = PrewarmController(PrewarmConfig())
    for i in range(arrivals):
        controller.note_arrival("cron", i * period_ms)
    return controller, (arrivals - 1) * period_ms


class TestTimerSchedule:
    def test_schedule_places_once_per_arrival_and_holds(self):
        controller, last = _timer_controller()
        eta, hold = controller.policy.prewarm_schedule("cron")
        due = last + eta
        assert controller.plan(due - 1.0, {}) == []
        (action,) = controller.plan(due, {})
        assert action.function == "cron" and action.add_replicas == 1
        assert controller.stats.prewarm_replicas == 1
        assert controller.hold_end_ms("cron") == due + hold
        # Fired once for this arrival, even with no live replica.
        assert controller.plan(due + 1.0, {}) == []
        # The next arrival clears the hold and re-arms the schedule.
        controller.note_arrival("cron", last + 60_000.0)
        assert controller.hold_end_ms("cron") == float("-inf")

    def test_schedule_skips_a_live_replica_and_a_missed_hold(self):
        controller, last = _timer_controller()
        eta, hold = controller.policy.prewarm_schedule("cron")
        assert controller.plan(last + eta, {"cron": 1}) == []
        assert controller.plan(last + eta + hold, {}) == []
        assert controller.plan(last + eta + 1.0, {}) == []
        assert controller.stats.prewarm_replicas == 0

    def test_schedule_counts_against_the_budget(self):
        controller = PrewarmController(PrewarmConfig(max_prewarm_per_tick=1))
        for i in range(8):
            for function in ("a", "b"):
                controller.note_arrival(function, i * 60_000.0)
        eta, _ = controller.policy.prewarm_schedule("a")
        actions = controller.plan(7 * 60_000.0 + eta, {})
        assert [a.function for a in actions] == ["a"]
        (action,) = controller.plan(7 * 60_000.0 + eta + 1.0, {})
        assert action.function == "b"


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

