"""Prewarm policies and the platform-side prewarm controller.

A *policy* turns the observed arrival stream of one function into two
decisions, re-evaluated once per forecast window:

* ``keepalive_ms`` — how long an idle warm replica is worth keeping;
* ``target_warm`` — how many replicas to hold ready for the *next*
  window (0 for purely reactive policies).

Policies see arrivals only as inter-arrival gaps (``note_gap``) and
one arrival count per completed window (``observe_window``).

The X13 study (:mod:`repro.bench.prewarm_study`) sweeps the policy
ladder — reactive, fixed keep-alive, histogram/EWMA, learned
(attention), oracle — over the same trace; the platform runs one
policy live through :class:`PrewarmController`, which counts arrivals
per window, feeds each completed window's count to the policy once,
and hands the autoscaler budget-capped :class:`PrewarmAction` plans.

Policies are deterministic: per-key forecaster seeds derive from the
policy seed and the key via ``repro.sim.rng._derive_seed``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.predict.forecast import (
    AttentionForecaster,
    EwmaForecaster,
    InterArrivalHistogram,
)
from repro.sim.rng import _derive_seed

DEFAULT_WINDOW_MS = 10_000.0
DEFAULT_KEEPALIVE_FLOOR_MS = 1_000.0
DEFAULT_KEEPALIVE_CAP_MS = 30_000.0

#: Lag window of the attention forecaster, and the most completed
#: windows one controller plan feeds (a long idle stretch costs
#: O(HORIZON), not O(gap)).
HORIZON = 64

#: Byte budget of one prewarm action's hot-chunk prefetch.
PREFETCH_BUDGET_BYTES = 128 * 1024 * 1024


def _concurrency(forecast: float, window_ms: float, service_ms: float,
                 min_forecast: float, safety: float) -> int:
    """Warm replicas needed to absorb ``forecast`` arrivals next window.

    Square-root staffing: the mean busy count is Little's law
    (``forecast * service_ms / window_ms``), but arrivals clump, so the
    warm set must cover the *peak* instantaneous concurrency — for
    Poisson overlap that is mean + ``safety`` standard deviations
    (``sqrt(mean)``), the classic Erlang square-root safety margin. At
    least one replica is held whenever the forecast clears the
    ``min_forecast`` noise floor.
    """
    if forecast < min_forecast:
        return 0
    load = forecast * service_ms / window_ms
    need = load + safety * math.sqrt(load)
    return max(1, int(math.ceil(need)))


class PrewarmPolicy:
    """Interface shared by the study's policy ladder."""

    name = "base"

    #: Whether a singleton target (exactly one warm replica) is worth
    #: pre-placing. Forecast-driven policies say no — keeping one
    #: replica warm is the keep-alive's job, and a speculative
    #: singleton placed on every window the forecast clears the noise
    #: floor holds a standing replica through troughs the status quo
    #: scales out of. The clairvoyant oracle says yes: it only places
    #: for windows that really have arrivals.
    prewarm_singletons = False

    def note_gap(self, key: str, gap_ms: float) -> None:
        """Record one inter-arrival gap for ``key``."""

    def observe_window(self, key: str, count: float) -> None:
        """Fold in one completed window's arrival count for ``key``."""

    def keepalive_ms(self, key: str) -> float:
        return 0.0

    def target_warm(self, key: str) -> int:
        return 0

    def prewarm_schedule(self, key: str) -> Optional[Tuple[float, float]]:
        """Timer-style prewarm schedule, or None.

        Returns ``(eta_ms, hold_ms)``: place one replica ``eta_ms``
        after the function's last arrival and hold it for ``hold_ms``.
        Only meaningful when the inter-arrival histogram shows long,
        *predictable* gaps (cron/timer triggers — the dominant class in
        production FaaS traces): the keep-alive path can't cover a
        3-minute period, but a replica pre-placed just before the
        predicted arrival turns every one of those cold starts warm
        for a few seconds of idle cost.
        """
        return None


class ReactivePolicy(PrewarmPolicy):
    """No keep-alive, no prewarm: every start after idle is cold."""

    name = "reactive"


class FixedKeepAlivePolicy(PrewarmPolicy):
    """The classic fixed idle timeout (the platform's status quo)."""

    name = "fixed"

    def __init__(self, keepalive_ms: float = 60_000.0) -> None:
        self._keepalive_ms = float(keepalive_ms)

    def keepalive_ms(self, key: str) -> float:
        return self._keepalive_ms


class HistogramEwmaPolicy(PrewarmPolicy):
    """Serverless-in-the-Wild-style hybrid: histogram keep-alive + EWMA
    pre-provisioning.

    The per-key inter-arrival histogram picks a keep-alive covering the
    ``hist_quantile`` fraction of observed gaps — but only when the gap
    distribution is *informative*. Two escape hatches keep the policy
    honest on the distributions a quantile can't serve:

    * gaps so long not even the cap covers a tenth of them (timer/cron
      periods) → scale to zero at the floor and rely on
      :meth:`prewarm_schedule`;
    * a broad ON/OFF mixture (burst gaps milliseconds, off gaps
      minutes) → no single affordable window is also covering, so fall
      back to ``default_keepalive_ms``, the platform's status quo.
    """

    name = "histogram"

    #: Gap-distribution spread (tail quantile / median, in log2-bucket
    #: edges) beyond which the histogram is treated as an ON/OFF
    #: mixture rather than one coverable distribution.
    BROAD_RATIO = 16.0

    #: Mean-gap ceiling for keep-alives *longer* than the default.
    #: Extending coverage from the default to the tail quantile costs
    #: roughly one mean gap of idle time per cold start it avoids, so
    #: the extension only pays on functions that arrive often enough.
    EXTEND_MEAN_GAP_MS = 20_000.0

    def __init__(self, window_ms: float = DEFAULT_WINDOW_MS,
                 service_ms: float = 150.0,
                 hist_quantile: float = 0.99,
                 keepalive_floor_ms: float = DEFAULT_KEEPALIVE_FLOOR_MS,
                 keepalive_cap_ms: float = DEFAULT_KEEPALIVE_CAP_MS,
                 default_keepalive_ms: float = 60_000.0,
                 ewma_alpha: float = 0.25,
                 min_forecast: float = 0.5,
                 safety: float = 2.5) -> None:
        self.window_ms = float(window_ms)
        self.service_ms = float(service_ms)
        self.hist_quantile = float(hist_quantile)
        self.keepalive_floor_ms = float(keepalive_floor_ms)
        self.keepalive_cap_ms = float(keepalive_cap_ms)
        self.default_keepalive_ms = float(default_keepalive_ms)
        self.ewma_alpha = float(ewma_alpha)
        self.min_forecast = float(min_forecast)
        self.safety = float(safety)
        self._hists: Dict[str, InterArrivalHistogram] = {}
        self._ewmas: Dict[str, EwmaForecaster] = {}

    def _hist(self, key: str) -> InterArrivalHistogram:
        hist = self._hists.get(key)
        if hist is None:
            hist = self._hists[key] = InterArrivalHistogram()
        return hist

    def _ewma(self, key: str) -> EwmaForecaster:
        ewma = self._ewmas.get(key)
        if ewma is None:
            ewma = self._ewmas[key] = EwmaForecaster(alpha=self.ewma_alpha)
        return ewma

    def note_gap(self, key: str, gap_ms: float) -> None:
        self._hist(key).note_gap(gap_ms)

    def observe_window(self, key: str, count: float) -> None:
        self._ewma(key).observe(count)

    def forecast(self, key: str) -> float:
        return self._ewma(key).forecast()

    def _clamp(self, value: float) -> float:
        return min(max(value, self.keepalive_floor_ms), self.keepalive_cap_ms)

    def keepalive_ms(self, key: str) -> float:
        hist = self._hist(key)
        if hist.total == 0:
            # No gap data yet: keep the status-quo timeout until the
            # histogram earns the right to shrink it.
            return self._clamp(self.default_keepalive_ms)
        # Scale-to-zero fast path: when even a tenth of the observed
        # gaps outlast the cap, no affordable keep-alive covers this
        # function (timer/cron-style long periods) — idling a replica
        # for the cap is pure waste, so drop to the floor and let
        # ``prewarm_schedule`` place a replica just in time instead.
        shortest = hist.quantile(0.1)
        if shortest is not None and shortest > self.keepalive_cap_ms:
            return self.keepalive_floor_ms
        # Uninformative-distribution fallback: a quantile of an ON/OFF
        # mixture picks the intra-burst spacing (milliseconds) and lets
        # surplus replicas die mid-burst, while the off gaps it would
        # need to cover sit octaves away. When the tail is BROAD_RATIO
        # beyond the median, no single histogram window is both
        # affordable and covering — use the platform's default timeout,
        # exactly like the fixed baseline, and let the EWMA target do
        # the predictive work.
        median = hist.quantile(0.5)
        tail = hist.quantile(self.hist_quantile)
        if median is not None and tail is not None \
                and tail > self.BROAD_RATIO * median:
            return self._clamp(self.default_keepalive_ms)
        value = hist.keepalive_ms(
            self.hist_quantile, self.keepalive_floor_ms,
            self.keepalive_cap_ms)
        if value > self.default_keepalive_ms:
            # Cost-aware extension: a keep-alive beyond the status quo
            # pays ~one mean gap of idle per avoided cold, so sparse
            # functions stay at the default instead of the tail edge.
            rate = hist.rate_per_ms()
            mean_gap = (1.0 / rate) if rate else None
            if mean_gap is None or mean_gap > self.EXTEND_MEAN_GAP_MS:
                return self._clamp(self.default_keepalive_ms)
        # Active-function floor: while the forecast holds a positive
        # warm target, surplus replicas above it are retained at least
        # as long as the status quo would retain them. A sub-default
        # keep-alive on a busy function saves milliseconds of idle but
        # churns the standing depth that arrival clumps reuse.
        if value < self.default_keepalive_ms and self.target_warm(key) > 0:
            return self._clamp(self.default_keepalive_ms)
        return value

    def target_warm(self, key: str) -> int:
        return _concurrency(self.forecast(key), self.window_ms,
                            self.service_ms, self.min_forecast, self.safety)

    # Schedule thresholds: enough gap samples to trust the histogram,
    # a spread test separating periodic triggers from Poisson-ish
    # arrivals, and an early-edge margin so the replica lands warm
    # before the bulk of the predicted gap distribution.
    SCHEDULE_MIN_SAMPLES = 6
    SCHEDULE_MAX_SPREAD = 4.0
    SCHEDULE_ETA_MARGIN = 0.9

    def prewarm_schedule(self, key: str) -> Optional[Tuple[float, float]]:
        hist = self._hist(key)
        if hist.total < self.SCHEDULE_MIN_SAMPLES:
            return None
        lo = hist.exact_quantile(0.05)
        hi = hist.exact_quantile(0.98)
        if lo is None or hi is None or lo <= 0:
            return None
        if hi > lo * self.SCHEDULE_MAX_SPREAD:
            return None                      # gaps not predictable
        if lo <= self.keepalive_ms(key):
            return None                      # keep-alive already covers
        eta = lo * self.SCHEDULE_ETA_MARGIN
        hold = hi * 1.1 - eta
        return eta, hold


class LearnedPolicy(HistogramEwmaPolicy):
    """Histogram keep-alive + attention-forecast pre-provisioning.

    Same shape as :class:`HistogramEwmaPolicy` but the next-window count
    comes from a per-key :class:`AttentionForecaster` (seeded from the
    policy seed and the key, so the study is reproducible function by
    function).
    """

    name = "learned"

    def __init__(self, window_ms: float = DEFAULT_WINDOW_MS,
                 service_ms: float = 150.0,
                 horizon: int = HORIZON,
                 seed: int = 0,
                 **kwargs: float) -> None:
        super().__init__(window_ms=window_ms, service_ms=service_ms, **kwargs)
        self.horizon = int(horizon)
        self.seed = int(seed)
        self._models: Dict[str, AttentionForecaster] = {}

    def _model(self, key: str) -> AttentionForecaster:
        model = self._models.get(key)
        if model is None:
            model = self._models[key] = AttentionForecaster(
                horizon=self.horizon,
                seed=_derive_seed(self.seed, f"prewarm-{key}"))
        return model

    def observe_window(self, key: str, count: float) -> None:
        super().observe_window(key, count)
        self._model(key).observe(count)

    def forecast(self, key: str) -> float:
        return self._model(key).forecast()


class OraclePolicy(PrewarmPolicy):
    """Clairvoyant upper bound: reads next-window counts off the trace.

    Constructed with the per-key window-count vectors the study
    precomputes from the trace; ``observe_window`` only advances the
    per-key cursor. Keep-alive collapses to one window — the oracle
    never holds a replica it knows won't be used.
    """

    name = "oracle"
    prewarm_singletons = True

    def __init__(self, counts: Mapping[str, Sequence[float]],
                 window_ms: float = DEFAULT_WINDOW_MS,
                 service_ms: float = 150.0,
                 safety: float = 2.5) -> None:
        self.window_ms = float(window_ms)
        self.service_ms = float(service_ms)
        self.safety = float(safety)
        self._counts = {key: list(values) for key, values in counts.items()}
        self._cursor: Dict[str, int] = {}

    def observe_window(self, key: str, count: float) -> None:
        self._cursor[key] = self._cursor.get(key, -1) + 1

    def _next_count(self, key: str) -> float:
        counts = self._counts.get(key)
        if counts is None:
            return 0.0
        index = self._cursor.get(key, -1) + 1
        if index >= len(counts):
            return 0.0
        return float(counts[index])

    def keepalive_ms(self, key: str) -> float:
        return self.window_ms if self._next_count(key) > 0 else 0.0

    def target_warm(self, key: str) -> int:
        return _concurrency(self._next_count(key), self.window_ms,
                            self.service_ms, 0.5, self.safety)


# ---------------------------------------------------------------------------
# Platform-side controller
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrewarmConfig:
    """Knobs for the live prewarm layer (off unless installed)."""

    policy: str = "learned"              # "histogram" | "learned"
    window_ms: float = DEFAULT_WINDOW_MS
    service_ms_hint: float = 100.0       # assumed busy time per request
    keepalive_floor_ms: float = DEFAULT_KEEPALIVE_FLOOR_MS
    keepalive_cap_ms: float = DEFAULT_KEEPALIVE_CAP_MS
    max_prewarm_per_tick: int = 4        # replica budget per planning pass
    max_warm_per_function: int = 4

    def __post_init__(self) -> None:
        if self.policy not in ("histogram", "learned"):
            raise ValueError(f"unknown prewarm policy {self.policy!r}")
        if self.window_ms <= 0:
            raise ValueError("window_ms must be positive")
        if self.max_prewarm_per_tick < 1:
            raise ValueError("max_prewarm_per_tick must be >= 1")


@dataclass(frozen=True)
class PrewarmAction:
    """One function's plan for the next window: pre-place
    ``add_replicas`` and prefetch the function's hot chunks node-side."""

    function: str
    add_replicas: int       # replicas to pre-place now (may be 0)
    forecast: float         # raw next-window arrival forecast


@dataclass
class PrewarmStats:
    """Controller counters, surfaced in X13 and the obs metrics."""

    plans: int = 0
    prewarm_replicas: int = 0
    prefetch_requests: int = 0
    windows_fed: int = 0


class PrewarmController:
    """Counts arrivals per forecast window and plans prewarm actions.

    Window ``k`` of a function is ``[k*w, k*w + w)``. Per function the
    controller keeps only the arrival counts of windows it has not fed
    yet and the next window index to feed, which starts at the window
    of the function's first arrival. ``note_arrival`` is called from
    the router path (cheap: one count bump + one histogram bump);
    ``plan`` is called from the autoscaler tick, feeds every window
    that ended by then to the policy once, in order, zero-count
    windows included, and returns the budget-capped actions for this
    pass. The controller never touches the kernel RNG or clock, so
    installing it leaves un-prewarmed runs byte-identical.
    """

    #: Cold-start SLO burn rate above which forecast targets are
    #: multiplied by ``BURN_BOOST``, so capacity lands *before* the
    #: error budget burns out.
    BURN_THRESHOLD = 1.0
    BURN_BOOST = 2.0

    def __init__(self, config: Optional[PrewarmConfig] = None) -> None:
        self.config = config or PrewarmConfig()
        cfg = self.config
        kwargs = dict(
            window_ms=cfg.window_ms,
            service_ms=cfg.service_ms_hint,
            keepalive_floor_ms=cfg.keepalive_floor_ms,
            keepalive_cap_ms=cfg.keepalive_cap_ms,
        )
        if cfg.policy == "learned":
            self.policy: HistogramEwmaPolicy = LearnedPolicy(**kwargs)
        else:
            self.policy = HistogramEwmaPolicy(**kwargs)
        self._counts: Dict[str, Counter] = {}
        self._next_window: Dict[str, int] = {}
        self._last_arrival: Dict[str, float] = {}
        self.stats = PrewarmStats()

    # -- arrival path --------------------------------------------------------

    def note_arrival(self, function: str, at_ms: float) -> None:
        window = math.floor(at_ms / self.config.window_ms)
        last = self._last_arrival.get(function)
        if last is None:
            self._counts[function] = Counter()
            self._next_window[function] = window
        else:
            self.policy.note_gap(function, at_ms - last)
        self._last_arrival[function] = at_ms
        self._counts[function][window] += 1

    # -- planning ------------------------------------------------------------

    def _feed_windows(self, function: str, now_ms: float) -> None:
        """Feed the windows that ended by ``now_ms`` and were not fed
        yet (at most the ``HORIZON`` most recent ones)."""
        end = math.floor(now_ms / self.config.window_ms)
        start = max(self._next_window[function], end - HORIZON)
        if start >= end:
            return
        counts = self._counts[function]
        for window in range(start, end):
            self.policy.observe_window(function, float(counts.pop(window, 0)))
        self.stats.windows_fed += end - start
        for window in [w for w in counts if w < start]:
            del counts[window]           # beyond the horizon cap
        self._next_window[function] = end

    def keepalive_ms(self, function: str,
                     default_ms: float) -> float:
        """Policy keep-alive for the autoscaler's idle GC (falls back to
        the configured timeout until the histogram has data).

        While the forecast holds a positive warm target the keep-alive
        is floored at 1.5 forecast windows, so deliberately pre-placed
        replicas survive the GC pass between two plans instead of
        churning (prewarm → gc → prewarm)."""
        if function not in self._counts:
            return default_ms
        value = self.policy.keepalive_ms(function)
        if value <= 0:
            return default_ms
        if self.policy.target_warm(function) > 0:
            value = max(value, 1.5 * self.config.window_ms)
        return value

    def plan(self, now_ms: float, current_warm: Mapping[str, int],
             burn_rate: Optional[float] = None) -> List[PrewarmAction]:
        """Plan this pass's prewarm actions.

        ``current_warm`` maps function -> live replica count; the plan
        only asks for the shortfall against the forecast target. The
        total replicas added per pass is capped by the config budget;
        when the cold-start SLO burn rate crosses ``BURN_THRESHOLD``
        the per-function targets are boosted. Every function with a
        positive target gets an action, so its chunks are prefetched
        even when no replica is added.
        """
        cfg = self.config
        self.stats.plans += 1
        burning = burn_rate is not None and burn_rate > self.BURN_THRESHOLD
        budget = cfg.max_prewarm_per_tick
        actions: List[PrewarmAction] = []
        for function in sorted(self._counts):
            self._feed_windows(function, now_ms)
            target = self.policy.target_warm(function)
            if burning:
                target = int(math.ceil(target * self.BURN_BOOST))
            target = min(target, cfg.max_warm_per_function)
            if target <= 0:
                continue
            have = int(current_warm.get(function, 0))
            add = min(max(0, target - have), budget)
            budget -= add
            self.stats.prewarm_replicas += add
            self.stats.prefetch_requests += 1
            actions.append(PrewarmAction(
                function=function,
                add_replicas=add,
                forecast=self.policy.forecast(function),
            ))
        return actions
