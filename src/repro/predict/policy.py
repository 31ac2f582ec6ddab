"""Prewarm policies and the platform-side prewarm controller.

A *policy* turns the observed arrival stream of one function into
three decisions, re-evaluated once per forecast window:

* ``keepalive_ms`` — how long an idle warm replica is worth keeping;
* ``target_warm`` — how many replicas to hold ready for the *next*
  window;
* ``prewarm_schedule`` — when to pre-place one replica for a function
  that scaled to zero between predictable (timer) arrivals.

Policies see arrivals only as inter-arrival gaps (``note_gap``) and
one arrival count per completed window (``observe_window``).

:class:`PrewarmController` is the one planner. It counts arrivals per
window, feeds each completed window's count to its policy once, and
hands the caller budget-capped :class:`PrewarmAction` plans: forecast
targets plus the timer placement, whose replica it holds until the
schedule's hold ends. The platform's autoscaler runs it with
:class:`HistogramEwmaPolicy`; the X13 study
(:mod:`repro.bench.prewarm_study`) replays its trace through the same
controller, with :class:`OraclePolicy` as the clairvoyant bound.

Policies hold no randomness: the same arrivals give the same
decisions.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.predict.forecast import EwmaForecaster, InterArrivalHistogram

DEFAULT_WINDOW_MS = 10_000.0
DEFAULT_KEEPALIVE_CAP_MS = 30_000.0

#: The shortest keep-alive a policy picks (the scale-to-zero floor).
KEEPALIVE_FLOOR_MS = 1_000.0

#: The most completed windows one controller plan feeds to the policy
#: (a long idle stretch costs O(HORIZON), not O(gap); the EWMA has
#: decayed older windows to nothing by then).
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
    """Interface :class:`PrewarmController` plans through.

    Each policy defines ``forecast(key)`` (arrivals expected in the
    next window), ``keepalive_ms(key)`` and ``target_warm(key)``.
    """

    def note_gap(self, key: str, gap_ms: float) -> None:
        """Record one inter-arrival gap for ``key``."""

    def observe_time(self, now_ms: float) -> None:
        """The time of the plan about to run (the controller calls this
        first in every plan)."""

    def observe_window(self, key: str, count: float) -> None:
        """Fold in one completed window's arrival count for ``key``."""

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


class HistogramEwmaPolicy(PrewarmPolicy):
    """Serverless-in-the-Wild-style hybrid: histogram keep-alive + EWMA
    pre-provisioning.

    The per-key inter-arrival histogram picks a keep-alive covering the
    ``HIST_QUANTILE`` fraction of observed gaps — but only when the gap
    distribution is *informative*. Two escape hatches keep the policy
    honest on the distributions a quantile can't serve:

    * gaps so long not even the cap covers a tenth of them (timer/cron
      periods) → scale to zero at the floor and rely on
      :meth:`prewarm_schedule`;
    * a broad ON/OFF mixture (burst gaps milliseconds, off gaps
      minutes) → no single affordable window is also covering, so fall
      back to :attr:`DEFAULT_KEEPALIVE_MS`, the platform's status quo.
    """

    #: Gap-distribution spread (tail quantile / median, in log2-bucket
    #: edges) beyond which the histogram is treated as an ON/OFF
    #: mixture rather than one coverable distribution.
    BROAD_RATIO = 16.0

    #: Mean-gap ceiling for keep-alives *longer* than the default.
    #: Extending coverage from the default to the tail quantile costs
    #: roughly one mean gap of idle time per cold start it avoids, so
    #: the extension only pays on functions that arrive often enough.
    EXTEND_MEAN_GAP_MS = 20_000.0

    #: Gap coverage of the keep-alive, the forecast noise floor, and the
    #: staffing safety factor.
    HIST_QUANTILE = 0.99
    MIN_FORECAST = 0.5
    SAFETY = 2.5

    #: The platform's fixed keep-alive, the fallback for gap
    #: distributions no single window covers.
    DEFAULT_KEEPALIVE_MS = 60_000.0

    def __init__(self, window_ms: float = DEFAULT_WINDOW_MS,
                 service_ms: float = 150.0,
                 keepalive_cap_ms: float = DEFAULT_KEEPALIVE_CAP_MS) -> None:
        self.window_ms = float(window_ms)
        self.service_ms = float(service_ms)
        self.keepalive_cap_ms = float(keepalive_cap_ms)
        self._hists: Dict[str, InterArrivalHistogram] = {}
        self._ewmas: Dict[str, EwmaForecaster] = {}
        # key -> (gaps noted, histogram keep-alive, floor applies): the
        # histogram's verdict changes only when an accepted gap bumps
        # its count (see keepalive_ms).
        self._keepalives: Dict[str, Tuple[int, float, bool]] = {}

    def _hist(self, key: str) -> InterArrivalHistogram:
        hist = self._hists.get(key)
        if hist is None:
            hist = self._hists[key] = InterArrivalHistogram()
        return hist

    def _ewma(self, key: str) -> EwmaForecaster:
        ewma = self._ewmas.get(key)
        if ewma is None:
            ewma = self._ewmas[key] = EwmaForecaster()
        return ewma

    def note_gap(self, key: str, gap_ms: float) -> None:
        self._hist(key).note_gap(gap_ms)

    def observe_window(self, key: str, count: float) -> None:
        self._ewma(key).observe(count)

    def forecast(self, key: str) -> float:
        return self._ewma(key).forecast()

    def _clamp(self, value: float) -> float:
        return min(max(value, KEEPALIVE_FLOOR_MS), self.keepalive_cap_ms)

    def keepalive_ms(self, key: str) -> float:
        """The keep-alive for ``key``.

        Everything but the active-function floor reads only the gap
        histogram, so that verdict is memoized per key on the
        histogram's gap count (every accepted ``note_gap`` bumps it);
        the floor reads the forecast, which moves every window, and is
        decided afresh on each call.
        """
        hist = self._hist(key)
        memo = self._keepalives.get(key)
        if memo is None or memo[0] != hist.total:
            memo = self._keepalives[key] = (
                hist.total, *self._histogram_keepalive(hist))
        _, value, floor_applies = memo
        # Active-function floor: while the forecast holds a positive
        # warm target, surplus replicas above it are retained at least
        # as long as the status quo would retain them. A sub-default
        # keep-alive on a busy function saves milliseconds of idle but
        # churns the standing depth that arrival clumps reuse.
        if floor_applies and self.target_warm(key) > 0:
            return self._clamp(self.DEFAULT_KEEPALIVE_MS)
        return value

    def _histogram_keepalive(self, hist: InterArrivalHistogram
                             ) -> Tuple[float, bool]:
        """(keep-alive, whether the active-function floor may raise it)."""
        if hist.total == 0:
            # No gap data yet: keep the status-quo timeout until the
            # histogram earns the right to shrink it.
            return self._clamp(self.DEFAULT_KEEPALIVE_MS), False
        # Scale-to-zero fast path: when even a tenth of the observed
        # gaps outlast the cap, no affordable keep-alive covers this
        # function (timer/cron-style long periods) — idling a replica
        # for the cap is pure waste, so drop to the floor and let
        # ``prewarm_schedule`` place a replica just in time instead.
        shortest = hist.quantile(0.1)
        if shortest is not None and shortest > self.keepalive_cap_ms:
            return KEEPALIVE_FLOOR_MS, False
        # Uninformative-distribution fallback: a quantile of an ON/OFF
        # mixture picks the intra-burst spacing (milliseconds) and lets
        # surplus replicas die mid-burst, while the off gaps it would
        # need to cover sit octaves away. When the tail is BROAD_RATIO
        # beyond the median, no single histogram window is both
        # affordable and covering — use the platform's default timeout,
        # exactly like the fixed baseline, and let the EWMA target do
        # the predictive work.
        median = hist.quantile(0.5)
        tail = hist.quantile(self.HIST_QUANTILE)
        if median is not None and tail is not None \
                and tail > self.BROAD_RATIO * median:
            return self._clamp(self.DEFAULT_KEEPALIVE_MS), False
        value = hist.keepalive_ms(
            self.HIST_QUANTILE, KEEPALIVE_FLOOR_MS, self.keepalive_cap_ms)
        if value > self.DEFAULT_KEEPALIVE_MS:
            # Cost-aware extension: a keep-alive beyond the status quo
            # pays ~one mean gap of idle per avoided cold, so sparse
            # functions stay at the default instead of the tail edge.
            rate = hist.rate_per_ms()
            mean_gap = (1.0 / rate) if rate else None
            if mean_gap is None or mean_gap > self.EXTEND_MEAN_GAP_MS:
                return self._clamp(self.DEFAULT_KEEPALIVE_MS), False
        return value, value < self.DEFAULT_KEEPALIVE_MS

    def target_warm(self, key: str) -> int:
        return _concurrency(self.forecast(key), self.window_ms,
                            self.service_ms, self.MIN_FORECAST, self.SAFETY)

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


class OraclePolicy(PrewarmPolicy):
    """Clairvoyant upper bound: reads next-window counts off the trace.

    Constructed with the per-key window-count vectors the study
    precomputes from the trace, and the config of the controller it
    plans for, whose window and service time it staffs with. The
    controller hands it each plan's time, and the oracle reads window
    ``floor(now_ms / window_ms)``, the one that starts at the plan's
    boundary. Keep-alive is two windows while that window has arrivals
    and 0 otherwise: a replica that went idle in the current window
    then outlives the whole next one, and the oracle never holds a
    replica it knows won't be used.
    """

    #: Staffing safety factor. The bound staffs generously: it knows
    #: the next window's exact count and never pays for a wrong
    #: forecast, so a wide overlap margin only tightens the bound.
    SAFETY = 4.0

    def __init__(self, counts: Mapping[str, Sequence[float]],
                 config: "PrewarmConfig") -> None:
        self.window_ms = float(config.window_ms)
        self.service_ms = float(config.service_ms_hint)
        self._counts = {key: list(values) for key, values in counts.items()}
        self.now_ms = 0.0

    def observe_time(self, now_ms: float) -> None:
        self.now_ms = now_ms

    def forecast(self, key: str) -> float:
        counts = self._counts.get(key)
        index = math.floor(self.now_ms / self.window_ms)
        if counts is None or index >= len(counts):
            return 0.0
        return float(counts[index])

    def keepalive_ms(self, key: str) -> float:
        return 2.0 * self.window_ms if self.forecast(key) > 0 else 0.0

    def target_warm(self, key: str) -> int:
        return _concurrency(self.forecast(key), self.window_ms,
                            self.service_ms, 0.5, self.SAFETY)


# ---------------------------------------------------------------------------
# Platform-side controller
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrewarmConfig:
    """Knobs for the live prewarm layer (off unless installed)."""

    policy: str = "histogram"            # the only live policy
    window_ms: float = DEFAULT_WINDOW_MS
    service_ms_hint: float = 100.0       # assumed busy time per request
    keepalive_cap_ms: float = DEFAULT_KEEPALIVE_CAP_MS
    max_prewarm_per_tick: int = 4        # replica budget per planning pass
    max_warm_per_function: int = 4

    def __post_init__(self) -> None:
        if self.policy != "histogram":
            raise ValueError(f"unknown prewarm policy {self.policy!r}")
        if self.window_ms <= 0:
            raise ValueError("window_ms must be positive")
        if self.service_ms_hint <= 0:
            raise ValueError("service_ms_hint must be positive")
        if self.keepalive_cap_ms < KEEPALIVE_FLOOR_MS:
            raise ValueError("keepalive_cap_ms must be >= "
                             f"{KEEPALIVE_FLOOR_MS} ms")
        if self.max_prewarm_per_tick < 1:
            raise ValueError("max_prewarm_per_tick must be >= 1")
        if self.max_warm_per_function < 1:
            raise ValueError("max_warm_per_function must be >= 1")


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


def idle_expiry_ms(idle_since_ms: float, keepalive_ms: float,
                   hold_end_ms: float) -> float:
    """The one expiry rule for an idle replica: its keep-alive after it
    went idle, but never before its function's timer hold ends."""
    return max(idle_since_ms + keepalive_ms, hold_end_ms)


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

    ``policy`` defaults to the histogram policy built from ``config``;
    X13's oracle rung passes an :class:`OraclePolicy`.
    """

    def __init__(self, config: Optional[PrewarmConfig] = None,
                 policy: Optional[PrewarmPolicy] = None) -> None:
        self.config = config or PrewarmConfig()
        cfg = self.config
        self.policy = policy if policy is not None else HistogramEwmaPolicy(
            window_ms=cfg.window_ms,
            service_ms=cfg.service_ms_hint,
            keepalive_cap_ms=cfg.keepalive_cap_ms,
        )
        self._counts: Dict[str, Counter] = {}
        self._next_window: Dict[str, int] = {}
        self._last_arrival: Dict[str, float] = {}
        # Functions whose last arrival the timer schedule has not yet
        # placed for (or given up on), and the end of each live hold.
        self._unscheduled: Set[str] = set()
        self._hold_end: Dict[str, float] = {}
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
        self._unscheduled.add(function)
        self._hold_end.pop(function, None)

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

    def keepalive_ms(self, function: str, default_ms: float) -> float:
        """Policy keep-alive for the idle GC (the configured timeout
        until the function has arrived).

        While the forecast holds a positive warm target the keep-alive
        is floored at 1.5 forecast windows, so deliberately pre-placed
        replicas survive the GC pass between two plans instead of
        churning (prewarm → gc → prewarm)."""
        if function not in self._counts:
            return default_ms
        value = self.policy.keepalive_ms(function)
        if self.policy.target_warm(function) > 0:
            value = max(value, 1.5 * self.config.window_ms)
        return value

    def hold_end_ms(self, function: str) -> float:
        """End of ``function``'s timer hold (-inf without one); its
        next arrival clears it. See :func:`idle_expiry_ms`."""
        return self._hold_end.get(function, -math.inf)

    def _timer_due(self, function: str, now_ms: float) -> bool:
        """Whether the schedule places one replica now: at most once per
        last arrival, from ``last + eta`` until the hold would end."""
        schedule = self.policy.prewarm_schedule(function)
        if schedule is None:
            return False
        eta, hold = schedule
        due = self._last_arrival[function] + eta
        if now_ms < due:
            return False
        self._unscheduled.discard(function)
        if now_ms >= due + hold:
            return False
        self._hold_end[function] = due + hold
        return True

    def plan(self, now_ms: float,
             current_warm: Mapping[str, int]) -> List[PrewarmAction]:
        """Plan this pass's prewarm actions.

        ``current_warm`` maps function -> live replica count; the plan
        only asks for the shortfall against the forecast target. A
        function with a zero target and no live replica gets the timer
        placement when its schedule is due. The total replicas added
        per pass is capped by the config budget. Every function with a
        positive target gets an action, so its chunks are prefetched
        even when no replica is added.
        """
        cfg = self.config
        self.stats.plans += 1
        self.policy.observe_time(now_ms)
        budget = cfg.max_prewarm_per_tick
        actions: List[PrewarmAction] = []
        for function in sorted(self._counts):
            self._feed_windows(function, now_ms)
            target = min(self.policy.target_warm(function),
                         cfg.max_warm_per_function)
            have = int(current_warm.get(function, 0))
            if target > 0:
                add = min(max(0, target - have), budget)
            elif (have == 0 and budget > 0
                    and function in self._unscheduled
                    and self._timer_due(function, now_ms)):
                add = 1
            else:
                continue
            budget -= add
            self.stats.prewarm_replicas += add
            self.stats.prefetch_requests += 1
            actions.append(PrewarmAction(
                function=function,
                add_replicas=add,
                forecast=self.policy.forecast(function),
            ))
        return actions
