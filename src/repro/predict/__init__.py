"""Predictive prewarming: per-function arrival forecasting.

The platform's autoscaler is reactive — demand-driven scale-up plus
idle-timeout GC — so every burst pays the cold-start tax before
capacity catches up.  This package adds the forecasting layer: an
inter-arrival histogram that picks each function's keep-alive and an
EWMA of per-window arrival counts that sizes its warm set, plus the
prewarm policies/controller that turn forecasts into budget-capped
``prewarm`` actions and hot-chunk prefetches.

Everything here is deterministic: no RNG, no wall clock.
"""

from repro.predict.forecast import EwmaForecaster, InterArrivalHistogram
from repro.predict.policy import (
    FixedKeepAlivePolicy,
    HistogramEwmaPolicy,
    OraclePolicy,
    PrewarmAction,
    PrewarmConfig,
    PrewarmController,
    ReactivePolicy,
)

__all__ = [
    "EwmaForecaster",
    "InterArrivalHistogram",
    "FixedKeepAlivePolicy",
    "HistogramEwmaPolicy",
    "OraclePolicy",
    "PrewarmAction",
    "PrewarmConfig",
    "PrewarmController",
    "ReactivePolicy",
]
