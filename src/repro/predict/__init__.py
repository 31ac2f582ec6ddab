"""Predictive prewarming: per-function arrival forecasting.

The platform's autoscaler is reactive — demand-driven scale-up plus
idle-timeout GC — so every burst pays the cold-start tax before
capacity catches up.  This package adds the forecasting layer: an
inter-arrival histogram that picks each function's keep-alive and
schedules timer functions, and an EWMA of per-window arrival counts
that sizes its warm set.  One planner, :class:`PrewarmController`,
turns a policy's forecasts into budget-capped ``prewarm`` actions and
hot-chunk prefetches, for the live platform and the X13 study alike.

Everything here is deterministic: no RNG, no wall clock.
"""

from repro.predict.forecast import EwmaForecaster, InterArrivalHistogram
from repro.predict.policy import (
    HistogramEwmaPolicy,
    OraclePolicy,
    PrewarmAction,
    PrewarmConfig,
    PrewarmController,
)

__all__ = [
    "EwmaForecaster",
    "InterArrivalHistogram",
    "HistogramEwmaPolicy",
    "OraclePolicy",
    "PrewarmAction",
    "PrewarmConfig",
    "PrewarmController",
]
