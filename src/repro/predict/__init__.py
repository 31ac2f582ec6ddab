"""Predictive prewarming: per-function arrival forecasting.

The platform's autoscaler is reactive — demand-driven scale-up plus
idle-timeout GC — so every burst pays the cold-start tax before
capacity catches up.  This package adds the forecasting layer ROADMAP
item 2 calls for: per-function arrival forecasters fed one arrival
count per fixed window (an inter-arrival histogram + EWMA policy
first, then a small numpy-only attention sequence model), and
the prewarm policies/controller that turn forecasts into budget-capped
``prewarm`` actions and hot-chunk prefetches.

Everything here is seeded and deterministic: the attention model's
projections are drawn once from a PCG64 stream derived from the policy
seed, and inference is pure float64 numpy — the same seed produces
bit-identical forecasts across runs.
"""

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
    PrewarmAction,
    PrewarmConfig,
    PrewarmController,
    ReactivePolicy,
)

__all__ = [
    "AttentionForecaster",
    "EwmaForecaster",
    "InterArrivalHistogram",
    "FixedKeepAlivePolicy",
    "HistogramEwmaPolicy",
    "LearnedPolicy",
    "OraclePolicy",
    "PrewarmAction",
    "PrewarmConfig",
    "PrewarmController",
    "ReactivePolicy",
]
