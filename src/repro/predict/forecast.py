"""Arrival forecasters: inter-arrival histogram and EWMA.

Two deterministic estimators:

* :class:`InterArrivalHistogram` — log2-bucketed gap histogram per
  function.  Its quantiles choose keep-alive windows the way the
  Serverless-in-the-Wild hybrid policy does: keep a replica warm for
  the gap length that covers the q-th fraction of observed gaps.
* :class:`EwmaForecaster` — exponentially weighted moving average of
  per-window arrival counts; the rate estimate the histogram policy
  pre-provisions against.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Optional

#: Number of log2 gap buckets: bucket i covers [2**i, 2**(i+1)) ms,
#: bucket 0 additionally absorbs sub-millisecond gaps.  2**48 ms is
#: ~9000 years — an open upper bound in practice.
_GAP_BUCKETS = 48


class InterArrivalHistogram:
    """Log2-bucketed histogram of per-function inter-arrival gaps.

    ``quantile(q)`` returns the upper edge of the first bucket whose
    cumulative count reaches ``q`` — a conservative keep-alive choice:
    at least a ``q`` fraction of observed gaps are covered by keeping
    a replica warm that long.  ``rate_per_ms`` is the exact inverse
    mean gap (sample totals are kept alongside the buckets), which
    converges to the true arrival rate on stationary streams.
    """

    __slots__ = ("_counts", "_total", "_gap_sum", "_recent")

    #: Exact-gap reservoir size: enough recent gaps for stable edge
    #: quantiles without unbounded growth.
    RECENT_GAPS = 64

    def __init__(self) -> None:
        self._counts = [0] * _GAP_BUCKETS
        self._total = 0
        self._gap_sum = 0.0
        self._recent: Deque[float] = deque(maxlen=self.RECENT_GAPS)

    @property
    def total(self) -> int:
        return self._total

    def note_gap(self, gap_ms: float) -> None:
        if gap_ms < 0.0 or not math.isfinite(gap_ms):
            return
        index = 0 if gap_ms < 1.0 else int(math.log2(gap_ms))
        index = min(index, _GAP_BUCKETS - 1)
        self._counts[index] += 1
        self._total += 1
        self._gap_sum += gap_ms
        self._recent.append(gap_ms)

    def quantile(self, q: float) -> Optional[float]:
        """Upper gap edge covering at least a ``q`` fraction of gaps."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if self._total == 0:
            return None
        need = q * self._total
        seen = 0
        for index, count in enumerate(self._counts):
            seen += count
            if seen >= need:
                return float(2 ** (index + 1))
        return float(2 ** _GAP_BUCKETS)

    def exact_quantile(self, q: float) -> Optional[float]:
        """Quantile over the exact recent-gap reservoir.

        Log2 buckets are the right cost/precision trade for keep-alive
        (factor-2 resolution), but prewarm *scheduling* — placing a
        replica shortly before a timer-triggered function's next
        predicted arrival — needs real edges, so the last
        ``RECENT_GAPS`` gaps are kept exactly.

        Interpolates like ``np.quantile(..., method="linear")``, step
        for step, so the result is the same float: index ``(n-1)*q``,
        and past its midpoint the lerp runs down from the upper gap.
        """
        if not self._recent:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        gaps = sorted(self._recent)
        index = (len(gaps) - 1) * q
        if index >= len(gaps) - 1:
            return float(gaps[-1])
        below = math.floor(index)
        lo, hi = gaps[below], gaps[below + 1]
        t = index - below
        if t >= 0.5:
            return float(hi - (hi - lo) * (1 - t))
        return float(lo + (hi - lo) * t)

    def rate_per_ms(self) -> Optional[float]:
        """Exact sample arrival rate (gaps per ms of observed gap time)."""
        if self._total == 0 or self._gap_sum <= 0.0:
            return None
        return self._total / self._gap_sum

    def keepalive_ms(self, q: float, floor_ms: float, cap_ms: float) -> float:
        """Histogram-chosen keep-alive, clamped to [floor, cap]."""
        edge = self.quantile(q)
        if edge is None:
            return floor_ms
        return min(max(edge, floor_ms), cap_ms)


class EwmaForecaster:
    """EWMA of per-window arrival counts.

    ``observe(count)`` folds in one completed window; ``forecast()``
    predicts the next window's count.  On a stationary Poisson stream
    the estimate converges to the true per-window rate (steady-state
    standard error ``sqrt(alpha / (2 - alpha)) * sqrt(rate)``).
    """

    __slots__ = ("alpha", "_value", "_seen")

    def __init__(self, alpha: float = 0.25) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._value = 0.0
        self._seen = 0

    def observe(self, count: float) -> None:
        if count < 0.0 or not math.isfinite(count):
            return
        if self._seen == 0:
            self._value = float(count)
        else:
            self._value += self.alpha * (float(count) - self._value)
        self._seen += 1

    def forecast(self) -> float:
        return self._value if self._seen else 0.0

