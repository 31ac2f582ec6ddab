"""Shared metrics registry: counters, gauges, log-linear histograms.

One registry per simulated world (installed next to the span tracer by
:func:`repro.obs.install`). The OpenFaaS stack exposes this registry
as its ``metrics``, so platform code and experiment harnesses read the
same series.

Histograms use log-linear bucketing (HDR-histogram style): each
power-of-two range is split into :data:`SUBBUCKETS` linear buckets,
bounding the relative quantile error by ``1/SUBBUCKETS`` regardless of
magnitude — the right trade for latencies spanning 0.01ms page faults
to multi-second JVM boots.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

LabelSet = Tuple[Tuple[str, str], ...]

_EMPTY_LABELS: LabelSet = ()


class MetricsError(Exception):
    """Registry misuse (type mismatch, negative counter increment)."""


def label_set(labels: Optional[Dict[str, str]]) -> LabelSet:
    """Canonical, hashable form of a label dict.

    The no-labels case (the overwhelming majority of hot-path writes)
    short-circuits to a shared empty tuple without building a dict.
    """
    if not labels:
        return _EMPTY_LABELS
    return tuple(sorted(labels.items()))


def labels_match(series: LabelSet, want: Dict[str, str]) -> bool:
    """True when ``series`` carries every label in ``want``."""
    have = dict(series)
    return all(have.get(key) == value for key, value in want.items())


# ---------------------------------------------------------------------------
# Histogram bucketing
# ---------------------------------------------------------------------------

SUBBUCKETS = 32  # linear buckets per power of two (~3% relative error)

# frexp exponents for float range go down to about -1074 (subnormals);
# shifting keeps bucket indices positive.
_EXP_SHIFT = 1080


def bucket_index(value: float) -> int:
    """Log-linear bucket index; 0 collects zero and negative values."""
    if value <= 0.0:
        return 0
    mantissa, exponent = math.frexp(value)  # value = mantissa * 2**exponent
    sub = int((mantissa - 0.5) * 2.0 * SUBBUCKETS)  # 0 .. SUBBUCKETS-1
    if sub == SUBBUCKETS:  # mantissa == 1.0 cannot happen, but guard rounding
        sub -= 1
    return (exponent + _EXP_SHIFT) * SUBBUCKETS + sub + 1


def bucket_midpoint(index: int) -> float:
    """Representative value for a bucket (geometric centre of its range)."""
    if index <= 0:
        return 0.0
    index -= 1
    exponent = index // SUBBUCKETS - _EXP_SHIFT
    sub = index % SUBBUCKETS
    low = math.ldexp(0.5 + sub / (2.0 * SUBBUCKETS), exponent)
    high = math.ldexp(0.5 + (sub + 1) / (2.0 * SUBBUCKETS), exponent)
    return (low + high) / 2.0


class Histogram:
    """Log-linear histogram for one label set.

    Each bucket may carry one *exemplar* — the trace id (and exact
    value) of the most recent observation that landed in it — linking
    a latency bucket back to a causal span tree for drill-down.
    """

    __slots__ = ("buckets", "count", "total", "min_value", "max_value",
                 "exemplars")

    def __init__(self) -> None:
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min_value = math.inf
        self.max_value = -math.inf
        self.exemplars: Dict[int, Tuple[str, float]] = {}

    def observe(self, value: float, exemplar: Optional[str] = None) -> None:
        index = bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        self.count += 1
        self.total += value
        self.min_value = min(self.min_value, value)
        self.max_value = max(self.max_value, value)
        if exemplar is not None:
            self.exemplars[index] = (exemplar, value)

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (exact min/max at the extremes)."""
        if not 0.0 <= q <= 1.0:
            raise MetricsError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        if q == 0.0:
            return self.min_value
        if q == 1.0:
            return self.max_value
        rank = q * self.count
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                # Clamp the bucket representative into the observed range
                # so approximation error never escapes [min, max].
                mid = bucket_midpoint(index)
                return min(max(mid, self.min_value), self.max_value)
        return self.max_value  # pragma: no cover - rank <= count always hits

    def fraction_above(self, threshold: float) -> float:
        """Fraction of observations strictly above ``threshold``.

        Bucket-granular (a bucket counts as "above" when its midpoint
        exceeds the threshold), which is the resolution SLO burn-rate
        evaluation needs — the same ~1/SUBBUCKETS relative error as
        quantiles.
        """
        if self.count == 0:
            return 0.0
        above = sum(
            n for index, n in self.buckets.items()
            if bucket_midpoint(index) > threshold
        )
        return above / self.count

    def observe_many(self, values: Sequence[float]) -> None:
        """Batched :meth:`observe` (no exemplars).

        Bucket indices compute in one vectorized ``frexp`` pass;
        ``count``/``min``/``max`` update exactly as repeated single
        observations would, and ``total`` accumulates in the same
        left-to-right order so the float result is bit-identical to
        the sequential path.
        """
        vals = np.asarray(values, dtype=np.float64)
        if vals.size == 0:
            return
        mantissa, exponent = np.frexp(vals)
        sub = ((mantissa - 0.5) * (2.0 * SUBBUCKETS)).astype(np.int64)
        np.clip(sub, 0, SUBBUCKETS - 1, out=sub)
        indices = (exponent.astype(np.int64) + _EXP_SHIFT) * SUBBUCKETS + sub + 1
        indices[vals <= 0.0] = 0
        unique, counts = np.unique(indices, return_counts=True)
        buckets = self.buckets
        for index, n in zip(unique.tolist(), counts.tolist()):
            buckets[index] = buckets.get(index, 0) + n
        self.count += int(vals.size)
        total = self.total
        for value in vals.tolist():
            total += value
        self.total = total
        self.min_value = min(self.min_value, float(vals.min()))
        self.max_value = max(self.max_value, float(vals.max()))

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram (exact for bucket data)."""
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n
        self.count += other.count
        self.total += other.total
        self.min_value = min(self.min_value, other.min_value)
        self.max_value = max(self.max_value, other.max_value)
        self.exemplars.update(other.exemplars)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


class Metric:
    """One named metric family: a kind plus its per-labelset series."""

    __slots__ = ("name", "kind", "series")

    def __init__(self, name: str, kind: str) -> None:
        self.name = name
        self.kind = kind
        self.series: Dict[LabelSet, object] = {}


class CounterHandle:
    """Pre-resolved write path for one counter series.

    Obtained from :meth:`MetricsRegistry.counter`; the family lookup,
    kind check and label-set canonicalization happen once at resolve
    time, so each :meth:`inc` is a dict update on the bound series.
    """

    __slots__ = ("series", "key")

    def __init__(self, series: Dict[LabelSet, object], key: LabelSet) -> None:
        self.series = series
        self.key = key

    def inc(self, value: float = 1.0) -> None:
        if value < 0:
            raise MetricsError("counters only go up")
        series = self.series
        series[self.key] = series.get(self.key, 0.0) + value  # type: ignore[operator]


class MetricsRegistry:
    """Counters, gauges, and histograms addressed by (name, labels)."""

    DEFAULT_QUANTILES = (0.5, 0.95, 0.99)

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    # -- family management --------------------------------------------------------

    def _family(self, name: str, kind: str) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = Metric(name, kind)
            self._metrics[name] = metric
        elif metric.kind != kind:
            raise MetricsError(
                f"metric {name!r} is a {metric.kind}, not a {kind}"
            )
        return metric

    def families(self) -> List[Metric]:
        return list(self._metrics.values())

    # -- write paths ----------------------------------------------------------------

    def inc(self, name: str, value: float = 1.0,
            labels: Optional[Dict[str, str]] = None) -> None:
        if value < 0:
            raise MetricsError("counters only go up")
        family = self._family(name, COUNTER)
        key = label_set(labels)
        family.series[key] = family.series.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float,
                  labels: Optional[Dict[str, str]] = None) -> None:
        family = self._family(name, GAUGE)
        family.series[label_set(labels)] = float(value)

    def observe(self, name: str, value: float,
                labels: Optional[Dict[str, str]] = None,
                exemplar: Optional[str] = None) -> None:
        family = self._family(name, HISTOGRAM)
        key = label_set(labels)
        histogram = family.series.get(key)
        if histogram is None:
            histogram = Histogram()
            family.series[key] = histogram
        histogram.observe(value, exemplar=exemplar)

    # -- pre-resolved handles ---------------------------------------------------------

    def counter(self, name: str,
                labels: Optional[Dict[str, str]] = None) -> CounterHandle:
        """Bind a counter series once; the handle's ``inc`` skips the
        per-write family lookup and label canonicalization."""
        family = self._family(name, COUNTER)
        return CounterHandle(family.series, label_set(labels))

    def histogram_series(self, name: str,
                         labels: Optional[Dict[str, str]] = None) -> Histogram:
        """The histogram for one label set, created if missing.

        The returned :class:`Histogram` *is* the fast-path handle —
        ``observe``/``observe_many`` on it write straight into the
        bucket dict with no registry indirection.
        """
        family = self._family(name, HISTOGRAM)
        key = label_set(labels)
        histogram = family.series.get(key)
        if histogram is None:
            histogram = Histogram()
            family.series[key] = histogram
        return histogram  # type: ignore[return-value]

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (counters add, gauges
        take the other's value, histograms merge bucket-wise)."""
        for family in other.families():
            mine = self._family(family.name, family.kind)
            for key, series in family.series.items():
                if family.kind == COUNTER:
                    mine.series[key] = mine.series.get(key, 0.0) + series  # type: ignore[operator]
                elif family.kind == GAUGE:
                    mine.series[key] = series
                else:
                    histogram = mine.series.get(key)
                    if histogram is None:
                        histogram = Histogram()
                        mine.series[key] = histogram
                    histogram.merge(series)  # type: ignore[arg-type]

    # -- read paths -----------------------------------------------------------------

    def value(self, name: str, labels: Optional[Dict[str, str]] = None) -> float:
        """Sum of a counter/gauge across series matching the label subset.

        (Histograms are excluded: alert rules compare scalar series.)
        """
        metric = self._metrics.get(name)
        if metric is None or metric.kind == HISTOGRAM:
            return 0.0
        want = dict(labels or {})
        return sum(
            v for series, v in metric.series.items()
            if labels_match(series, want)
        )

    def histogram(self, name: str,
                  labels: Optional[Dict[str, str]] = None) -> Optional[Histogram]:
        """The histogram for one exact label set, or None."""
        metric = self._metrics.get(name)
        if metric is None or metric.kind != HISTOGRAM:
            return None
        return metric.series.get(label_set(labels))

    def quantile(self, name: str, q: float,
                 labels: Optional[Dict[str, str]] = None) -> float:
        histogram = self.histogram(name, labels)
        return histogram.quantile(q) if histogram else 0.0
