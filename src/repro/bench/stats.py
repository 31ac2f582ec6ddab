"""Statistics used by the paper's evaluation (§4.1).

Everything is implemented natively (scipy is only used by the test
suite to cross-check):

* bootstrap percentile confidence intervals for medians, following
  Efron & Tibshirani [6] — the paper's error bars;
* the Wilcoxon–Mann–Whitney U test (normal approximation with tie
  correction) — the paper's median-equality test;
* ECDFs and the Kolmogorov–Smirnov distance — Figure 7's comparison.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

# Every bootstrap CI here: a 95 % percentile interval over 2000 resamples.
CONFIDENCE = 0.95
RESAMPLES = 2000


def median(values: Sequence[float]) -> float:
    """Sample median (average of middle pair for even n)."""
    if not values:
        raise ValueError("median of empty sample")
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (numpy 'linear' method)."""
    if not values:
        raise ValueError("quantile of empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = q * (len(ordered) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    if ordered[lo] == ordered[hi]:
        # Avoid 1-ulp drift from interpolating between equal values.
        return float(ordered[lo])
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


# ---------------------------------------------------------------------------
# Bootstrap
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided ``CONFIDENCE`` interval around a point estimate."""

    low: float
    high: float
    point: float

    def overlaps(self, other: "ConfidenceInterval") -> bool:
        return self.low <= other.high and other.low <= self.high


def bootstrap_median_ci(
    values: Sequence[float],
    seed: int = 0,
) -> ConfidenceInterval:
    """Percentile-bootstrap :data:`CONFIDENCE` CI for the median [6],
    over :data:`RESAMPLES` resamples."""
    if len(values) < 2:
        raise ValueError("bootstrap needs at least 2 observations")
    rng = random.Random(seed)
    data = list(values)
    n = len(data)
    medians = []
    for _ in range(RESAMPLES):
        sample = [data[rng.randrange(n)] for _ in range(n)]
        medians.append(median(sample))
    alpha = (1.0 - CONFIDENCE) / 2.0
    return ConfidenceInterval(
        low=quantile(medians, alpha),
        high=quantile(medians, 1.0 - alpha),
        point=median(data),
    )


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


@dataclass(frozen=True)
class TestResult:
    """The p-value of a hypothesis test."""

    p_value: float


# ---------------------------------------------------------------------------
# Wilcoxon-Mann-Whitney
# ---------------------------------------------------------------------------

def _rank_with_ties(combined: List[float]) -> Tuple[List[float], List[int]]:
    """Midranks of ``combined`` plus tie-group sizes."""
    order = sorted(range(len(combined)), key=lambda i: combined[i])
    ranks = [0.0] * len(combined)
    tie_sizes: List[int] = []
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and combined[order[j + 1]] == combined[order[i]]:
            j += 1
        midrank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = midrank
        tie_sizes.append(j - i + 1)
        i = j + 1
    return ranks, tie_sizes


def mann_whitney_u(a: Sequence[float], b: Sequence[float]) -> TestResult:
    """Two-sided Wilcoxon–Mann–Whitney U test (normal approximation).

    The paper: "we used the non-parametric Wilcoxon-Mann-Whitney Test
    to check if both medians are equal".
    """
    na, nb = len(a), len(b)
    if na < 1 or nb < 1:
        raise ValueError("both samples must be non-empty")
    combined = list(a) + list(b)
    ranks, tie_sizes = _rank_with_ties(combined)
    rank_sum_a = sum(ranks[:na])
    u_a = rank_sum_a - na * (na + 1) / 2.0
    n = na + nb
    mean_u = na * nb / 2.0
    tie_term = sum(t ** 3 - t for t in tie_sizes)
    var_u = na * nb / 12.0 * ((n + 1) - tie_term / (n * (n - 1))) if n > 1 else 0.0
    if var_u <= 0:
        # All observations identical: no evidence of difference.
        return TestResult(p_value=1.0)
    z = (u_a - mean_u + (0.5 if u_a < mean_u else -0.5)) / math.sqrt(var_u)
    p = 2.0 * (1.0 - _norm_cdf(abs(z)))
    return TestResult(p_value=max(0.0, min(1.0, p)))


# ---------------------------------------------------------------------------
# ECDF / Kolmogorov-Smirnov
# ---------------------------------------------------------------------------


def ecdf_at(values: Sequence[float], x: float) -> float:
    """F(x) for the sample's ECDF."""
    xs = sorted(values)
    count = 0
    for v in xs:
        if v <= x:
            count += 1
        else:
            break
    return count / len(xs)


def ks_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sample Kolmogorov–Smirnov statistic sup |F_a - F_b|."""
    if not a or not b:
        raise ValueError("both samples must be non-empty")
    points = sorted(set(a) | set(b))
    return max(abs(ecdf_at(a, x) - ecdf_at(b, x)) for x in points)
