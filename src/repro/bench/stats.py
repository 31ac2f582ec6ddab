"""Statistics used by the paper's evaluation (§4.1).

Everything is implemented natively (scipy is only used by the test
suite to cross-check):

* bootstrap percentile confidence intervals for medians, following
  Efron & Tibshirani [6] — the paper's error bars;
* the Shapiro–Wilk W test via Royston's AS R94 approximation [24] —
  the paper's normality screen;
* the Wilcoxon–Mann–Whitney U test (normal approximation with tie
  correction) — the paper's median-equality test;
* a bootstrap CI for the median *difference* — the paper reports e.g.
  "[40.35, 42.29] ms" for NOOP;
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
    """A two-sided interval with its nominal confidence level."""

    low: float
    high: float
    confidence: float
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
        confidence=CONFIDENCE,
        point=median(data),
    )


def median_difference_ci(
    a: Sequence[float],
    b: Sequence[float],
    seed: int = 0,
) -> ConfidenceInterval:
    """Bootstrap CI for ``median(a) - median(b)`` (independent samples),
    like :func:`bootstrap_median_ci`."""
    if len(a) < 2 or len(b) < 2:
        raise ValueError("bootstrap needs at least 2 observations per sample")
    rng = random.Random(seed)
    la, lb = list(a), list(b)
    na, nb = len(la), len(lb)
    diffs = []
    for _ in range(RESAMPLES):
        ma = median([la[rng.randrange(na)] for _ in range(na)])
        mb = median([lb[rng.randrange(nb)] for _ in range(nb)])
        diffs.append(ma - mb)
    alpha = (1.0 - CONFIDENCE) / 2.0
    return ConfidenceInterval(
        low=quantile(diffs, alpha),
        high=quantile(diffs, 1.0 - alpha),
        confidence=CONFIDENCE,
        point=median(la) - median(lb),
    )


# ---------------------------------------------------------------------------
# Shapiro-Wilk (Royston 1995, AS R94 approximation)
# ---------------------------------------------------------------------------

def _norm_ppf(p: float) -> float:
    """Inverse standard-normal CDF (Acklam's rational approximation)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"ppf argument must be in (0, 1), got {p}")
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low, p_high = 0.02425, 1 - 0.02425
    if p < p_low:
        q = math.sqrt(-2 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    if p > p_high:
        q = math.sqrt(-2 * math.log(1 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1)


def _norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _poly(coeffs: Sequence[float], x: float) -> float:
    """Evaluate c[0] + c[1]x + c[2]x^2 + ..."""
    return sum(c * x ** i for i, c in enumerate(coeffs))


@dataclass(frozen=True)
class TestResult:
    """Statistic + p-value of a hypothesis test."""

    statistic: float
    p_value: float


def shapiro_wilk(values: Sequence[float]) -> TestResult:
    """Shapiro–Wilk normality test (3 <= n <= 5000), Royston AS R94."""
    x = sorted(values)
    n = len(x)
    if n < 3:
        raise ValueError("Shapiro-Wilk needs n >= 3")
    if n > 5000:
        raise ValueError("Shapiro-Wilk approximation valid for n <= 5000")
    if x[0] == x[-1]:
        raise ValueError("Shapiro-Wilk is undefined for constant samples")

    # Expected values of normal order statistics (Blom approximation).
    m = [_norm_ppf((i + 1 - 0.375) / (n + 0.25)) for i in range(n)]
    m_sq = sum(v * v for v in m)
    c = [v / math.sqrt(m_sq) for v in m]
    u = 1.0 / math.sqrt(n)

    # Royston's polynomial-corrected weights for the two largest order stats.
    a = [0.0] * n
    if n == 3:
        a[2] = math.sqrt(0.5)
        a[0] = -a[2]
    else:
        a_n = _poly((c[n - 1], 0.221157, -0.147981, -2.071190, 4.434685, -2.706056), u)
        a_n1 = _poly((c[n - 2], 0.042981, -0.293762, -1.752461, 5.682633, -3.582633), u)
        if n <= 5:
            phi = (m_sq - 2 * m[n - 1] ** 2) / (1 - 2 * a_n ** 2)
            a[n - 1] = a_n
            a[0] = -a_n
            for i in range(1, n - 1):
                a[i] = m[i] / math.sqrt(phi)
        else:
            phi = (m_sq - 2 * m[n - 1] ** 2 - 2 * m[n - 2] ** 2) / \
                  (1 - 2 * a_n ** 2 - 2 * a_n1 ** 2)
            a[n - 1] = a_n
            a[n - 2] = a_n1
            a[0] = -a_n
            a[1] = -a_n1
            for i in range(2, n - 2):
                a[i] = m[i] / math.sqrt(phi)

    mean_x = sum(x) / n
    ss = sum((v - mean_x) ** 2 for v in x)
    w_num = sum(a[i] * x[i] for i in range(n)) ** 2
    w = w_num / ss
    w = min(w, 1.0)

    # P-value via the normalizing transformation of (1 - W).
    if n == 3:
        pw = 6.0 / math.pi * (math.asin(math.sqrt(w)) - math.asin(math.sqrt(0.75)))
        return TestResult(statistic=w, p_value=max(0.0, min(1.0, pw)))
    y = math.log(1.0 - w)
    ln_n = math.log(n)
    if n <= 11:
        gamma = _poly((-2.273, 0.459), n)
        mu = _poly((0.5440, -0.39978, 0.025054, -6.714e-4), n)
        sigma = math.exp(_poly((1.3822, -0.77857, 0.062767, -0.0020322), n))
        z = (-math.log(gamma - y) - mu) / sigma
    else:
        mu = _poly((-1.5861, -0.31082, -0.083751, 0.0038915), ln_n)
        sigma = math.exp(_poly((-0.4803, -0.082676, 0.0030302), ln_n))
        z = (y - mu) / sigma
    return TestResult(statistic=w, p_value=1.0 - _norm_cdf(z))


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
        return TestResult(statistic=u_a, p_value=1.0)
    z = (u_a - mean_u + (0.5 if u_a < mean_u else -0.5)) / math.sqrt(var_u)
    p = 2.0 * (1.0 - _norm_cdf(abs(z)))
    return TestResult(statistic=u_a, p_value=max(0.0, min(1.0, p)))


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
