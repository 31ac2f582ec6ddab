"""Arrival-process generators for platform-level workload studies.

The paper measures a single replica under sequential constant-rate
load; platform-level questions — how often does a cold start actually
happen, and what does the idle-timeout / keep-alive policy cost — need
arrival traces. Three canonical shapes:

* Poisson (memoryless steady traffic);
* bursty on/off (Markov-modulated: quiet, then request trains — the
  worst case for keep-alive policies);
* diurnal (sinusoidal rate, the classic daily cycle).

All generators are seeded and yield absolute arrival timestamps in ms.
"""

from __future__ import annotations

import math
import random
from typing import List


def _rng(seed: int) -> random.Random:
    return random.Random(seed)


def poisson_arrivals(rate_per_s: float, duration_ms: float,
                     seed: int = 0) -> List[float]:
    """Homogeneous Poisson process: exponential inter-arrivals."""
    if rate_per_s <= 0:
        raise ValueError(f"rate must be positive, got {rate_per_s}")
    if duration_ms <= 0:
        raise ValueError(f"duration must be positive, got {duration_ms}")
    rng = _rng(seed)
    mean_gap_ms = 1000.0 / rate_per_s
    arrivals = []
    t = rng.expovariate(1.0 / mean_gap_ms)
    while t < duration_ms:
        arrivals.append(t)
        t += rng.expovariate(1.0 / mean_gap_ms)
    return arrivals


def bursty_arrivals(
    burst_rate_per_s: float,
    duration_ms: float,
    mean_on_ms: float = 2_000.0,
    mean_off_ms: float = 30_000.0,
    seed: int = 0,
) -> List[float]:
    """On/off (interrupted Poisson) process.

    During ON periods requests arrive at ``burst_rate_per_s``; OFF
    periods are silent. Period lengths are exponential. This is the
    trace shape that defeats idle-timeout keep-alive: the pool drains
    during OFF and every burst reopens with a cold start.
    """
    if burst_rate_per_s <= 0 or duration_ms <= 0:
        raise ValueError("rate and duration must be positive")
    if mean_on_ms <= 0 or mean_off_ms <= 0:
        raise ValueError("period means must be positive")
    rng = _rng(seed)
    mean_gap_ms = 1000.0 / burst_rate_per_s
    arrivals = []
    t = 0.0
    on = False
    while t < duration_ms:
        period = rng.expovariate(1.0 / (mean_on_ms if on else mean_off_ms))
        if on:
            mark = t + rng.expovariate(1.0 / mean_gap_ms)
            end = min(t + period, duration_ms)
            while mark < end:
                arrivals.append(mark)
                mark += rng.expovariate(1.0 / mean_gap_ms)
        t += period
        on = not on
    return arrivals


def diurnal_arrivals(
    peak_rate_per_s: float,
    duration_ms: float,
    period_ms: float = 86_400_000.0,
    floor_fraction: float = 0.1,
    seed: int = 0,
) -> List[float]:
    """Sinusoidal-rate Poisson process (thinning method).

    Rate oscillates between ``floor_fraction * peak`` and ``peak`` with
    the given period (default: one day).
    """
    if peak_rate_per_s <= 0 or duration_ms <= 0:
        raise ValueError("rate and duration must be positive")
    if not 0.0 <= floor_fraction <= 1.0:
        raise ValueError(f"floor_fraction must be in [0, 1], got {floor_fraction}")
    rng = _rng(seed)
    mean_gap_ms = 1000.0 / peak_rate_per_s

    def rate_fraction(t_ms: float) -> float:
        phase = math.sin(2 * math.pi * t_ms / period_ms - math.pi / 2)
        return floor_fraction + (1 - floor_fraction) * (phase + 1) / 2

    arrivals = []
    t = rng.expovariate(1.0 / mean_gap_ms)
    while t < duration_ms:
        if rng.random() < rate_fraction(t):
            arrivals.append(t)
        t += rng.expovariate(1.0 / mean_gap_ms)
    return arrivals
