"""Restore retries: capped exponential backoff on simulated time.

The prebake starter restores up to ``MAX_ATTEMPTS`` times, sleeping
:func:`backoff_ms` after each failed attempt but the last, then falls
back to the vanilla fork/exec path. All sleeps are *virtual* — they
advance the world clock, never the wall clock — so chaos experiments
stay fast and deterministic.
"""

from __future__ import annotations

#: Restore *tries* (not retries) before the vanilla fallback.
MAX_ATTEMPTS = 3

#: Backoff after failed attempt ``i``: ``BASE_MS * MULTIPLIER ** (i - 1)``,
#: at most ``CAP_MS`` — 10 ms, then 20 ms.
BACKOFF_BASE_MS = 10.0
BACKOFF_MULTIPLIER = 2.0
BACKOFF_CAP_MS = 1_000.0


def backoff_ms(attempt: int) -> float:
    """Backoff after failed attempt ``attempt`` (1-based)."""
    if attempt < 1:
        raise ValueError(f"attempt is 1-based, got {attempt}")
    return min(BACKOFF_CAP_MS,
               BACKOFF_BASE_MS * BACKOFF_MULTIPLIER ** (attempt - 1))


def total_backoff_ms() -> float:
    """Total virtual time spent sleeping if every attempt fails: no
    sleep follows the last attempt."""
    return sum(backoff_ms(i) for i in range(1, MAX_ATTEMPTS))
